//===- runtime/AnyContainer.h - Type-erased edge containers ----*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decomposition edges are implemented by containers chosen at
/// representation-construction time (ds(uv), §4.1). AnyContainer
/// type-erases the container templates of src/containers, so the
/// runtime can pick any kind per edge dynamically — exactly what the
/// autotuner needs.
///
/// An edge's columns cols(uv) are static, so a container is keyed by
/// the bare values of those columns in column order, stored inline in
/// each entry (ValueKey<N>, N the edge's arity rounded up to 1, 2, 4 or
/// 8). Entries own a reference to their node instance; lookups and
/// scans hand out raw instance pointers, valid until the caller's epoch
/// guard exits (NodeInstance.h has the lifetime argument).
///
//===----------------------------------------------------------------------===//

#ifndef CRS_RUNTIME_ANYCONTAINER_H
#define CRS_RUNTIME_ANYCONTAINER_H

#include "containers/ContainerTraits.h"
#include "rel/Value.h"
#include "support/FunctionRef.h"

#include <cstddef>
#include <memory>

namespace crs {

class NodeInstance;

/// Abstract associative container from edge-column valuations to node
/// instances. A key is a pointer to paddedArity(arity) values: the
/// edge's values in column order, then default Values up to the padded
/// width. Thread-safety follows the wrapped kind's taxonomy entry
/// (Figure 1); the lock placement is responsible for serializing access
/// to non-concurrent kinds.
class AnyContainer {
public:
  /// The stored key width for an edge binding \p Arity columns (at most
  /// Decomposition::MaxEdgeColumns; wider edges abort construction).
  static unsigned paddedArity(unsigned Arity) {
    return Arity <= 1 ? 1 : Arity <= 2 ? 2 : Arity <= 4 ? 4 : 8;
  }

  virtual ~AnyContainer() = default;

  /// The instance at \p Key, or null.
  virtual NodeInstance *lookup(const Value *Key) const = 0;

  /// Inserts or replaces; the entry takes a reference to \p Val.
  /// Returns true if newly inserted.
  virtual bool insertOrAssign(const Value *Key, NodeInstance *Val) = 0;

  /// Removes; returns true if the key was present.
  virtual bool erase(const Value *Key) = 0;

  /// Visits entries (sorted-by-key iff the kind's traits say so); the
  /// visitor returns false to stop early.
  virtual void
  scan(function_ref<bool(const Value *Key, NodeInstance *Val)> Visit) const = 0;

  virtual size_t size() const = 0;
  virtual ContainerKind kind() const = 0;

  /// Where a container of one kind and arity lives: its object's size
  /// and alignment, and whether a node instance holds it inline or
  /// behind a pointer (large objects, such as ConcurrentHashMap's lock
  /// stripes, stay out of line).
  struct Shape {
    size_t Size;
    size_t Align;
    bool Inline;
  };
  static Shape shape(ContainerKind Kind, unsigned Arity);

  /// Heap a container holds beyond its own object, read from its live
  /// state and charged at the allocator's chunk sizes (the memory
  /// ledger's figures).
  struct HeapBytes {
    /// Entries and the bucket arrays that index them (skip-list nodes
    /// at the mean size of their random heights).
    size_t Entries = 0;
    /// What an empty container holds too: a skip list's head, a
    /// copy-on-write map's snapshot header.
    size_t Base = 0;
  };
  virtual HeapBytes heapBytes() const = 0;

  /// Constructs a container of the given kind and arity at \p Where,
  /// which has shape(Kind, Arity).Size bytes at its alignment.
  static AnyContainer *construct(ContainerKind Kind, unsigned Arity,
                                 void *Where);

  /// Factory: builds a container of the given kind on the heap.
  static std::unique_ptr<AnyContainer> create(ContainerKind Kind,
                                              unsigned Arity);
};

} // namespace crs

#endif // CRS_RUNTIME_ANYCONTAINER_H
