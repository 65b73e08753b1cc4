//===- runtime/NodeInstance.h - Decomposition instances ---------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime (dynamic) counterpart of a decomposition (§4.1): each node
/// v: A ▷ B has a set of instances v_t, one per valuation t of A, each an
/// object in memory holding one container per outgoing edge plus the
/// physical locks the lock placement attaches to the node (§4.3, striped
/// per §4.4).
///
/// **Layout.** An instance is one heap block whose shape is fixed by its
/// static node (InstanceLayout): a 16-byte header, the values of t in
/// key-column order, the out-edge containers constructed in place (large
/// ones, such as ConcurrentHashMap, behind a pointer), and the lock
/// stripes. Stripes exist only on nodes where the placement hosts an
/// edge or where a speculative edge locks its present targets (§4.5);
/// leaves carry none. Trailing parts are addressed by byte offset, never
/// through an array member.
///
/// **Lifetime.** Instances are reference-counted intrusively: each
/// container entry holds a NodeRef, and so does a locked execution's
/// instance pool. The last release retires the block through
/// EpochDomain::global() instead of freeing it, so a reader inside an
/// epoch guard may hold raw instance pointers with no reference-count
/// writes at all (perfbook §9): an instance it reached through a
/// container stays allocated until its guard exits, even if a writer
/// unlinks it meanwhile. The epoch fast path binds instances this way.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_RUNTIME_NODEINSTANCE_H
#define CRS_RUNTIME_NODEINSTANCE_H

#include "lockplace/LockPlacement.h"
#include "rel/ValueKey.h"
#include "runtime/AnyContainer.h"
#include "sync/Epoch.h"
#include "sync/PhysicalLock.h"

#include <atomic>
#include <cassert>
#include <utility>
#include <vector>

namespace crs {

class NodeRef;

/// The block layout shared by every instance of one decomposition node:
/// byte offsets of the key, the containers and the stripes. Layouts are
/// interned and never freed, so a block retired after its relation is
/// gone can still destroy itself.
struct InstanceLayout {
  struct Slot {
    ContainerKind Kind;
    uint32_t Arity;  ///< columns the edge binds
    uint32_t Offset; ///< the container, or the pointer to it
    bool Inline;
  };
  uint32_t KeyArity = 0;
  uint32_t NumStripes = 0;
  uint32_t StripeOffset = 0;
  uint32_t Size = 0; ///< block bytes
  std::vector<Slot> Out; ///< parallel to the node's OutEdges

  /// The layout of node \p N's instances: its key columns, one container
  /// per out-edge, and LockPlacement::instanceStripes(N) stripes.
  static const InstanceLayout &forNode(const Decomposition &D,
                                       const LockPlacement &P, NodeId N);
  /// The interned layout for \p KeyArity key values, containers of the
  /// given (kind, arity) pairs, and \p Stripes locks.
  static const InstanceLayout &
  get(unsigned KeyArity,
      const std::vector<std::pair<ContainerKind, unsigned>> &Out,
      unsigned Stripes);
};

/// One node instance v_t.
class NodeInstance {
public:
  NodeInstance(const NodeInstance &) = delete;
  NodeInstance &operator=(const NodeInstance &) = delete;

  /// Builds an instance with layout \p L keyed by \p Key (L.KeyArity
  /// values in key-column order), with empty containers and unheld
  /// stripes.
  static NodeRef create(const InstanceLayout &L, const Value *Key);

  /// The valuation t of the node's key columns, in column order.
  const Value *key() const {
    return reinterpret_cast<const Value *>(base() + sizeof(NodeInstance));
  }
  ValueSpan keySpan() const { return {key(), Layout->KeyArity}; }
  const InstanceLayout &layout() const { return *Layout; }

  /// The container of the \p Slot-th outgoing edge
  /// (Decomposition::outSlot).
  AnyContainer &out(unsigned Slot) const {
    const InstanceLayout::Slot &S = Layout->Out[Slot];
    char *P = const_cast<char *>(base()) + S.Offset;
    return S.Inline ? *reinterpret_cast<AnyContainer *>(P)
                    : **reinterpret_cast<AnyContainer **>(P);
  }
  unsigned numOut() const { return unsigned(Layout->Out.size()); }

  /// The physical locks attached to this instance (0 when nothing is
  /// placed at its node).
  uint32_t numStripes() const { return Layout->NumStripes; }
  PhysicalLock &stripe(uint32_t I) const {
    assert(I < Layout->NumStripes && "stripe out of range");
    return reinterpret_cast<PhysicalLock *>(const_cast<char *>(base()) +
                                            Layout->StripeOffset)[I];
  }

  /// True if every outgoing container is empty (husk detection during
  /// remove cleanup).
  bool allOutEmpty() const;

  /// \name Intrusive reference count
  /// @{
  void addRef() { Refs.fetch_add(1, std::memory_order_relaxed); }
  /// addRef unless the count already reached zero (the block is retired:
  /// a reader under an epoch guard may still see it, but not revive it).
  bool tryAddRef() {
    uint32_t C = Refs.load(std::memory_order_relaxed);
    do
      if (C == 0)
        return false;
    while (!Refs.compare_exchange_weak(C, C + 1, std::memory_order_relaxed));
    return true;
  }
  /// Drops one reference; the last retires the block through the epoch
  /// domain.
  void release() {
    if (Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      EpochDomain::global().retire(this, &NodeInstance::destroy);
  }
  uint32_t refs() const { return Refs.load(std::memory_order_relaxed); }
  /// @}

private:
  explicit NodeInstance(const InstanceLayout &L) : Layout(&L) {}
  ~NodeInstance() = default;
  static void destroy(void *P);
  /// Destroys the first \p Containers containers and \p Stripes stripes
  /// of a block, then the header, and frees it.
  static void destroyParts(char *Block, const InstanceLayout &L,
                           size_t Containers, uint32_t Stripes);

  const char *base() const { return reinterpret_cast<const char *>(this); }

  const InstanceLayout *Layout;
  std::atomic<uint32_t> Refs{0};
};
static_assert(sizeof(NodeInstance) == 16, "instance header is 16 bytes");

/// An owning reference to a node instance.
class NodeRef {
public:
  NodeRef() = default;
  explicit NodeRef(NodeInstance *P) : P(P) {
    if (P)
      P->addRef();
  }
  NodeRef(const NodeRef &O) : NodeRef(O.P) {}
  NodeRef(NodeRef &&O) noexcept : P(std::exchange(O.P, nullptr)) {}
  NodeRef &operator=(NodeRef O) noexcept {
    std::swap(P, O.P);
    return *this;
  }
  ~NodeRef() {
    if (P)
      P->release();
  }

  NodeInstance *get() const { return P; }
  NodeInstance *operator->() const { return P; }
  NodeInstance &operator*() const { return *P; }
  explicit operator bool() const { return P != nullptr; }
  bool operator==(const NodeRef &O) const { return P == O.P; }

private:
  NodeInstance *P = nullptr;
};

} // namespace crs

#endif // CRS_RUNTIME_NODEINSTANCE_H
