//===- baseline/HandcodedGraph.h - Hand-written baseline --------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "Handcoded" series (§6.2): a hand-written concurrent
/// directed graph, written the way a careful engineer would without the
/// synthesizer. Structurally it is the Split 4 representation — two
/// top-level concurrent hash maps (successors by src, predecessors by
/// dst), each mapping to a per-node adjacency TreeMap guarded by its own
/// mutex — with a fixed forward-before-reverse lock discipline for
/// deadlock freedom and a compare-and-set insert to preserve the
/// src,dst → weight functional dependency.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_BASELINE_HANDCODEDGRAPH_H
#define CRS_BASELINE_HANDCODEDGRAPH_H

#include "containers/ConcurrentHashMap.h"
#include "containers/TreeMap.h"
#include "support/Hashing.h"
#include "sync/Epoch.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace crs {

/// Hand-written concurrent weighted digraph with put-if-absent edges.
class HandcodedGraph {
public:
  HandcodedGraph() = default;

  /// Inserts edge (src, dst, weight) unless an edge (src, dst) exists;
  /// returns true if inserted.
  bool insertEdge(int64_t Src, int64_t Dst, int64_t Weight);

  /// Removes edge (src, dst); returns true if it existed.
  bool removeEdge(int64_t Src, int64_t Dst);

  /// All (dst, weight) pairs for \p Src.
  std::vector<std::pair<int64_t, int64_t>> successors(int64_t Src) const;

  /// All (src, weight) pairs for \p Dst.
  std::vector<std::pair<int64_t, int64_t>> predecessors(int64_t Dst) const;

  /// Weight of edge (src, dst) if present.
  bool lookupWeight(int64_t Src, int64_t Dst, int64_t &Weight) const;

  size_t size() const { return Count.load(std::memory_order_relaxed); }

private:
  struct Int64Hash {
    uint64_t operator()(int64_t V) const {
      return mix64(static_cast<uint64_t>(V));
    }
  };
  struct Int64Less {
    bool operator()(int64_t A, int64_t B) const { return A < B; }
  };

  /// A per-node adjacency list: a sorted map guarded by its own lock.
  struct Adjacency {
    mutable std::mutex Mutex;
    TreeMap<int64_t, int64_t, Int64Less> Entries;
  };
  using AdjPtr = std::shared_ptr<Adjacency>;
  using TopLevel = ConcurrentHashMap<int64_t, AdjPtr, Int64Hash>;

  /// The adjacency list for \p Key in \p Map, if any. The top-level
  /// maps are read inside an epoch guard (ConcurrentHashMap's contract);
  /// the returned reference keeps the list alive after it exits.
  static bool find(const TopLevel &Map, int64_t Key, AdjPtr &Out);
  /// Finds or creates the adjacency list for \p Key in \p Map.
  static AdjPtr getOrCreate(TopLevel &Map, int64_t Key);

  TopLevel Forward; ///< src -> (dst -> weight)
  TopLevel Reverse; ///< dst -> (src -> weight)
  std::atomic<size_t> Count{0};
};

} // namespace crs

#endif // CRS_BASELINE_HANDCODEDGRAPH_H
