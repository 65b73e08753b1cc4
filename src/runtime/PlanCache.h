//===- runtime/PlanCache.h - Sharded compiled-plan cache --------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache of compiled plans, keyed by operation signature
/// (op kind, dom(s), output columns). Every relational operation starts
/// with a plan lookup, so this sits on the hot path of *all* traffic;
/// a single mutex-protected map serializes every thread on one cache
/// line (the classic scalability bug of perfbook's lock chapter). Here
/// lookups are wait-free and write nothing *contended*: each shard
/// publishes an immutable snapshot vector through one atomic pointer
/// (acquire load, no CAS, no lock), so warm traffic keeps every line in
/// shared state in every core's cache. The only write a hit performs is
/// one relaxed increment of a cache-line-striped hit counter — a
/// per-stripe private line that never bounces between cores — so the
/// observability layer can report the exact hit/miss ratio instead of
/// deriving it from op counts.
/// Compilation is rare; writers copy the snapshot under a per-shard
/// mutex, count the miss there, and publish the new version. Superseded
/// snapshots are *retired through the epoch domain* (sync/Epoch.h): the
/// unpublishing store is seq_cst, so any reader that could still hold
/// the old snapshot pointer is pinned in an epoch the reclaimer must
/// wait out — reader access stays wait-free without hazard pointers,
/// and memory is bounded by the grace period instead of growing with
/// every replan for the life of the cache. Callers therefore must hold
/// an EpochDomain::Guard across find()/getOrCompile() and every
/// dereference of the returned plan (ConcurrentRelation's operation
/// paths all do).
///
//===----------------------------------------------------------------------===//

#ifndef CRS_RUNTIME_PLANCACHE_H
#define CRS_RUNTIME_PLANCACHE_H

#include "obs/Counter.h"
#include "plan/QueryIR.h"
#include "sync/Epoch.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace crs {

class PlanCache {
public:
  using PlanPtr = std::shared_ptr<const Plan>;

  PlanCache() = default;
  PlanCache(const PlanCache &) = delete;
  PlanCache &operator=(const PlanCache &) = delete;
  /// Frees each shard's live snapshot directly; superseded snapshots
  /// were handed to the epoch domain and reclaim on quiescence.
  /// Destruction requires no concurrent readers, as for any container.
  ~PlanCache() = default;

  /// Wait-free lookup; null if the signature has not been compiled.
  /// Writes nothing contended — the hit count goes to a striped counter
  /// (one relaxed add on a per-stripe private line), and the plan comes
  /// back as a raw pointer rather than a shared_ptr copy, because a
  /// refcount RMW on the plan's control block would be one more shared
  /// cache line bouncing per operation. The pointer is lifetime-safe
  /// only while the caller's epoch guard is held (superseded snapshots
  /// reclaim after a grace period). Misses are counted where the (rare)
  /// compilation happens, so hits() and misses() together give the
  /// exact ratio.
  const Plan *find(PlanOp Op, uint64_t DomBits, uint64_t OutBits) const {
    const Shard &Sh = shardFor(Op, DomBits, OutBits);
    // seq_cst, matching the guard-entry protocol: a reader whose guard
    // entry ordered after a snapshot's seq_cst unpublish must also see
    // the unpublish here, else the epoch argument for why it cannot
    // hold a reclaimable snapshot would not go through formally
    // (acquire only orders against the store it reads from).
    if (const PlanPtr *P = lookupIn(Sh.Snap.load(std::memory_order_seq_cst),
                                    Op, DomBits, OutBits)) {
      Hits.inc();
      return P->get();
    }
    return nullptr;
  }

  /// Lookup, compiling via \p Fn and publishing on a cold signature.
  /// Concurrent racers on the same cold signature serialize only on the
  /// shard mutex, and only until the first publication wins.
  template <typename CompileFn>
  const Plan *getOrCompile(PlanOp Op, uint64_t DomBits, uint64_t OutBits,
                           CompileFn &&Fn) const {
    if (const Plan *P = find(Op, DomBits, OutBits))
      return P;
    Shard &Sh = shardFor(Op, DomBits, OutBits);
    std::lock_guard<std::mutex> Guard(Sh.M);
    // Re-check: another thread may have published while we waited.
    const Snapshot *Snap = Sh.Snap.load(std::memory_order_seq_cst);
    if (const PlanPtr *P = lookupIn(Snap, Op, DomBits, OutBits)) {
      Hits.inc();
      return P->get();
    }
    Sh.Misses.fetch_add(1, std::memory_order_relaxed);
    PlanPtr P = std::make_shared<const Plan>(Fn());
    auto Next = std::make_unique<Snapshot>();
    if (Snap)
      *Next = *Snap; // copies the PlanPtrs: live plans survive supersession
    Next->push_back({{DomBits, OutBits, Op}, P});
    // Publish-then-retire, in that order, with a seq_cst unpublish: the
    // epoch reclamation contract (sync/Epoch.h) requires the superseded
    // snapshot be unreachable-to-new-readers before retire() stamps it.
    const Snapshot *Raw = Next.get();
    std::unique_ptr<Snapshot> Old = std::move(Sh.Current);
    Sh.Current = std::move(Next);
    Sh.Snap.store(Raw, std::memory_order_seq_cst);
    if (Old)
      EpochDomain::global().retireObject(Old.release());
    return P.get(); // owned by the just-published snapshot
  }

  /// Drops every published plan (replanning). Safe against concurrent
  /// wait-free readers: each shard's snapshot is unpublished with a
  /// seq_cst store and retired through the epoch domain — readers still
  /// walking it pin their epoch and hold off reclamation.
  void clear() {
    for (Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Guard(Sh.M);
      Sh.Snap.store(nullptr, std::memory_order_seq_cst);
      if (Sh.Current)
        EpochDomain::global().retireObject(Sh.Current.release());
    }
  }

  /// One compiled signature, as reported by signatures().
  struct Signature {
    PlanOp Op;
    uint64_t Dom; ///< dom(s) column bits
    uint64_t Out; ///< output column bits (queries)

    /// Stable compact label for per-signature metrics and trace
    /// payloads, e.g. "query:d1:o6" (dom/out column bits in hex). The
    /// observability layer keys latency histograms by this, and the
    /// tuner parses nothing — it matches labels string-equal.
    std::string metricLabel() const {
      const char *Name = "?";
      switch (Op) {
      case PlanOp::Query:
        Name = "query";
        break;
      case PlanOp::RemoveLocate:
        Name = "remove_locate";
        break;
      case PlanOp::Remove:
        Name = "remove";
        break;
      case PlanOp::Insert:
        Name = "insert";
        break;
      case PlanOp::QueryForUpdate:
        Name = "query_for_update";
        break;
      case PlanOp::UndoInsert:
        Name = "undo_insert";
        break;
      case PlanOp::UndoRemove:
        Name = "undo_remove";
        break;
      }
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%s:d%llx:o%llx", Name,
                    static_cast<unsigned long long>(Dom),
                    static_cast<unsigned long long>(Out));
      return Buf;
    }
  };

  /// The currently published signatures (cold path: takes each shard's
  /// writer mutex). The online tuner uses this as the set of operation
  /// shapes to score candidate representations against.
  std::vector<Signature> signatures() const {
    std::vector<Signature> Out;
    for (Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Guard(Sh.M);
      if (const Snapshot *Snap = Sh.Snap.load(std::memory_order_acquire))
        for (const auto &E : *Snap)
          Out.push_back({E.first.Op, E.first.Dom, E.first.Out});
    }
    return Out;
  }

  /// Number of lookups that led to a compilation (signature cold, or
  /// re-warmed after clear()). Everything else was a wait-free hit.
  uint64_t misses() const {
    uint64_t N = 0;
    for (const Shard &Sh : Shards)
      N += Sh.Misses.load(std::memory_order_relaxed);
    return N;
  }

  /// Number of lookups served from a published snapshot. Exact (every
  /// hit counts, including the compile path's re-check), monotonic,
  /// relaxed like every striped counter.
  uint64_t hits() const { return Hits.load(); }

private:
  struct SigKey {
    uint64_t Dom;
    uint64_t Out;
    PlanOp Op;
  };
  using Snapshot = std::vector<std::pair<SigKey, PlanPtr>>;

  static constexpr unsigned NumShards = 16;

  struct Shard {
    /// The published snapshot gets a cache line to itself: the hot read
    /// path must only ever load this line (kept in every core's cache
    /// in shared state), never write it.
    alignas(64) std::atomic<const Snapshot *> Snap{nullptr};
    /// Written only under M, on the compile path.
    alignas(64) mutable std::atomic<uint64_t> Misses{0};
    std::mutex M; // writers only
    /// Owns the snapshot Snap points at. Superseded snapshots go to the
    /// epoch domain, which frees them a grace period later.
    std::unique_ptr<Snapshot> Current;
  };

  static const PlanPtr *lookupIn(const Snapshot *Snap, PlanOp Op,
                                 uint64_t Dom, uint64_t Out) {
    if (Snap)
      for (const auto &E : *Snap)
        if (E.first.Op == Op && E.first.Dom == Dom && E.first.Out == Out)
          return &E.second;
    return nullptr;
  }

  static uint64_t mix(PlanOp Op, uint64_t A, uint64_t B) {
    uint64_t H = A * 0x9e3779b97f4a7c15ULL ^ (B + 0xbf58476d1ce4e5b9ULL) ^
                 (uint64_t(Op) << 56);
    H ^= H >> 31;
    H *= 0x94d049bb133111ebULL;
    H ^= H >> 29;
    return H;
  }
  Shard &shardFor(PlanOp Op, uint64_t A, uint64_t B) const {
    return Shards[mix(Op, A, B) % NumShards];
  }

  mutable Shard Shards[NumShards];
  /// Striped so the wait-free hit path touches no shared line.
  mutable obs::Counter Hits;
};

} // namespace crs

#endif // CRS_RUNTIME_PLANCACHE_H
