//===- sync/Epoch.h - Epoch-based deferred reclamation ----------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-based reclamation (McKenney's "deferred processing": RCU-style
/// grace periods over per-thread participation slots). The runtime keeps
/// several retire-not-free disciplines alive — the plan cache's retired
/// snapshots, a migration's retired configurations and shadow mirrors —
/// and the wait-free read path adds readers that hold raw pointers with
/// no locks at all. This subsystem generalizes all of them:
///
///  * A domain carries a global epoch counter and a set of cache-line
///    padded per-thread slots. A thread *pins* the current epoch for the
///    duration of a `Guard` (RAII, nestable); between guards the slot is
///    quiescent.
///  * `retire(Obj, Del)` queues an object for deletion, stamped with the
///    current epoch. The deleter runs once a *grace period* has elapsed:
///    the global epoch has advanced twice past the stamp, which requires
///    every guard active at retire time to have exited.
///  * `tryAdvance()` is the bounded, non-blocking collector step: scan
///    the slots, advance the epoch if every active slot has caught up,
///    free what became safe. `synchronize()` loops it until two advances
///    have completed — the blocking grace-period wait of a migration's
///    drain barrier.
///
/// Safety contract (callers!): an object must be *unpublished* — made
/// unreachable from shared state by a `memory_order_seq_cst` store —
/// before `retire` is called, and readers must locate retirable objects
/// only through loads performed inside a guard. Guard entry executes a
/// seq_cst slot store and re-validation load, so any reader whose guard
/// began after the unpublish store (in the single total order of seq_cst
/// operations) observes the unpublish and cannot reach the object, while
/// any earlier reader still pins an epoch the two required advances must
/// wait out. Readers that can still *name* a retired object (a prepared
/// handle's cached plan pointer) must gate the dereference on a seq_cst
/// epoch/version check under the same discipline.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_SYNC_EPOCH_H
#define CRS_SYNC_EPOCH_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace crs {

namespace obs {
class MetricsRegistry;
class TraceRing;
} // namespace obs

/// One reclamation domain: a global epoch, participant slots, and the
/// pending retire queue. The process-wide runtime shares `global()`;
/// tests may instantiate private domains.
class EpochDomain {
  struct Slot;

public:
  EpochDomain();
  ~EpochDomain();
  EpochDomain(const EpochDomain &) = delete;
  EpochDomain &operator=(const EpochDomain &) = delete;

  /// The process-wide domain used by the runtime (never destroyed).
  static EpochDomain &global();

  /// RAII epoch pin. Cheap: one seq_cst store and two loads on entry,
  /// one store on exit, all on a cache-line-private slot — no shared
  /// line is written. Guards nest freely on one thread; only the
  /// outermost pays the slot protocol.
  class Guard {
  public:
    Guard() : Guard(EpochDomain::global()) {}
    explicit Guard(EpochDomain &D) : Dom(&D) { D.enter(); }
    ~Guard() { Dom->exit(); }
    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;

  private:
    EpochDomain *Dom;
  };

  /// Queues \p Obj for deletion by \p Del after a grace period. The
  /// caller must already have unpublished the object (see file comment).
  /// Amortizes collection: a growing backlog triggers tryAdvance.
  void retire(void *Obj, void (*Del)(void *));

  /// Type-safe convenience: retire an owned heap object.
  template <typename T> void retireObject(T *Obj) {
    retire(Obj, [](void *P) { delete static_cast<T *>(P); });
  }

  /// One bounded collector step: if every active slot has entered the
  /// current epoch, advance it and free every retiree whose grace
  /// period completed. Returns false when a straggling guard (or a
  /// racing advance) prevents progress. Never blocks.
  bool tryAdvance();

  /// Blocks (sync/Backoff.h) until every guard active at the call has
  /// exited: two full epoch advances. Must not be called from inside a
  /// guard on this domain (asserted) — it could never complete.
  void synchronize();

  /// Current epoch (monotone; starts at 1).
  uint64_t epoch() const { return GlobalE.load(std::memory_order_seq_cst); }

  /// True if the calling thread currently holds a guard on this domain.
  bool inGuard() const;

  // -- Introspection (tests, stats) --------------------------------------
  size_t pendingRetires() const;
  uint64_t reclaimed() const {
    return Reclaimed.load(std::memory_order_relaxed);
  }

  // -- Observability (src/obs) -------------------------------------------
  /// Registers epoch.current / epoch.pending_retires (gauges) and
  /// epoch.reclaimed (counter) with \p R, and points EpochAdvance trace
  /// events at the registry's Epoch-domain ring. Detach (or destroy the
  /// domain) before destroying the registry.
  void attachMetrics(obs::MetricsRegistry &R);
  void detachMetrics();

private:
  static constexpr size_t SlotsPerBlock = 64;
  static constexpr size_t AdvanceBacklog = 64;

  struct alignas(64) Slot {
    /// 0 = quiescent, otherwise the pinned epoch.
    std::atomic<uint64_t> E{0};
    std::atomic<bool> InUse{false};
  };
  struct SlotBlock {
    Slot S[SlotsPerBlock];
    std::atomic<SlotBlock *> Next{nullptr};
  };

  struct Retiree {
    void *Obj;
    void (*Del)(void *);
    uint64_t Epoch;
  };

  void enter();
  void exit();
  Slot *acquireSlot();
  size_t reclaim(uint64_t Now); ///< returns objects freed

  std::atomic<uint64_t> GlobalE{1};
  SlotBlock Head; ///< first slot block, inline; growth appends blocks
  std::mutex GrowM;

  mutable std::mutex RetireM;
  std::vector<Retiree> Retired; ///< guarded by RetireM
  std::atomic<uint64_t> Reclaimed{0};

  /// Observability wiring (attachMetrics). Trace is read lock-free on
  /// the successful-advance path; the callback ids (raw
  /// MetricsRegistry::CallbackId values, kept as uint64_t so this
  /// header needs only forward declarations) are attach/detach-only.
  std::atomic<obs::TraceRing *> Trace{nullptr};
  obs::MetricsRegistry *MetricsReg = nullptr;
  std::vector<uint64_t> MetricsCallbacks;

  /// Tombstone for thread-local slot caches: a cache entry outliving the
  /// domain (a test-scoped domain destroyed before thread exit) detects
  /// it through this token and skips the release.
  std::shared_ptr<char> AliveToken = std::make_shared<char>(0);

  friend struct EpochThreadCache;
};

} // namespace crs

#endif // CRS_SYNC_EPOCH_H
