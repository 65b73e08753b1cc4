//===- runtime/Migration.h - Live representation migration ------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Online representation migration: hot-swapping a live relation's
/// decomposition, lock placement, and containers under traffic. The
/// paper's autotuner (§6) picks a representation offline; here the
/// winner can be adopted without stopping readers, through three
/// phases driven by ConcurrentRelation::migrateTo:
///
///  1. **Dual-write flip.** Behind a brief operation barrier, a shadow
///     representation is installed and the planner starts appending a
///     MirrorWrite epilogue to every mutation plan; the plan cache is
///     cleared and the recompilation epoch bumped, so every prepared
///     handle transparently rebinds onto mirroring plans. From here on
///     each committed mutation is replayed on the shadow while the
///     source's exclusive locks are still held.
///
///  2. **Backfill.** A point-in-time snapshot of the source is walked
///     tuple by tuple; each tuple is re-confirmed in the source under
///     its shared query locks and, while those locks are held, copied
///     into the shadow with a put-if-absent insert (idempotent against
///     the dual-write having raced it there first). Tuples inserted
///     after the snapshot arrive via mirroring; tuples removed before
///     their copy simply fail the re-confirmation. Readers are never
///     blocked (the re-confirmation takes shared locks).
///
///  3. **Retirement flip.** Behind a second barrier the relation adopts
///     the shadow's configuration, planner, executor, and root; the
///     cache is cleared and the epoch bumped again, so every handle
///     rebinds onto plans compiled for the new decomposition. The old
///     representation is retired, not freed: superseded plan snapshots
///     keep raw pointers into it (the PlanCache discipline).
///
/// Deadlock freedom across the pair of representations: every thread
/// that touches both acquires source locks strictly before target
/// locks (mirror epilogues and backfill copies both run with source
/// locks held), and no thread ever takes a source lock while holding a
/// target lock, so the combined waits-for graph stays acyclic.
///
/// The only stalls are the two barriers, each bounded by the drain of
/// in-flight operations — the "one epoch" pause of RCU-style
/// reader/writer transitions (cf. McKenney's deferred-processing
/// playbook).
///
//===----------------------------------------------------------------------===//

#ifndef CRS_RUNTIME_MIGRATION_H
#define CRS_RUNTIME_MIGRATION_H

#include "sync/Backoff.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace crs {

namespace detail {
class MirrorRep;
}

/// The relation's operation gate: every relational operation holds it
/// (shared) from before plan resolution until after execution, so a
/// migration flip can briefly close it, drain the in-flight
/// operations, and switch plans + representation atomically with
/// respect to *all* traffic — no operation can resolve a plan under
/// one regime and execute it under the next. The hot path is one
/// fetch_add on entry and one fetch_sub on exit of a single shared
/// word — on a multicore that is a cache line every operating thread
/// writes twice per operation, a deliberate price next to each
/// operation's lock and container work for flips that are atomic
/// w.r.t. whole operations. If this line ever shows up in profiles,
/// the upgrade path is a per-thread (sharded) ingress count with the
/// same close/drain protocol, RCU style.
class OpGate {
public:
  /// Shared entry; waits (sync/Backoff.h) only while a flip holds the
  /// gate closed. Must not be re-entered by a thread already inside (a
  /// nested operation would deadlock against a concurrent flip; the
  /// executor's Busy assert catches this in debug builds first).
  void enter() { tryEnter(Unbounded); }
  void exit() { Word.fetch_sub(1, std::memory_order_release); }

  /// Shared entry that gives up after \p MaxPauses backoff pauses on a
  /// closed gate (Unbounded: never). Used by a cross-shard transaction
  /// joining an additional shard mid-scope — blocking there while
  /// holding other shards' gates and locks could tie a cycle through a
  /// concurrent flip's drain, so the join waits boundedly and the
  /// transaction dies (aborts and retries) instead.
  bool tryEnter(unsigned MaxPauses) {
    if (enterOnce())
      return true;
    // A flip is in progress: wait for the gate to reopen (bounded by
    // the flip's drain + swap), registered as a waiter so the next
    // closer lets this thread in first (see Barrier).
    Waiters.fetch_add(1, std::memory_order_relaxed);
    Backoff B(WaitSite::GateEnter);
    bool Entered;
    for (unsigned Paused = 0; !(Entered = enterOnce()); B.pause())
      if (MaxPauses != Unbounded && Paused++ == MaxPauses)
        break;
    Waiters.fetch_sub(1, std::memory_order_relaxed);
    return Entered;
  }
  static constexpr unsigned Unbounded = 0;

  /// RAII shared entry for one relational operation.
  class Scope {
  public:
    explicit Scope(OpGate &G) : G(G) { G.enter(); }
    ~Scope() { G.exit(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    OpGate &G;
  };

  /// RAII exclusive closure for a migration flip (or a quiesced
  /// statistics sample): construction closes the gate and returns once
  /// every in-flight operation has drained; destruction reopens it.
  /// Closers serialize among themselves. The constructing thread must
  /// not be inside the gate.
  class Barrier {
  public:
    explicit Barrier(OpGate &G) : G(G), Excl(G.CloserM) {
      // Entrants that waited out the previous closure go first: a
      // closer in a loop would otherwise starve backed-off waiters.
      Backoff B(WaitSite::GateDrain);
      while (G.Waiters.load(std::memory_order_relaxed) != 0)
        B.pause();
      G.Word.fetch_or(ClosedBit, std::memory_order_acquire);
      // Entrants that bumped the count after the close observe the bit
      // and back out, so the count monotonically drains to zero.
      while (G.Word.load(std::memory_order_acquire) & ~ClosedBit)
        B.pause();
    }
    ~Barrier() { G.Word.fetch_and(~ClosedBit, std::memory_order_release); }
    Barrier(const Barrier &) = delete;
    Barrier &operator=(const Barrier &) = delete;

  private:
    OpGate &G;
    std::lock_guard<std::mutex> Excl;
  };

private:
  static constexpr uint64_t ClosedBit = uint64_t(1) << 63;

  /// One optimistic entry, undone if the gate is closed.
  bool enterOnce() {
    if ((Word.fetch_add(1, std::memory_order_acquire) & ClosedBit) == 0)
      return true;
    Word.fetch_sub(1, std::memory_order_release);
    return false;
  }

  /// Low 63 bits: in-flight operation count; top bit: gate closed.
  std::atomic<uint64_t> Word{0};
  /// Threads inside tryEnter's wait (a fairness hint for closers).
  std::atomic<uint32_t> Waiters{0};
  std::mutex CloserM;
};

/// Externally visible migration state of a relation.
enum class MigrationPhase : uint8_t {
  Idle,      ///< no migration in flight
  DualWrite, ///< mutations mirror to a shadow; backfill may be walking
};

/// Outcome of ConcurrentRelation::migrateTo. An illegal target is
/// rejected up front (Ok = false, Error says why) with the relation
/// untouched — no dual-write phase ever starts.
struct MigrationResult {
  bool Ok = false;
  std::string Error;            ///< set when !Ok
  uint64_t Backfilled = 0;      ///< tuples copied by the backfill walk
  uint64_t MirroredInserts = 0; ///< dual-write insert replays
  uint64_t MirroredRemoves = 0; ///< dual-write remove replays
  double DualWriteSeconds = 0;  ///< wall time between the two flips
};

/// Hooks into a migration's phases, for tests, progress reporting, and
/// the online tuner's logging. All callbacks run on the migrating
/// thread with the operation gate open, so they may execute relation
/// operations (including prepared handles). adaptPlans() is also
/// allowed, but only under its usual quiescence requirement — the
/// statistics walk must not race with concurrent mutators, so not
/// while worker threads are live (ConcurrentRelation::adaptPlans).
/// A callback that throws aborts the migration: the exception
/// propagates out of migrateTo and the relation rolls back to the
/// source-only regime.
class MigrationObserver {
public:
  virtual ~MigrationObserver() = default;
  /// The dual-write flip committed: mutation plans now carry a
  /// MirrorWrite epilogue and the plan epoch has been bumped.
  virtual void onDualWriteStart() {}
  /// After each backfill copy attempt (\p Copied of \p Total snapshot
  /// tuples processed so far; skipped tuples — removed since the
  /// snapshot — count as processed).
  virtual void onBackfillProgress(uint64_t Copied, uint64_t Total) {
    (void)Copied;
    (void)Total;
  }
  /// Backfill converged; the retirement flip is next.
  virtual void onBeforeSwap() {}
};

} // namespace crs

#endif // CRS_RUNTIME_MIGRATION_H
