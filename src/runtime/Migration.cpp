//===- runtime/Migration.cpp - Live representation migration -----------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// ConcurrentRelation::migrateTo and the shadow representation behind
/// it. Correctness argument (see also docs/ARCHITECTURE.md):
///
///  * Both flips run behind the operation gate, so a whole operation —
///    plan resolution included — executes entirely under one regime:
///    source-only, dual-write, or target-only. There are never
///    stragglers holding plans from a previous regime.
///
///  * During dual-write, every committed mutation replays on the shadow
///    while its source exclusive locks are held (MirrorWrite runs
///    inside the growing phase), and every backfill copy re-confirms
///    its tuple in the source and inserts into the shadow while the
///    source's shared locks are held. Conflicting pairs on one key are
///    therefore serialized by the source's two-phase locking, and their
///    shadow effects land in the same serialization order — the shadow
///    can never resurrect a removed tuple or miss a committed insert.
///
///  * Shadow inserts are put-if-absent on the full tuple, so the
///    dual-write and the backfill are idempotent against each other.
///
///  * At the retirement flip the dual-write has converged (one full
///    backfill pass + mirroring of everything since), so the shadow
///    holds exactly the source's tuples; the relation adopts it and
///    bumps the plan epoch, and every prepared handle rebinds.
///
//===----------------------------------------------------------------------===//

#include "runtime/ConcurrentRelation.h"

#include "support/Compiler.h"
#include "sync/Backoff.h"
#include "sync/Epoch.h"
#include "txn/MvccStore.h"

#include <chrono>

using namespace crs;

namespace crs {
namespace detail {

/// The shadow representation of an in-flight migration: the target
/// configuration with its own planner, executor, root instance, and
/// plan cache (mutation plans per dom(s) signature, compiled without
/// mirror epilogues — mirroring never nests). Mutations reach it
/// through the MirrorSink interface from MirrorWrite statements; the
/// backfill walk reaches it through apply(). All executions run on the
/// calling thread's secondary context, since the primary context is
/// mid-operation on the source with its locks held.
class MirrorRep final : public MirrorSink {
public:
  RepresentationConfig Config;
  QueryPlanner Planner;
  PlanExecutor Executor;
  NodeRef Root;
  PlanCache Plans;
  /// The migrating relation's lock counters: the shadow's lock traffic
  /// is the relation's.
  LockCounters *Counters;
  std::atomic<uint64_t> MirroredInserts{0};
  std::atomic<uint64_t> MirroredRemoves{0};

  MirrorRep(RepresentationConfig C, LockCounters *Counters)
      : Config(std::move(C)),
        Planner(*Config.Decomp, *Config.Placement),
        Executor(*Config.Decomp, *Config.Placement),
        Root(Executor.createRoot()), Counters(Counters) {}

  void mirror(PlanOp Op, ColumnSet DomS, const Tuple &Input) override {
    (Op == PlanOp::Insert ? MirroredInserts : MirroredRemoves)
        .fetch_add(1, std::memory_order_relaxed);
    apply(Op, DomS, Input);
  }

  /// Runs one mutation on the shadow; returns whether it changed it
  /// (an insert losing its put-if-absent, or a remove matching
  /// nothing, is a benign no-op — the other writer already converged
  /// this key). Never adjusts the relation's logical count: the source
  /// plan's UpdateCount is authoritative until retirement, after which
  /// the count carries over unchanged.
  bool apply(PlanOp Op, ColumnSet DomS, const Tuple &Input) {
    // The shadow's own cache also retires superseded snapshots through
    // the epoch domain, and mirror threads race each other here.
    EpochDomain::Guard EG;
    const Plan *P = Plans.getOrCompile(Op, DomS.bits(), 0, [&] {
      // The planner is never swapped (no adaptPlans on a shadow) and
      // its plan* methods are const and stateless, so concurrent
      // compiles need no planner mutex — the cache serializes
      // publication per shard.
      return Planner.plan(Op, DomS, ColumnSet());
    });
    ExecContext &Ctx = ExecContext::mirrorCtx();
    ExecContext::OpScope S(Ctx); // asserts against recursive shadow runs
    // Target-representation executions run above every source domain in
    // the cross-set lock order (source locks before target locks).
    Ctx.Locks.setOrderDomain(1, 0);
    Ctx.Locks.countInto(Counters);
    Ctx.Count = nullptr;
    ExecStatus St = Executor.run(*P, Input, Root.get(), Ctx);
    assert(St != ExecStatus::Restart && "mutation plans never speculate");
    if (Op == PlanOp::Insert)
      return St == ExecStatus::Ok;
    return Ctx.numStates(P->ResultVar) != 0;
  }
};

} // namespace detail
} // namespace crs

// Out of line: the header cannot destroy the (forward-declared) shadow
// migration state. Detach the observability wiring first — its registry
// callbacks capture `this` and must not survive the relation.
ConcurrentRelation::~ConcurrentRelation() { detachMetrics(); }

RelationStatistics ConcurrentRelation::sampleStatistics() const {
  OpGate::Barrier B(Gate); // drain in-flight operations, hold new ones
  return collectStatistics();
}

MigrationResult ConcurrentRelation::migrateTo(RepresentationConfig Target,
                                              MigrationObserver *Obs) {
  MigrationResult Res;
  auto Reject = [&Res](std::string Why) {
    Res.Ok = false;
    Res.Error = std::move(Why);
    return Res;
  };

  // Serialize whole migrations, validation included: the checks below
  // read the *current* configuration (spec()), which a concurrent
  // migration's retirement flip reassigns.
  std::lock_guard<std::mutex> MigrationGuard(MigrationM);

  // Up-front legality: an illegal target must be rejected before the
  // relation is touched — the dual-write phase never starts. These are
  // the same checks the ConcurrentRelation constructor asserts, plus
  // specification equality (a migration re-represents the *same*
  // relation; it cannot change its columns or dependencies).
  if (!Target.Spec || !Target.Decomp || !Target.Placement)
    return Reject("illegal target: empty representation config");
  if (Target.Spec->str() != spec().str())
    return Reject("illegal target: specification differs from the "
                  "relation's");
  if (ValidationResult V = Target.Decomp->validate(); !V.ok())
    return Reject("illegal target: inadequate decomposition: " + V.str());
  if (ValidationResult V = Target.Placement->validate(); !V.ok())
    return Reject("illegal target: ill-formed placement: " + V.str());
  if (ValidationResult V = Target.Placement->validateContainerSafety();
      !V.ok())
    return Reject("illegal target: unsafe containers: " + V.str());

  auto Shadow = std::make_unique<detail::MirrorRep>(std::move(Target),
                                                   &LockCounts);
  detail::MirrorRep *Rep = Shadow.get(); // concrete view; owned below

  // ---- Flip 1: enter dual-write. Behind the barrier no *gated*
  // operation is in flight, so installing the sink, switching the
  // planner to emit MirrorWrite epilogues, bumping the epoch, and
  // clearing the cache is atomic with respect to all mutation traffic.
  // Wait-free readers are deliberately NOT drained: query plans carry
  // no mirror epilogues under either regime, so a fast reader racing
  // this flip executes a plan that is correct before and after it. The
  // bump precedes the clear for the epoch-reclamation reason spelled
  // out in adaptPlans(); the benign consequence — a racing fast reader
  // re-binding a not-yet-cleared query plan at the new epoch — is
  // harmless here for the same no-epilogue reason.
  {
    OpGate::Barrier B(Gate);
    {
      std::lock_guard<std::mutex> Guard(PlannerMutex);
      Planner.setEmitMirrorWrites(true);
    }
    LiveMigration = std::move(Shadow);
    ActiveMirror.store(Rep, std::memory_order_release);
    retirePlans();
    Phase.store(MigrationPhase::DualWrite, std::memory_order_release);
  }
  // Trace the phase transition (outside the barrier: the ring write is
  // lock-free but there is no reason to hold traffic for it). `Obs`
  // here is the observer parameter; the wiring comes via the accessor.
  if (const detail::RelationObs *OS = observability())
    OS->MigrationRing->emit(obs::EventKind::MigrationDualWrite,
                            planEpoch(), size());
  // Unwind safety for everything between the flips: a throwing
  // observer callback or an allocation failure in the backfill must
  // not strand the relation in dual-write with an orphaned shadow.
  // The rollback mirrors flip 2 without adopting anything: back to the
  // source-only regime, shadow retired, epoch bumped so handles shed
  // their mirroring plans. Writes already mirrored are simply
  // discarded with the shadow — the source stayed authoritative
  // throughout.
  struct DualWriteAbort {
    ConcurrentRelation &R;
    bool Armed = true;
    explicit DualWriteAbort(ConcurrentRelation &R) : R(R) {}
    ~DualWriteAbort() {
      if (!Armed)
        return;
      OpGate::Barrier B(R.Gate);
      {
        std::lock_guard<std::mutex> Guard(R.PlannerMutex);
        R.Planner.setEmitMirrorWrites(false);
      }
      R.ActiveMirror.store(nullptr, std::memory_order_release);
      // The abandoned shadow goes to the epoch domain: retired plan
      // snapshots of the *source* cache may still be walked by readers,
      // but nothing points into the shadow once the barrier drains —
      // it reclaims with the grace period like any other retiree.
      EpochDomain::global().retireObject(
          static_cast<detail::MirrorRep *>(R.LiveMigration.release()));
      R.retirePlans();
      R.Phase.store(MigrationPhase::Idle, std::memory_order_release);
    }
  } Abort(*this);

  auto DualWriteStart = std::chrono::steady_clock::now();
  if (Obs)
    Obs->onDualWriteStart();

  // ---- Backfill: copy a point-in-time snapshot. Tuples inserted
  // after the snapshot arrive via mirroring; tuples removed before
  // their copy fail the re-confirmation below and are skipped.
  std::vector<Tuple> Snapshot = scanAll();
  ColumnSet All = spec().allColumns();
  {
    // The guard pins the Member plan for the whole pass: an observer
    // callback may call adaptPlans() mid-backfill, whose clear()
    // retires the snapshot that owns it. Scoped so it is released
    // before the retirement flip below — flip 2 synchronizes the epoch
    // domain, and this thread must not be pinning an epoch then.
    EpochDomain::Guard EG;
    // Full-tuple membership plan: re-confirms a snapshot tuple under
    // the source's shared locks, which the copy then holds through the
    // shadow insert — a concurrent remove of the same tuple serializes
    // either before the re-confirmation (copy skipped) or after the
    // shadow insert (its mirror erases the copy). Readers never block
    // on the backfill: it takes no exclusive source locks.
    const Plan *Member = resolvePlan(PlanOp::Query, All, All);
    ExecContext &Ctx = ExecContext::current();
    Ctx.Locks.setOrderDomain(0, LockDomain);
    Ctx.Locks.countInto(&LockCounts);
    uint64_t Processed = 0;
    for (const Tuple &T : Snapshot) {
      for (Backoff B(WaitSite::BackfillRestart);;) {
        ExecContext::OpScope S(Ctx); // asserts: no backfill inside an op
        if (Executor.run(*Member, T, Root.get(), Ctx) == ExecStatus::Ok) {
          if (Ctx.numStates(Member->ResultVar) != 0 &&
              Rep->apply(PlanOp::Insert, All, T))
            ++Res.Backfilled;
          break;
        }
        // Speculative membership check lost its guess: restart it.
        Restarts.inc();
        B.pause();
      }
      ++Processed;
      if (Obs)
        Obs->onBackfillProgress(Processed, Snapshot.size());
    }
  }

  // ---- Converged: one full pass plus mirroring of everything since
  // the dual-write flip. Retire the source.
  if (Obs)
    Obs->onBeforeSwap();
  Res.DualWriteSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    DualWriteStart)
          .count();

  // ---- Flip 2: adopt the shadow. Unlike flip 1 this swaps the
  // representation the wait-free readers walk, so they must be drained
  // too, in three steps: (1) clear the fast-reads flag — every reader
  // from here on sees it inside its guard and falls back to the gated
  // path; (2) the barrier drains the gated operations; (3)
  // synchronize() waits out every reader that entered its guard while
  // the flag was still set. After (3) nothing is walking the source
  // tree or holding a source plan mid-execution, so the swap below is
  // exclusive. The superseded configuration and the shadow object are
  // retired through the epoch domain, not freed: retired plan-cache
  // snapshots hold raw pointers into the old decomposition/placement,
  // and the shadow's planner points into config copies it keeps
  // internally. The old root instance tree, however, is dropped right
  // here — once the readers are drained nothing references it.
  Abort.Armed = false; // committed: the retirement flip takes over
  bool FastWas = FastReads.exchange(false, std::memory_order_seq_cst);
  {
    OpGate::Barrier B(Gate);
    EpochDomain::global().synchronize();
    // The whole old config retires as one object, so the old decomp's
    // internal reference to the old spec stays valid until they free
    // together. spec() identity is unaffected: the relation pins its
    // construction-time spec separately (StableSpec).
    EpochDomain::global().retireObject(
        new RepresentationConfig(std::move(Config)));
    Config = Rep->Config; // shared ownership; the shadow keeps its copy
    {
      std::lock_guard<std::mutex> Guard(PlannerMutex);
      Planner = QueryPlanner(*Config.Decomp, *Config.Placement,
                             BaseCostParams);
    }
    Executor = PlanExecutor(*Config.Decomp, *Config.Placement);
    Root = Rep->Root;
    FastRoot.store(Root.get(), std::memory_order_seq_cst);
    ActiveMirror.store(nullptr, std::memory_order_release);
    Res.MirroredInserts = Rep->MirroredInserts.load(std::memory_order_relaxed);
    Res.MirroredRemoves = Rep->MirroredRemoves.load(std::memory_order_relaxed);
    EpochDomain::global().retireObject(
        static_cast<detail::MirrorRep *>(LiveMigration.release()));
    retirePlans();
    Phase.store(MigrationPhase::Idle, std::memory_order_release);
  }
  // Re-enable the fast path (unless the user had it off) only after
  // the new regime is fully published.
  FastReads.store(FastWas, std::memory_order_seq_cst);
  Res.Ok = true;
  if (const detail::RelationObs *OS = observability()) {
    OS->MigrationRing->emit(obs::EventKind::MigrationSwap, planEpoch(),
                            Res.MirroredInserts, Res.MirroredRemoves);
    OS->MigrationRing->emit(
        obs::EventKind::MigrationRetired, Res.Backfilled,
        uint64_t(Res.DualWriteSeconds * 1e6));
  }
  return Res;
}
