//===- runtime/ConcurrentRelation.cpp - The public relation API ---------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// Operation protocols (docs/ARCHITECTURE.md, "The life of an operation",
/// has the full argument):
///
/// * query: compiled by the query planner (§5); executed with shared
///   locks; speculative statements may request a transaction restart.
///
/// * remove: one plan — the locate traversal walking every edge under
///   exclusive locks (§5.2) followed by EraseEdge statements removing
///   the matched tuple's entries bottom-up with cascading husk
///   (empty-instance) cleanup, and the count adjustment.
///
/// * insert: one plan — a topological Probe/Lock schedule resolving
///   existing instances with the full tuple and acquiring every needed
///   stripe exclusively in global lock order (including the §4.5
///   present-target duty of speculative edges), the s-driven
///   put-if-absent membership check behind a Restrict/GuardAbsent pair
///   (§2), and a CreateNode/InsertEdge write phase unifying shared
///   nodes.
///
/// All three execute through the same PlanExecutor on planner-emitted,
/// validity-checked IR, using a reusable per-thread ExecContext; plans
/// come from a sharded wait-free-read cache. The legacy Tuple-based
/// methods and the prepared handles (runtime/PreparedOp.h) are both
/// thin wrappers over the shared run*Plan paths below — the prepared
/// path just arrives with its plan pre-resolved and its input rebound
/// in the thread's scratch tuple.
///
//===----------------------------------------------------------------------===//

#include "runtime/ConcurrentRelation.h"

#include "support/Compiler.h"
#include "sync/Backoff.h"
#include "sync/CommitClock.h"
#include "txn/MvccStore.h"
#include "wal/Wal.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

using namespace crs;

ConcurrentRelation::ConcurrentRelation(RepresentationConfig Cfg,
                                       CostParams CP)
    : Config(std::move(Cfg)), StableSpec(Config.Spec), BaseCostParams(CP),
      Planner(*Config.Decomp, *Config.Placement, CP),
      Executor(*Config.Decomp, *Config.Placement) {
  [[maybe_unused]] ValidationResult DecompOk = Config.Decomp->validate();
  assert(DecompOk.ok() && "decomposition must be adequate");
  [[maybe_unused]] ValidationResult PlaceOk = Config.Placement->validate();
  assert(PlaceOk.ok() && "lock placement must be well-formed");
  [[maybe_unused]] ValidationResult SafeOk =
      Config.Placement->validateContainerSafety();
  assert(SafeOk.ok() && "container choices must match the placement");

  Root = Executor.createRoot();
  FastRoot.store(Root.get(), std::memory_order_seq_cst);
  Mvcc = std::make_unique<MvccStore>(spec(), Config.ExpectedCardinality);
}

// Per-operation lock/frame lifetime is ExecContext::OpScope
// (runtime/Interpreter.h), shared with the migration engine's mirror
// and backfill executions.
using OpScope = ExecContext::OpScope;

// The compile lambda stamps the plan with the recompilation epoch
// observed under PlannerMutex: adaptPlans() swaps the planner while
// holding the same mutex and bumps the epoch only afterwards, so a plan
// stamped with the new epoch was necessarily produced by the new planner.
const Plan *ConcurrentRelation::resolvePlan(PlanOp Op, ColumnSet DomS,
                                            ColumnSet C) const {
  assert(Op != PlanOp::RemoveLocate && "unpreparable operation");
  bool Read = Op == PlanOp::Query || Op == PlanOp::QueryForUpdate;
  if (!Read)
    C = ColumnSet();
  if (Op == PlanOp::UndoInsert || Op == PlanOp::UndoRemove)
    DomS = spec().allColumns();
  return Plans.getOrCompile(Op, DomS.bits(), C.bits(), [&] {
    std::lock_guard<std::mutex> Guard(PlannerMutex);
    Plan P = Planner.plan(Op, DomS, C);
    P.Epoch = PlanEpoch.load(std::memory_order_relaxed);
    // A compiled read signature is the declaration that the relation
    // serves this access path: give the version store the same one, so
    // snapshot reads binding DomS walk a secondary chain directory
    // instead of the whole store. Cold path — once per signature.
    if (Read)
      Mvcc->ensureDirectory(DomS);
    return P;
  });
}

void ConcurrentRelation::retirePlans() {
  std::lock_guard<std::mutex> G(RetirePlansM);
  uint64_t E = PlanEpoch.fetch_add(1, std::memory_order_seq_cst) + 1;
  Plans.clear();
  PlansClearedAt.store(E, std::memory_order_seq_cst);
}

// Explain paths hold an epoch guard across resolve + render: plan
// snapshots reclaim on quiescence, so any dereference of a cached plan
// must pin the epoch (the same rule as the execution paths).
std::string ConcurrentRelation::explainQuery(ColumnSet DomS,
                                             ColumnSet C) const {
  EpochDomain::Guard EG;
  return resolvePlan(PlanOp::Query, DomS, C)->str();
}

std::string ConcurrentRelation::explainRemove(ColumnSet DomS) const {
  EpochDomain::Guard EG;
  return resolvePlan(PlanOp::Remove, DomS)->str();
}

std::string ConcurrentRelation::explainInsert(ColumnSet DomS) const {
  EpochDomain::Guard EG;
  return resolvePlan(PlanOp::Insert, DomS)->str();
}

std::string ConcurrentRelation::explainTxn(PlanOp Op, ColumnSet DomS) const {
  assert((Op == PlanOp::Insert || Op == PlanOp::Remove) &&
         "explainTxn takes a mutation kind");
  EpochDomain::Guard EG;
  const Plan *Forward = resolvePlan(Op, DomS);
  const Plan *Inverse = resolvePlan(
      Op == PlanOp::Insert ? PlanOp::UndoInsert : PlanOp::UndoRemove, DomS);
  return crs::explainTxn(*Forward, *Inverse);
}

uint32_t
ConcurrentRelation::runQueryPlan(const Plan &P, const Tuple &Input,
                                 function_ref<void(const Tuple &)> Visit) const {
  assert(EpochDomain::global().inGuard() &&
         "plan execution requires an epoch guard (snapshots reclaim)");
  NumQueries.inc();
  ExecContext &Ctx = ExecContext::current();
  Ctx.Locks.setOrderDomain(0, LockDomain);
  Ctx.Locks.countInto(&LockCounts);
  Backoff B(WaitSite::QueryRestart);
  for (;;) {
    OpScope Scope(Ctx);
    if (Executor.run(P, Input, Root.get(), Ctx) == ExecStatus::Ok) {
      // Shrinking phase: release while the context still pins the read
      // instances, then stream the result states — the tuples are arena
      // copies, so visiting after the unlock keeps hold times short and
      // lets callers aggregate without a result vector.
      Ctx.Locks.releaseAll();
      uint32_t N = Ctx.numStates(P.ResultVar);
      for (uint32_t I = 0; I < N; ++I)
        Visit(Ctx.stateTuple(P.ResultVar, I));
      return N; // Scope recycles the frames
    }
    // Speculation failed (wrong guess or out-of-order conflict): release
    // everything (OpScope) and retry.
    Scope.finish();
    Restarts.inc();
    B.pause();
  }
}

unsigned ConcurrentRelation::runRemovePlan(const Plan &P, const Tuple &S) {
  assert(EpochDomain::global().inGuard() &&
         "plan execution requires an epoch guard (snapshots reclaim)");
  NumRemoves.inc();
  ExecContext &Ctx = ExecContext::current();
  Ctx.Locks.setOrderDomain(0, LockDomain);
  Ctx.Locks.countInto(&LockCounts);
  Ctx.Count = &Count;
  // Dual-write: plans compiled during a migration carry a MirrorWrite
  // epilogue that replays the committed mutation into this sink.
  Ctx.Mirror = ActiveMirror.load(std::memory_order_acquire);
  OpScope Scope(Ctx);
  [[maybe_unused]] ExecStatus St = Executor.run(P, S, Root.get(), Ctx);
  assert(St == ExecStatus::Ok && "mutation plans never speculate");
  uint32_t Matched = Ctx.numStates(P.ResultVar);
  assert(Matched <= 1 && "key-matched remove found multiple tuples");
  // Commit stamping before any lock is released: the scope still holds
  // every lock the plan took, so the MVCC version install and the WAL
  // partition's append order both follow the serialization order
  // (wal/Wal.h ordering contract). The beginCommit/endCommit window
  // keeps concurrent snapshot acquisition below this sequence until
  // the version is in the store. Transactional executions never reach
  // this path — they run the executor directly and commit per scope.
  if (Matched) {
    Tuple Full =
        Ctx.stateTuple(P.ResultVar, 0).project(spec().allColumns());
    CommitTicket T = beginCommit();
    Mvcc->installRemove(Full, T.Seq);
    if (WriteAheadLog *W = Wal.load(std::memory_order_acquire))
      W->logCommit(WalPartition, T.Seq, WalShard, WalOp::Remove, Full);
    endCommit(T);
  }
  // Shrinking phase (OpScope): release while the context still pins the
  // unlinked instances — their physical locks must outlive the unlock.
  return Matched;
}

bool ConcurrentRelation::runInsertPlan(const Plan &P, const Tuple &Full) {
  assert(EpochDomain::global().inGuard() &&
         "plan execution requires an epoch guard (snapshots reclaim)");
  NumInserts.inc();
  ExecContext &Ctx = ExecContext::current();
  Ctx.Locks.setOrderDomain(0, LockDomain);
  Ctx.Locks.countInto(&LockCounts);
  Ctx.Count = &Count;
  Ctx.Mirror = ActiveMirror.load(std::memory_order_acquire);
  OpScope Scope(Ctx);
  ExecStatus St = Executor.run(P, Full, Root.get(), Ctx);
  // Insert plans never speculate (the §4.5 writer protocol takes
  // blocking, in-order locks), so like remove there is no retry loop.
  assert(St != ExecStatus::Restart && "mutation plans never speculate");
  // Commit stamping under the plan's locks (see runRemovePlan); only a
  // winning put-if-absent mutated anything worth a version or record.
  if (St == ExecStatus::Ok) {
    CommitTicket T = beginCommit();
    Mvcc->installInsert(Full, T.Seq);
    if (WriteAheadLog *W = Wal.load(std::memory_order_acquire))
      W->logCommit(WalPartition, T.Seq, WalShard, WalOp::Insert, Full);
    endCommit(T);
  }
  return St == ExecStatus::Ok; // Found: a tuple matching s exists
}

bool ConcurrentRelation::tryFastQuery(
    function_ref<const Plan *()> Resolve, const Tuple &Input,
    function_ref<void(const Tuple &)> Visit, uint32_t *Matches) const {
  EpochDomain::Guard EG;
  // Flag check *inside* the guard: the retirement flip clears the flag
  // (seq_cst) and then synchronizes the epoch, so either this load sees
  // the clear (fall back to the locked path) or the flip's synchronize
  // waits for this guard to exit before touching the representation.
  if (!FastReads.load(std::memory_order_seq_cst))
    return false;
  const Plan *P = Resolve();
  if (!P->EpochEligible)
    return false;
  uint32_t N = runFastQueryPlan(*P, Input, Visit);
  if (Matches)
    *Matches = N;
  return true;
}

uint32_t ConcurrentRelation::runFastQueryPlan(
    const Plan &P, const Tuple &Input,
    function_ref<void(const Tuple &)> Visit) const {
  assert(P.EpochEligible && !P.ForMutation &&
         "the fast path requires an epoch-eligible query plan");
  assert(EpochDomain::global().inGuard() &&
         "the fast path runs entirely inside an epoch guard");
  NumQueries.inc();
  ExecContext &Ctx = ExecContext::current();
  OpScope Scope(Ctx);
  Ctx.LockFree = true;
  // Raw instance pointers throughout, the root included: the epoch guard
  // keeps every instance this query reaches allocated (a removed one is
  // retired, not freed — NodeInstance.h), so no reference count is
  // written. The retirement flip synchronizes before dropping the root.
  [[maybe_unused]] ExecStatus St = Executor.run(
      P, Input, FastRoot.load(std::memory_order_seq_cst), Ctx);
  assert(St == ExecStatus::Ok && "lock-free query plans cannot restart");
  uint32_t N = Ctx.numStates(P.ResultVar);
  for (uint32_t I = 0; I < N; ++I)
    Visit(Ctx.stateTuple(P.ResultVar, I));
  return N; // Scope recycles the frames
}

// The locked operations hold the gate from before plan resolution
// until after execution: a migration flip that closes the gate is
// therefore atomic with respect to entire operations — none can
// resolve a plan under one representation regime and execute it under
// the next (runtime/Migration.h). The epoch guard nests *inside* the
// gate (never the reverse): blocking on a closed gate while pinning an
// epoch would deadlock the flip's synchronize.
std::vector<Tuple> ConcurrentRelation::query(const Tuple &S,
                                             ColumnSet C) const {
  std::vector<Tuple> Out;
  auto Push = [&](const Tuple &T) { Out.push_back(T.project(C)); };
  auto Resolve = [&] { return resolvePlan(PlanOp::Query, S.domain(), C); };
  if (!tryFastQuery(Resolve, S, Push, nullptr)) {
    OpGate::Scope G(Gate);
    EpochDomain::Guard EG;
    runQueryPlan(*Resolve(), S, Push);
  }
  std::sort(Out.begin(), Out.end(), TupleLess());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

unsigned ConcurrentRelation::remove(const Tuple &S) {
  OpGate::Scope G(Gate);
  EpochDomain::Guard EG;
  // Asserted inside the gate: spec() reads Config, which a migration's
  // retirement flip reassigns behind the gate barrier — an out-of-gate
  // read would race the flip (caught by TSan under legacy-op traffic).
  assert(spec().isKey(S.domain()) &&
         "remove requires s to be a key (paper §2)");
  return runRemovePlan(*resolvePlan(PlanOp::Remove, S.domain()), S);
}

bool ConcurrentRelation::insert(const Tuple &S, const Tuple &T) {
  assert(!S.domain().intersects(T.domain()) &&
         "insert requires disjoint s and t domains (paper §2)");
  Tuple Full = S.unionWith(T);
  OpGate::Scope G(Gate);
  EpochDomain::Guard EG;
  // Inside the gate for the same reason as remove's key assert.
  assert(Full.domain() == spec().allColumns() &&
         "inserted tuple must value every column");
  return runInsertPlan(*resolvePlan(PlanOp::Insert, S.domain()), Full);
}

/// One quiescent traversal step (consistency checking): extends each
/// walk state across edge \p E by lookup (key bound) or scan, joining
/// against bound columns. Callers hold an epoch guard across the walk
/// (the concurrent containers' read contract) and quiescence keeps the
/// bound instances alive.
namespace {
struct WalkState {
  Tuple T;
  std::vector<NodeInstance *> Bound;
};
} // namespace

static void stepStates(const Decomposition &D, EdgeId E,
                       std::vector<WalkState> &States) {
  const auto &Edge = D.edge(E);
  const std::vector<ColumnId> Cols = Edge.Cols.members();
  const unsigned Slot = D.outSlot(E);
  std::vector<WalkState> Out;
  for (WalkState &State : States) {
    const NodeInstance *Inst = State.Bound[Edge.Src];
    if (!Inst)
      continue;
    const AnyContainer &Container = Inst->out(Slot);
    if (State.T.domain().containsAll(Edge.Cols)) {
      Value Key[Decomposition::MaxEdgeColumns];
      State.T.valuesOf(Edge.Cols, Key);
      NodeInstance *Found = Container.lookup(Key);
      if (!Found)
        continue;
      WalkState NewState = std::move(State);
      NewState.Bound[Edge.Dst] = Found;
      Out.push_back(std::move(NewState));
    } else {
      Container.scan([&](const Value *Key, NodeInstance *Val) {
        if (!State.T.matchesRow(Cols.data(), Key, unsigned(Cols.size())))
          return true;
        WalkState NewState;
        NewState.T.assignUnionRow(State.T, Cols.data(), Key,
                                  unsigned(Cols.size()));
        NewState.Bound = State.Bound;
        NewState.Bound[Edge.Dst] = Val;
        Out.push_back(std::move(NewState));
        return true;
      });
    }
  }
  States = std::move(Out);
}

std::vector<Tuple> ConcurrentRelation::scanAll() const {
  return query(Tuple(), spec().allColumns());
}

void ConcurrentRelation::attachWal(WriteAheadLog &Log, uint32_t Partition,
                                   uint32_t Shard) {
  assert(Partition < Log.partitions() && "partition out of range");
  WalPartition = Partition;
  WalShard = Shard;
  // Store last: the mutation paths load Wal with acquire and read the
  // partition/shard fields only behind a non-null result.
  Wal.store(&Log, std::memory_order_release);
}

void ConcurrentRelation::attachMetrics(obs::MetricsRegistry &Reg,
                                       std::string Name,
                                       obs::MetricLabels Extra) {
  detachMetrics(); // re-attach replaces the previous wiring
  auto *OS = new detail::RelationObs;
  OS->Reg = &Reg;
  OS->Name = std::move(Name);
  OS->Labels.emplace_back("relation", OS->Name);
  for (auto &L : Extra)
    OS->Labels.push_back(std::move(L));
  OS->RelationRing = &Reg.ring(obs::EventDomain::Relation);
  OS->TxnRing = &Reg.ring(obs::EventDomain::Txn);
  OS->WalRing = &Reg.ring(obs::EventDomain::Wal);
  OS->MigrationRing = &Reg.ring(obs::EventDomain::Migration);

  // Everything below is a callback over a counter the relation already
  // keeps — attaching adds no new hot-path write anywhere; the registry
  // reads these at snapshot time only. The callbacks capture `this` and
  // are removed in detachMetrics()/the destructor, so they never
  // outlive the relation.
  using CK = obs::MetricsRegistry::CallbackKind;
  const obs::MetricLabels &L = OS->Labels;
  auto Add = [&](const char *N, CK Kind, std::function<uint64_t()> Fn) {
    OS->Callbacks.push_back(Reg.addCallback(N, L, Kind, std::move(Fn)));
  };
  Add("relation.queries", CK::Counter, [this] { return NumQueries.load(); });
  Add("relation.inserts", CK::Counter, [this] { return NumInserts.load(); });
  Add("relation.removes", CK::Counter, [this] { return NumRemoves.load(); });
  Add("relation.restarts", CK::Counter, [this] { return Restarts.load(); });
  Add("relation.lock_acquisitions", CK::Counter,
      [this] { return LockCounts.Acquisitions.load(); });
  Add("relation.lock_contentions", CK::Counter,
      [this] { return LockCounts.Contentions.load(); });
  Add("relation.size", CK::Gauge, [this] { return uint64_t(size()); });
  Add("relation.plan_epoch", CK::Gauge, [this] { return planEpoch(); });
  Add("relation.plan_cache.hits", CK::Counter,
      [this] { return Plans.hits(); });
  Add("relation.plan_cache.misses", CK::Counter,
      [this] { return Plans.misses(); });
  Add("relation.mvcc.versions_installed", CK::Counter,
      [this] { return Mvcc->installed(); });
  Add("relation.mvcc.versions_retired", CK::Counter,
      [this] { return Mvcc->retired(); });
  Add("relation.mvcc.remove_noops", CK::Counter,
      [this] { return Mvcc->removeNoops(); });
  Add("relation.mvcc.live_versions", CK::Gauge,
      [this] { return Mvcc->liveVersions(); });
  Add("relation.mvcc.directories", CK::Gauge,
      [this] { return uint64_t(Mvcc->directoryCount()); });
  Add("relation.mvcc.directories_retired", CK::Counter,
      [this] { return Mvcc->directoriesRetired(); });
  Add("relation.mvcc.buckets", CK::Gauge,
      [this] { return uint64_t(Mvcc->buckets()); });
  Add("relation.mvcc.resizes", CK::Counter,
      [this] { return Mvcc->resizes(); });
  // The heap by layer, as of the last memoryLedger() call: a snapshot
  // runs callbacks under the registry mutex, so these must not close
  // the operation gate (an operation may be waiting for that mutex).
  static const char *LayerNames[obs::MemoryLedger::NumLayers] = {
      "instances", "entries", "locks", "versions", "directories"};
  for (unsigned Layer = 0; Layer < obs::MemoryLedger::NumLayers; ++Layer) {
    obs::MetricLabels LL = L;
    LL.emplace_back("layer", LayerNames[Layer]);
    OS->Callbacks.push_back(
        Reg.addCallback("relation.memory_bytes", LL, CK::Gauge,
                        [this, Layer] { return LedgerBytes[Layer].load(); }));
  }
  static const char *CauseNames[NumAbortCauses] = {
      "none", "conflict", "upgrade", "epoch_change", "gate_busy", "user"};
  for (unsigned C = 1; C < NumAbortCauses; ++C) { // cause 0 = None: no abort
    obs::MetricLabels CL = L;
    CL.emplace_back("cause", CauseNames[C]);
    OS->Callbacks.push_back(
        Reg.addCallback("txn.aborts", CL, CK::Counter,
                        [this, C] { return AbortCounts[C].load(); }));
  }

  Mvcc->attachTrace(OS->RelationRing);
  Obs.store(OS, std::memory_order_seq_cst);
}

void ConcurrentRelation::detachMetrics() {
  detail::RelationObs *OS = Obs.exchange(nullptr, std::memory_order_seq_cst);
  if (!OS)
    return;
  Mvcc->attachTrace(nullptr);
  OS->Reg->removeCallbacks(OS->Callbacks);
  // Operations load Obs without a lock; an in-flight op may still hold
  // the pointer, so the state reclaims after the grace period (the
  // attach-on-a-quiet-relation contract makes this belt-and-braces).
  EpochDomain::global().retireObject(OS);
}

std::vector<Tuple>
ConcurrentRelation::checkpointSnapshot(uint64_t &Watermark) const {
  // The barrier closes the gate and drains every in-flight operation.
  // Mutations append their WAL record while inside the gate (the hooks
  // above run under the op scope, which holds the gate throughout), so
  // once the drain completes, everything this relation will ever log
  // with commitSeq ≤ the clock reading below is already both applied to
  // the structure and appended to the log; everything after the barrier
  // stamps a higher sequence. That makes the walk + watermark pair a
  // consistent cut of the commit order.
  OpGate::Barrier B(Gate);
  Watermark = commitClockNow();

  // Quiescent first-path walk — scanAll() would re-enter the gate the
  // barrier just closed. Any single root-to-leaf path yields the full
  // represented relation (adequacy; verifyConsistency checks they all
  // agree), so follow first out-edges only.
  const Decomposition &D = *Config.Decomp;
  EpochDomain::Guard EG;
  std::vector<WalkState> States;
  WalkState Init;
  Init.Bound.resize(D.numNodes());
  Init.Bound[D.root()] = Root.get();
  States.push_back(std::move(Init));
  for (NodeId N = D.root(); !D.node(N).OutEdges.empty();) {
    EdgeId E = D.node(N).OutEdges.front();
    stepStates(D, E, States);
    N = D.edge(E).Dst;
  }
  std::vector<Tuple> Out;
  Out.reserve(States.size());
  for (const WalkState &St : States)
    Out.push_back(St.T.project(spec().allColumns()));
  return Out;
}

/// Visits every live node instance exactly once (quiescent walk).
static void forEachInstance(
    const Decomposition &D, const NodeInstance *Root,
    const std::function<void(NodeId, const NodeInstance &)> &Visit) {
  // Only nodes with several in-edges can be reached twice.
  std::vector<std::unordered_set<const NodeInstance *>> Seen(D.numNodes());
  EpochDomain::Guard EG; // the concurrent containers' read contract
  std::function<void(NodeId, const NodeInstance *)> Walk =
      [&](NodeId N, const NodeInstance *Inst) {
        if (D.node(N).InEdges.size() > 1 && !Seen[N].insert(Inst).second)
          return;
        Visit(N, *Inst);
        const std::vector<EdgeId> &Out = D.node(N).OutEdges;
        for (unsigned Slot = 0; Slot < Out.size(); ++Slot)
          Inst->out(Slot).scan([&](const Value *, NodeInstance *Child) {
            Walk(D.edge(Out[Slot]).Dst, Child);
            return true;
          });
      };
  Walk(D.root(), Root);
}

RelationStatistics ConcurrentRelation::collectStatistics() const {
  const Decomposition &D = *Config.Decomp;
  RelationStatistics Stats;
  Stats.Edges.resize(D.numEdges());
  forEachInstance(D, Root.get(), [&](NodeId N, const NodeInstance &Inst) {
    ++Stats.NodeInstances;
    const std::vector<EdgeId> &Out = D.node(N).OutEdges;
    for (unsigned Slot = 0; Slot < Out.size(); ++Slot) {
      EdgeOccupancy &Occ = Stats.Edges[Out[Slot]];
      ++Occ.Containers;
      Occ.Entries += Inst.out(Slot).size();
    }
  });
  return Stats;
}

obs::MemoryLedger ConcurrentRelation::memoryLedger() const {
  using obs::heapChunkBytes;
  obs::MemoryLedger L;
  {
    // Config is read behind the barrier: a migration flip reassigns it.
    OpGate::Barrier B(Gate);
    const Decomposition &D = *Config.Decomp;
    forEachInstance(D, Root.get(), [&](NodeId, const NodeInstance &Inst) {
      const InstanceLayout &Lay = Inst.layout();
      uint64_t Locks = uint64_t(Lay.NumStripes) * sizeof(PhysicalLock);
      L.Locks += Locks;
      L.Instances += heapChunkBytes(Lay.Size) - Locks;
      for (unsigned Slot = 0; Slot < Lay.Out.size(); ++Slot) {
        const InstanceLayout::Slot &S = Lay.Out[Slot];
        if (!S.Inline)
          L.Instances += heapChunkBytes(AnyContainer::shape(S.Kind, S.Arity).Size);
        AnyContainer::HeapBytes H = Inst.out(Slot).heapBytes();
        L.Instances += H.Base;
        L.Entries += H.Entries;
      }
    });
  }
  Mvcc->memoryBytes(L.Versions, L.Directories);
  for (unsigned Layer = 0; Layer < obs::MemoryLedger::NumLayers; ++Layer)
    LedgerBytes[Layer].store(L.layer(Layer));
  return L;
}

void ConcurrentRelation::adaptPlans() {
  // The measurement itself is quiescent-only (header contract), but
  // concurrent operations may keep using old plans safely: the swap is
  // serialized against cold compiles by PlannerMutex (released before
  // clear(), which takes the shard mutexes — no order inversion), and
  // PlanCache::clear() retires snapshots instead of freeing them, so
  // in-flight wait-free lookups never touch freed memory. A compile
  // that raced ahead with the old planner either publishes before the
  // clear (wiped with the rest) or runs after the swap (new planner).
  RelationStatistics Stats = collectStatistics();
  {
    std::lock_guard<std::mutex> Guard(PlannerMutex);
    QueryPlanner Replanned(*Config.Decomp, *Config.Placement,
                           Stats.toCostParams(BaseCostParams));
    // Replanning during a migration's dual-write phase must keep the
    // mutation plans mirroring, or committed writes would stop
    // reaching the shadow representation.
    Replanned.setEmitMirrorWrites(Planner.emitMirrorWrites());
    Planner = std::move(Replanned);
  }
  // Bump *before* clear — the order matters for the wait-free readers.
  // A prepared handle's fast path re-validates its cached plan pointer
  // by loading PlanEpoch (seq_cst) inside its epoch guard. The clear
  // retires the snapshot that owns the plan, and with enough epoch
  // advances from unrelated retire traffic that snapshot could become
  // freeable *during* the reader's guard (only retirees stamped before
  // the guard's epoch are held back). Bumping first closes the hole:
  // if the snapshot was freeable during a guard, its retire — and
  // therefore this preceding bump — is before the guard's entry in the
  // seq_cst order, so the reader's epoch check must observe the bump
  // and rebind instead of touching the plan. The flip side: a rebinder
  // racing the window between bump and clear can resolve a plan the
  // clear is about to retire. It may run it once, inside its guard, but
  // must not cache it under the new epoch — retirePlans publishes
  // PlansClearedAt for exactly that check (PreparedOpImpl::rebindSlow).
  // The first rebinder per signature compiles (one counted miss);
  // everyone else rebinds onto that publication wait-free.
  // The signatures compiled at this instant are the access paths still
  // in live use (captured before the clear wipes them) — they decide
  // which MVCC chain directories survive below.
  std::vector<PlanCache::Signature> Sigs = Plans.signatures();
  retirePlans();

  // Retire secondary chain directories whose read signature left the
  // cache: a directory serves snapshot reads binding dom(s) ∩ key, so
  // the keep set is exactly the key projections of the surviving
  // query/for-update shapes. A directory retired too eagerly (its
  // signature went cold but comes back) is re-created and backfilled by
  // the next compile's ensureDirectory — a cold-path cost, never a
  // correctness issue. The retire itself is epoch-safe against
  // concurrent snapshot readers (MvccStore::retireStaleDirectories).
  std::vector<ColumnSet> Keep;
  const ColumnSet KeyCols = Mvcc->keyColumns();
  for (const PlanCache::Signature &S : Sigs)
    if (S.Op == PlanOp::Query || S.Op == PlanOp::QueryForUpdate)
      Keep.push_back(ColumnSet::fromBits(S.Dom) & KeyCols);
  Mvcc->retireStaleDirectories([&](ColumnSet Cols) {
    for (ColumnSet K : Keep)
      if (K == Cols)
        return true;
    return false;
  });
}

ValidationResult ConcurrentRelation::verifyConsistency() const {
  ValidationResult R;
  const Decomposition &D = *Config.Decomp;

  // Enumerate all root-to-leaf edge paths.
  std::vector<std::vector<EdgeId>> Paths;
  std::vector<EdgeId> Current;
  std::function<void(NodeId)> Walk = [&](NodeId N) {
    if (D.node(N).OutEdges.empty()) {
      Paths.push_back(Current);
      return;
    }
    for (EdgeId E : D.node(N).OutEdges) {
      Current.push_back(E);
      Walk(D.edge(E).Dst);
      Current.pop_back();
    }
  };
  Walk(D.root());

  // Collect the tuple set along each path (unlocked: quiescence is the
  // caller's obligation).
  std::vector<std::vector<Tuple>> PathTuples;
  EpochDomain::Guard EG;
  for (const auto &Path : Paths) {
    std::vector<WalkState> States;
    WalkState Init;
    Init.Bound.resize(D.numNodes());
    Init.Bound[D.root()] = Root.get();
    States.push_back(std::move(Init));
    for (EdgeId E : Path)
      stepStates(D, E, States);
    std::vector<Tuple> Tuples;
    for (const WalkState &St : States)
      Tuples.push_back(St.T);
    std::sort(Tuples.begin(), Tuples.end(), TupleLess());
    PathTuples.push_back(std::move(Tuples));
  }

  for (size_t I = 1; I < PathTuples.size(); ++I)
    if (PathTuples[I] != PathTuples[0])
      R.Errors.push_back("path " + std::to_string(I) +
                         " disagrees with path 0 on the represented relation");

  if (!PathTuples.empty() && PathTuples[0].size() != size())
    R.Errors.push_back("tuple count " + std::to_string(PathTuples[0].size()) +
                       " disagrees with size() " + std::to_string(size()));

  // Functional dependencies must hold over the represented relation.
  if (!PathTuples.empty()) {
    const auto &Tuples = PathTuples[0];
    for (const auto &Fd : spec().fds())
      for (size_t I = 0; I < Tuples.size(); ++I)
        for (size_t J = I + 1; J < Tuples.size(); ++J)
          if (Tuples[I].project(Fd.Lhs) == Tuples[J].project(Fd.Lhs) &&
              Tuples[I].project(Fd.Rhs) != Tuples[J].project(Fd.Rhs))
            R.Errors.push_back("functional dependency violated");
  }
  return R;
}
