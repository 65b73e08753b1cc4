//===- runtime/PreparedOp.cpp - Prepared relational operations ----------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "runtime/PreparedOp.h"

#include "support/Compiler.h"

#include <algorithm>
#include <numeric>

using namespace crs;
using detail::PreparedOpImpl;

/// Frame ids are dense per process (not per relation), so a thread's
/// frame vector indexes every live handle unambiguously and stays as
/// short as the peak number of live handles: dead handles return their
/// id to a free list, and the paired never-reused generation lets each
/// thread's frame detect reuse and reset its bound mask (see
/// ExecContext::frame).
namespace {
std::mutex FrameIdMutex;
std::vector<uint32_t> FreeFrameIds;
uint32_t NextFrameId = 0;
uint64_t NextFrameGen = 1; // 0 is the never-bound sentinel in ArgFrame
} // namespace

static std::pair<uint32_t, uint64_t> allocFrameId() {
  std::lock_guard<std::mutex> Guard(FrameIdMutex);
  uint32_t Id;
  if (!FreeFrameIds.empty()) {
    Id = FreeFrameIds.back();
    FreeFrameIds.pop_back();
  } else {
    Id = NextFrameId++;
  }
  return {Id, NextFrameGen++};
}

static void freeFrameId(uint32_t Id) {
  std::lock_guard<std::mutex> Guard(FrameIdMutex);
  FreeFrameIds.push_back(Id);
}

PreparedOpImpl::PreparedOpImpl(const ConcurrentRelation &R,
                               ConcurrentRelation *MutR, PlanOp O,
                               ColumnSet S, ColumnSet OutCols)
    : Rel(&R), MutRel(MutR), Op(O), DomS(S),
      In(O == PlanOp::Insert ? R.spec().allColumns() : S), Out(OutCols),
      Slots(In.members()) {
  auto [Id, Gen] = allocFrameId();
  FrameId = Id;
  FrameGen = Gen;
  assert(Slots.size() <= 64 && "bind mask is 64 bits wide");
  assert(Slots.size() <= BoundOp::MaxSlots &&
         "widen BoundOp::MaxSlots for specs this wide");
}

PreparedOpImpl::~PreparedOpImpl() { freeFrameId(FrameId); }

void PreparedOpImpl::bind(unsigned Slot, Value V) const {
  assert(Slot < numSlots() && "bind slot out of range");
  ExecContext::ArgFrame &F =
      ExecContext::current().frame(FrameId, FrameGen, numSlots());
  F.Vals[Slot] = V;
  F.BoundMask |= uint64_t(1) << Slot;
}

const Value *PreparedOpImpl::frameArgs() const {
  ExecContext::ArgFrame &F =
      ExecContext::current().frame(FrameId, FrameGen, numSlots());
  assert(F.BoundMask == (numSlots() == 64
                             ? ~uint64_t(0)
                             : (uint64_t(1) << numSlots()) - 1) &&
         "executing a prepared operation with unbound slots "
         "(bindings are per-thread: bind on the executing thread)");
  return F.Vals.data();
}

const Plan *PreparedOpImpl::resolve() const {
  // Epoch first, plan second: the rebinder stores the plan before the
  // epoch (release), so an epoch match guarantees the loaded plan is
  // the one bound for that epoch — or a newer one from a racing rebind,
  // which is equally current.
  uint64_t E = Rel->planEpoch();
  if (CRS_LIKELY(BoundEpoch.load(std::memory_order_acquire) == E))
    return BoundPlan.load(std::memory_order_relaxed);
  return rebindSlow();
}

const Plan *PreparedOpImpl::rebindSlow() const {
  std::lock_guard<std::mutex> Guard(RebindM);
  // Revalidate under the mutex: a concurrent rebinder may have bound a
  // fresh plan while we waited, and the epoch may have advanced past
  // the value that sent us here.
  uint64_t Cur = Rel->planEpoch();
  if (BoundEpoch.load(std::memory_order_relaxed) == Cur)
    return BoundPlan.load(std::memory_order_relaxed);
  // The epoch is bumped before the cache is cleared, so a plan resolved
  // between the two may sit in the snapshot the clear retires: safe for
  // this call (the caller's guard predates that retire), but not to
  // cache as epoch Cur. Cache only when the clear that went with Cur was
  // complete before resolving. The cache makes the recompilation itself
  // one counted miss per signature no matter how many threads rebind.
  bool Settled = Rel->PlansClearedAt.load(std::memory_order_seq_cst) == Cur;
  const Plan *P = Rel->resolvePlan(Op, DomS, Out);
  if (Settled) {
    BoundPlan.store(P, std::memory_order_relaxed);
    BoundEpoch.store(Cur, std::memory_order_release);
  }
  return P;
}

const Plan *PreparedOpImpl::resolveForUpdate() const {
  assert(Op == PlanOp::Query &&
         "for-update resolution is for query handles only");
  uint64_t E = Rel->planEpoch();
  if (CRS_LIKELY(BoundTxnEpoch.load(std::memory_order_acquire) == E))
    return BoundTxnPlan.load(std::memory_order_relaxed);
  return rebindForUpdateSlow();
}

const Plan *PreparedOpImpl::rebindForUpdateSlow() const {
  // Mirrors rebindSlow (same invariant, same serialization) for the
  // transactional sibling binding.
  std::lock_guard<std::mutex> Guard(RebindM);
  uint64_t Cur = Rel->planEpoch();
  if (BoundTxnEpoch.load(std::memory_order_relaxed) == Cur)
    return BoundTxnPlan.load(std::memory_order_relaxed);
  bool Settled = Rel->PlansClearedAt.load(std::memory_order_seq_cst) == Cur;
  const Plan *P = Rel->resolvePlan(PlanOp::QueryForUpdate, DomS, Out);
  if (Settled) {
    BoundTxnPlan.store(P, std::memory_order_relaxed);
    BoundTxnEpoch.store(Cur, std::memory_order_release);
  }
  return P;
}

// Mutating prepared executions hold the relation's operation gate
// across resolve + run, like the legacy entry points: a migration flip
// is atomic with respect to the whole operation, so a handle can never
// execute a plan resolved under a previous representation regime
// (runtime/Migration.h). The epoch guard nests inside the gate (plan
// snapshots reclaim through the epoch domain). Queries take the
// wait-free path first: when fast reads are enabled and the bound plan
// is epoch-eligible, the whole execution runs under an epoch guard
// alone — no gate, no physical locks, and no instance reference counts
// (the guard keeps every visited instance allocated). Its one shared
// write is a query-counter stripe, except on CowArrayMap edges, whose
// lookups copy the snapshot and the entry's reference out of it (two
// reference-count round trips). The fallback drops the guard before
// entering the gate: blocking on a closed gate while pinning an epoch
// would deadlock the retirement flip's synchronize.
uint32_t
PreparedOpImpl::runQuery(const Value *Args,
                         function_ref<void(const Tuple &)> Visit) const {
  assert(Op == PlanOp::Query && "not a query handle");
  // The thread's scratch tuple is rebound in place from the slot
  // layout: after the first execution this writes values only.
  Tuple &Input = ExecContext::current().inputScratch();
  Input.rebind(Slots.data(), Args, Slots.size());
  // Sampled latency: when no registry is attached, the acquire load is
  // the entire cost; when attached, one thread-local countdown, and a
  // clock read only on the executions the sample period picks.
  const detail::RelationObs *OS = Rel->observability();
  const uint64_t T0 = OS ? OS->Reg->maybeSampleStart() : 0;
  {
    EpochDomain::Guard EG;
    if (Rel->FastReads.load(std::memory_order_seq_cst)) {
      const Plan *P = resolve();
      if (P->EpochEligible) {
        uint32_t N = Rel->runFastQueryPlan(*P, Input, Visit);
        if (CRS_UNLIKELY(T0 != 0))
          recordLatency(OS, T0);
        return N;
      }
    }
  } // exit the guard before possibly blocking on the gate
  OpGate::Scope G(Rel->Gate);
  EpochDomain::Guard EG;
  uint32_t N = Rel->runQueryPlan(*resolve(), Input, Visit);
  if (CRS_UNLIKELY(T0 != 0))
    recordLatency(OS, T0);
  return N;
}

bool PreparedOpImpl::runInsert(const Value *Args) const {
  assert(Op == PlanOp::Insert && MutRel && "not an insert handle");
  const detail::RelationObs *OS = Rel->observability();
  const uint64_t T0 = OS ? OS->Reg->maybeSampleStart() : 0;
  OpGate::Scope G(Rel->Gate);
  EpochDomain::Guard EG;
  const Plan *P = resolve();
  Tuple &Input = ExecContext::current().inputScratch();
  Input.rebind(Slots.data(), Args, Slots.size());
  bool Won = MutRel->runInsertPlan(*P, Input);
  if (CRS_UNLIKELY(T0 != 0))
    recordLatency(OS, T0);
  return Won;
}

unsigned PreparedOpImpl::runRemove(const Value *Args) const {
  assert(Op == PlanOp::Remove && MutRel && "not a remove handle");
  const detail::RelationObs *OS = Rel->observability();
  const uint64_t T0 = OS ? OS->Reg->maybeSampleStart() : 0;
  OpGate::Scope G(Rel->Gate);
  EpochDomain::Guard EG;
  const Plan *P = resolve();
  Tuple &Input = ExecContext::current().inputScratch();
  Input.rebind(Slots.data(), Args, Slots.size());
  unsigned N = MutRel->runRemovePlan(*P, Input);
  if (CRS_UNLIKELY(T0 != 0))
    recordLatency(OS, T0);
  return N;
}

void PreparedOpImpl::recordLatency(const detail::RelationObs *OS,
                                   uint64_t StartNanos) const {
  obs::LatencyHistogram *H = LatHist.load(std::memory_order_acquire);
  if (CRS_UNLIKELY(!H ||
                   LatHistFor.load(std::memory_order_relaxed) != OS)) {
    // First sampled execution under this attachment: resolve the
    // signature's histogram once (registry mutex, deque-stable ref) and
    // cache it. The tuner matches these by the exact label pair
    // (relation=..., sig=...), so the label format is API.
    PlanCache::Signature Sig{Op, DomS.bits(), Out.bits()};
    obs::MetricLabels L = OS->Labels;
    L.emplace_back("sig", Sig.metricLabel());
    H = &OS->Reg->histogram("relation.op_latency", L);
    LatHist.store(H, std::memory_order_release);
    LatHistFor.store(OS, std::memory_order_relaxed);
  }
  H->record(obs::MetricsRegistry::nowNanos() - StartNanos);
}

//===----------------------------------------------------------------------===//
// Handles
//===----------------------------------------------------------------------===//

std::vector<Tuple> PreparedQuery::execute() const {
  ColumnSet C = Impl->outputColumns();
  std::vector<Tuple> Out;
  Impl->runQuery(Impl->frameArgs(),
                 [&](const Tuple &T) { Out.push_back(T.project(C)); });
  std::sort(Out.begin(), Out.end(), TupleLess());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

PreparedQuery ConcurrentRelation::prepareQuery(ColumnSet DomS,
                                               ColumnSet C) const {
  return PreparedQuery(std::make_shared<PreparedOpImpl>(
      *this, nullptr, PlanOp::Query, DomS, C));
}

PreparedInsert ConcurrentRelation::prepareInsert(ColumnSet DomS) {
  assert(spec().allColumns().containsAll(DomS) &&
         "prepared-insert key columns outside the specification");
  return PreparedInsert(std::make_shared<PreparedOpImpl>(
      *this, this, PlanOp::Insert, DomS, spec().allColumns()));
}

PreparedRemove ConcurrentRelation::prepareRemove(ColumnSet DomS) {
  assert(spec().isKey(DomS) && "remove requires s to be a key (paper §2)");
  return PreparedRemove(std::make_shared<PreparedOpImpl>(
      *this, this, PlanOp::Remove, DomS, spec().allColumns()));
}

//===----------------------------------------------------------------------===//
// Batch execution
//===----------------------------------------------------------------------===//

BoundOp BoundOp::make(const PreparedOpImpl *Impl,
                      std::initializer_list<Value> Args,
                      function_ref<void(const Tuple &)> Visit) {
  BoundOp B;
  B.Op = Impl;
  B.Visit = Visit;
  assert(Args.size() == Impl->numSlots() &&
         "batch op must bind every slot positionally");
  std::copy(Args.begin(), Args.end(), B.Args.begin());
  return B;
}

void crs::executeBatch(std::span<BoundOp> Ops) {
  // Group compatible operations (same prepared handle) so each group
  // runs back-to-back: the plan is resolved once per group and the
  // group's code path and lock working set stay hot. Results are
  // written through the original positions.
  // Groups run in first-appearance order (not handle-pointer order,
  // which varies with heap layout run to run): a batch listing inserts
  // before a query of the same keys deterministically observes them.
  std::vector<const PreparedOpImpl *> Seen;
  std::vector<uint32_t> Rank(Ops.size());
  for (size_t I = 0; I < Ops.size(); ++I) {
    auto It = std::find(Seen.begin(), Seen.end(), Ops[I].Op);
    if (It == Seen.end()) {
      Rank[I] = static_cast<uint32_t>(Seen.size());
      Seen.push_back(Ops[I].Op);
    } else {
      Rank[I] = static_cast<uint32_t>(It - Seen.begin());
    }
  }
  std::vector<uint32_t> Order(Ops.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::stable_sort(Order.begin(), Order.end(),
                   [&](uint32_t A, uint32_t B) { return Rank[A] < Rank[B]; });
  for (uint32_t I : Order) {
    BoundOp &B = Ops[I];
    assert(B.Op && "executing an unbound batch op");
    switch (B.Op->planOp()) {
    case PlanOp::Query: {
      auto Ignore = [](const Tuple &) {};
      B.Result = B.Op->runQuery(
          B.Args.data(),
          B.Visit ? B.Visit : function_ref<void(const Tuple &)>(Ignore));
      break;
    }
    case PlanOp::Insert:
      B.Result = B.Op->runInsert(B.Args.data()) ? 1 : 0;
      break;
    case PlanOp::Remove:
      B.Result = B.Op->runRemove(B.Args.data());
      break;
    case PlanOp::RemoveLocate:
    case PlanOp::QueryForUpdate:
    case PlanOp::UndoInsert:
    case PlanOp::UndoRemove:
      assert(false && "unpreparable operation in batch");
      break;
    }
  }
}
