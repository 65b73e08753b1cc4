//===- plan/Planner.cpp - The concurrent query planner ------------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "plan/Planner.h"

#include "plan/PlanValidity.h"
#include "support/Compiler.h"

#include <algorithm>

using namespace crs;

QueryPlanner::QueryPlanner(const Decomposition &D, const LockPlacement &P,
                           CostParams CP)
    : Decomp(&D), Placement(&P), Params(CP), TopoIdx(D.topologicalIndex()) {}

std::optional<Plan> QueryPlanner::buildPlan(const std::vector<EdgeId> &Seq,
                                            ColumnSet DomS,
                                            ColumnSet OutputCols,
                                            bool ForMutation) const {
  const Decomposition &D = *Decomp;
  const LockPlacement &LP = *Placement;
  const LockMode Mode = ForMutation ? LockMode::Exclusive : LockMode::Shared;

  Plan P;
  P.Decomp = Decomp;
  P.Placement = Placement;
  P.InputCols = DomS;
  P.BindSlots = DomS.members();
  P.OutputCols = OutputCols;
  P.DomS = DomS;
  P.ForMutation = ForMutation;

  PlanVar CurVar = 0;
  ColumnSet Bound = DomS;
  std::vector<bool> HostLocked(D.numNodes(), false);
  int LastLockTopo = -1;
  std::vector<NodeId> LockedOrder; // for cosmetic unlocks

  // Sort-elision analysis (§5.2): the lock operator must sort node
  // instances into lock order, unless the plan provably produces states
  // already in that order. States are in order while the state set is a
  // singleton (lookups only), and stay in order after ONE scan of a
  // container with sorted iteration — the varying columns are then
  // exactly that edge's columns, compared identically by tuple order
  // and by the container. A second scan interleaves and loses it.
  bool SingleState = true;   // current var holds at most one state
  bool TuplesSorted = true;  // states are in tuple (lock) order
  ColumnSet VaryingCols;     // columns that differ across states

  // Position of each edge in the traversal, for host-lock lookahead.
  std::vector<int> Position(D.numEdges(), -1);
  for (unsigned I = 0; I < Seq.size(); ++I)
    Position[Seq[I]] = static_cast<int>(I);

  // Emits the Lock statement for host \p H (if not yet emitted),
  // covering every traversed edge hosted at H. Returns false on a lock
  // order violation (caller rejects the traversal order).
  auto EmitHostLock = [&](NodeId H) -> bool {
    if (HostLocked[H])
      return true;
    int T = static_cast<int>(TopoIdx[H]);
    if (T < LastLockTopo)
      return false;
    PlanStmt L;
    L.K = PlanStmt::Kind::Lock;
    L.InVar = CurVar;
    L.Node = H;
    L.Mode = Mode;
    // The instance keys of H project away columns outside A(H); order
    // is preserved iff every varying column survives the projection.
    L.SortElided = SingleState ||
                   (TuplesSorted && D.node(H).KeyCols.containsAll(VaryingCols));
    // Lookahead: one selector per traversed non-speculative edge hosted
    // at H (speculative edges lock their absent-case host only under
    // the mutation protocol).
    for (EdgeId E : Seq) {
      const EdgePlacement &EP = LP.edgePlacement(E);
      if (EP.Host != H)
        continue;
      if (EP.Speculative && !ForMutation)
        continue;
      // A by-columns selector is sound whenever the stripe columns are
      // bound when the lock is taken: the logically-read set of any
      // later lookup or scan-join on this edge only contains entries
      // agreeing with the query state on bound columns, so they all map
      // to the selected stripe.
      StripeSel Sel = StripeSel::all();
      if (LP.nodeStripes(H) <= 1)
        Sel = StripeSel::byCols(ColumnSet::empty());
      else if (Bound.containsAll(EP.StripeCols))
        Sel = StripeSel::byCols(EP.StripeCols);
      if (std::find(L.Sels.begin(), L.Sels.end(), Sel) == L.Sels.end())
        L.Sels.push_back(Sel);
    }
    if (L.Sels.empty())
      L.Sels.push_back(StripeSel::byCols(ColumnSet::empty()));
    P.Stmts.push_back(std::move(L));
    HostLocked[H] = true;
    LastLockTopo = T;
    LockedOrder.push_back(H);
    return true;
  };

  for (EdgeId E : Seq) {
    const auto &Edge = D.edge(E);
    const EdgePlacement &EP = LP.edgePlacement(E);
    bool KeyBound = Bound.containsAll(Edge.Cols);

    if (EP.Speculative && !ForMutation) {
      // Reader protocol (§4.5): fused guess-verify statements.
      if (KeyBound) {
        PlanStmt S;
        S.K = PlanStmt::Kind::SpecLookup;
        S.InVar = CurVar;
        S.OutVar = P.NumVars++;
        S.Edge = E;
        S.Mode = Mode;
        P.Stmts.push_back(S);
        CurVar = S.OutVar;
      } else {
        TuplesSorted = SingleState && containerTraits(Edge.Kind).SortedScan;
        SingleState = false;
        VaryingCols |= Edge.Cols;
        // Scanning a speculative edge requires the all-stripes lock on
        // the absent-case host first (pins the container), then the
        // per-entry target locks are taken during the scan.
        if (HostLocked[EP.Host]) {
          // The host lock was emitted for other edges and may not cover
          // all stripes; reject (rare) rather than retrofit.
          return std::nullopt;
        }
        int T = static_cast<int>(TopoIdx[EP.Host]);
        if (T < LastLockTopo)
          return std::nullopt;
        PlanStmt L;
        L.K = PlanStmt::Kind::Lock;
        L.InVar = CurVar;
        L.Node = EP.Host;
        L.Mode = Mode;
        L.Sels.push_back(StripeSel::all());
        P.Stmts.push_back(L);
        HostLocked[EP.Host] = true;
        LastLockTopo = T;
        LockedOrder.push_back(EP.Host);
        PlanStmt S;
        S.K = PlanStmt::Kind::SpecScan;
        S.InVar = CurVar;
        S.OutVar = P.NumVars++;
        S.Edge = E;
        S.Mode = Mode;
        P.Stmts.push_back(S);
        CurVar = S.OutVar;
      }
    } else {
      // Ordinary (or mutation-protocol speculative) edge: host lock,
      // then lookup or scan.
      if (!EmitHostLock(EP.Host))
        return std::nullopt;
      PlanStmt S;
      S.K = KeyBound ? PlanStmt::Kind::Lookup : PlanStmt::Kind::Scan;
      S.InVar = CurVar;
      S.OutVar = P.NumVars++;
      S.Edge = E;
      P.Stmts.push_back(S);
      CurVar = S.OutVar;
      if (!KeyBound) {
        // A scan fans out: one sorted scan of a single state keeps the
        // states in tuple order; anything further loses it.
        TuplesSorted = SingleState && containerTraits(Edge.Kind).SortedScan;
        SingleState = false;
        VaryingCols |= Edge.Cols;
      }

      if (EP.Speculative && ForMutation) {
        // Mutation protocol (§4.5): with the absent-case host stripe
        // held exclusively, present entries are pinned; lock the bound
        // targets (deeper in the order, so blocking is safe).
        int T = static_cast<int>(TopoIdx[Edge.Dst]);
        if (T < LastLockTopo)
          return std::nullopt;
        PlanStmt L;
        L.K = PlanStmt::Kind::Lock;
        L.InVar = CurVar;
        L.Node = Edge.Dst;
        L.Mode = LockMode::Exclusive;
        L.Sels.push_back(StripeSel::all());
        P.Stmts.push_back(L);
        HostLocked[Edge.Dst] = true;
        LastLockTopo = T;
        LockedOrder.push_back(Edge.Dst);
      }
    }
    Bound |= Edge.Cols;
  }

  // Shrinking phase (cosmetic: the executor releases in bulk).
  for (auto It = LockedOrder.rbegin(); It != LockedOrder.rend(); ++It) {
    PlanStmt U;
    U.K = PlanStmt::Kind::Unlock;
    U.InVar = CurVar;
    U.Node = *It;
    P.Stmts.push_back(U);
  }
  P.ResultVar = CurVar;

  // Epoch-eligibility (wait-free read fast path): a shared-mode query
  // plan qualifies when every traversed edge's container tolerates
  // unlocked concurrent readers (§6.1 traits). Speculative statements
  // degrade gracefully — their unlocked guess *is* the read once no
  // lock is taken — so eligibility is placement-independent: only the
  // container kinds on the traversal matter.
  if (!ForMutation) {
    P.EpochEligible = true;
    for (EdgeId E : Seq) {
      const auto &Edge = D.edge(E);
      if (!containerTraits(Edge.Kind).concurrencySafe()) {
        P.EpochEligible = false;
        P.EpochNote = "edge " + D.node(Edge.Src).Name + "->" +
                      D.node(Edge.Dst).Name + " [" +
                      containerKindName(Edge.Kind) +
                      "] is not concurrency-safe";
        break;
      }
    }
    if (P.EpochEligible)
      P.EpochNote = Seq.empty()
                        ? "trivial traversal"
                        : "read-only over concurrency-safe containers";
  } else {
    P.EpochNote = "locks exclusively (mutation or for-update)";
  }

  assert(checkPlanValidity(P).ok() && "planner emitted an invalid plan");
  return P;
}

void QueryPlanner::enumerateSeqs(ColumnSet Confirmed, ColumnSet Target,
                                 uint64_t BoundNodes, uint64_t UsedEdges,
                                 std::vector<EdgeId> &Seq,
                                 std::vector<std::vector<EdgeId>> &Out) const {
  const Decomposition &D = *Decomp;
  // Sound termination: some *single* bound node must witness the whole
  // target combination (its key columns cover dom(s) ∪ C). Confirming
  // each column on a different branch would fabricate combinations that
  // are not in the relation (the join fallacy).
  for (NodeId N = 0; N < D.numNodes(); ++N)
    if (((BoundNodes >> N) & 1) && D.node(N).KeyCols.containsAll(Target)) {
      Out.push_back(Seq);
      return;
    }
  for (const auto &E : D.edges()) {
    if ((UsedEdges >> E.Id) & 1)
      continue;
    if (!((BoundNodes >> E.Src) & 1))
      continue;
    // Prune edges that bind no new node: re-traversing cannot help.
    if ((BoundNodes >> E.Dst) & 1)
      continue;
    Seq.push_back(E.Id);
    enumerateSeqs(Confirmed | E.Cols, Target, BoundNodes | (1ULL << E.Dst),
                  UsedEdges | (1ULL << E.Id), Seq, Out);
    Seq.pop_back();
  }
}

std::vector<Plan> QueryPlanner::enumerateQueryPlans(ColumnSet DomS,
                                                    ColumnSet C) const {
  // Every column of dom(s) and C must be *confirmed* by a traversed edge
  // (presence of the input key columns is an observation too — this is
  // what makes membership queries sound).
  ColumnSet Target = DomS | C;
  std::vector<std::vector<EdgeId>> Seqs;
  std::vector<EdgeId> Scratch;
  enumerateSeqs(ColumnSet::empty(), Target, 1ULL << Decomp->root(), 0,
                Scratch, Seqs);
  std::vector<Plan> Plans;
  for (const auto &Seq : Seqs)
    if (auto P = buildPlan(Seq, DomS, C, /*ForMutation=*/false))
      Plans.push_back(std::move(*P));
  return Plans;
}

Plan QueryPlanner::planQuery(ColumnSet DomS, ColumnSet C) const {
  std::vector<Plan> Plans = enumerateQueryPlans(DomS, C);
  assert(!Plans.empty() && "no valid query plan exists");
  const Plan *Best = &Plans[0];
  double BestCost = estimatePlanCost(Plans[0], Params);
  for (size_t I = 1; I < Plans.size(); ++I) {
    double Cost = estimatePlanCost(Plans[I], Params);
    if (Cost < BestCost ||
        (Cost == BestCost && Plans[I].Stmts.size() < Best->Stmts.size())) {
      Best = &Plans[I];
      BestCost = Cost;
    }
  }
  return *Best;
}

/// Builds the Lock statement a mutation plan takes at node \p N: one
/// selector per edge hosted there — a single by-columns stripe when
/// \p SingleStripeOk accepts the edge, all stripes otherwise — plus
/// \p SpecSel for the §4.5 present-target duty of speculative incoming
/// edges. Returns false when nothing is placed at \p N (no statement
/// to emit). The caller sets InVar.
template <typename Pred>
static bool buildMutationLock(const Decomposition &D, const LockPlacement &LP,
                              NodeId N, const Pred &SingleStripeOk,
                              StripeSel SpecSel, PlanStmt &L) {
  L = PlanStmt();
  L.K = PlanStmt::Kind::Lock;
  L.Node = N;
  L.Mode = LockMode::Exclusive;
  for (const auto &Edge : D.edges()) {
    const EdgePlacement &EP = LP.edgePlacement(Edge.Id);
    if (EP.Host != N)
      continue;
    StripeSel Sel = StripeSel::all();
    if (LP.nodeStripes(N) <= 1)
      Sel = StripeSel::byCols(ColumnSet::empty());
    else if (SingleStripeOk(Edge))
      Sel = StripeSel::byCols(EP.StripeCols);
    if (std::find(L.Sels.begin(), L.Sels.end(), Sel) == L.Sels.end())
      L.Sels.push_back(Sel);
  }
  for (EdgeId E : D.node(N).InEdges)
    if (LP.edgePlacement(E).Speculative &&
        std::find(L.Sels.begin(), L.Sels.end(), SpecSel) == L.Sels.end())
      L.Sels.push_back(SpecSel);
  return !L.Sels.empty();
}

Plan QueryPlanner::planRemoveLocate(ColumnSet DomS) const {
  // Mutation locate plans visit every node in topological order: read
  // the node's incoming edges (their hosts are dominators, so their
  // locks were emitted at earlier nodes), then emit one Lock statement
  // for the node covering (a) every edge hosted there and (b) the
  // present-target duty for speculative incoming edges (§4.5 writer
  // protocol: with the absent-case host stripe held exclusively,
  // entries are pinned, so the target lock may be taken at the target's
  // own topological position). This keeps all Lock statements in the
  // global order by construction, for any decomposition shape.
  const Decomposition &D = *Decomp;
  const LockPlacement &LP = *Placement;

  Plan P;
  P.Decomp = Decomp;
  P.Placement = Placement;
  P.InputCols = DomS;
  P.BindSlots = DomS.members();
  P.OutputCols = D.spec().allColumns();
  P.DomS = DomS;
  P.Op = PlanOp::RemoveLocate;
  P.ForMutation = true;

  PlanVar CurVar = 0;
  ColumnSet Bound = DomS;
  std::vector<NodeId> LockedOrder;

  for (NodeId N : D.topologicalOrder()) {
    // (a) Read every incoming edge (binds instances of N and joins in
    // the edge columns). Hosts of these edges dominate their sources,
    // so their Lock statements were emitted at earlier nodes.
    for (EdgeId E : D.node(N).InEdges) {
      PlanStmt S;
      S.K = Bound.containsAll(D.edge(E).Cols) ? PlanStmt::Kind::Lookup
                                              : PlanStmt::Kind::Scan;
      S.InVar = CurVar;
      S.OutVar = P.NumVars++;
      S.Edge = E;
      P.Stmts.push_back(S);
      CurVar = S.OutVar;
      Bound |= D.edge(E).Cols;
    }

    // (b) One Lock statement for this node: hosted-edge stripes (single
    // stripe when dom(s) binds the stripe columns) plus the speculative
    // present-target lock (conservatively all stripes here — the locate
    // traversal reads the target's entries too).
    PlanStmt L;
    if (!buildMutationLock(
            D, LP, N,
            [&](const Decomposition::Edge &Edge) {
              return DomS.containsAll(LP.edgePlacement(Edge.Id).StripeCols);
            },
            StripeSel::all(), L))
      continue; // nothing placed at this node
    L.InVar = CurVar;
    P.Stmts.push_back(std::move(L));
    LockedOrder.push_back(N);
  }

  for (auto It = LockedOrder.rbegin(); It != LockedOrder.rend(); ++It) {
    PlanStmt U;
    U.K = PlanStmt::Kind::Unlock;
    U.InVar = CurVar;
    U.Node = *It;
    P.Stmts.push_back(U);
  }
  P.ResultVar = CurVar;

  assert(checkPlanValidity(P).ok() && "mutation plan must be valid");
  return P;
}

Plan QueryPlanner::planRemove(ColumnSet DomS) const {
  return planRemoveCore(DomS, EmitMirrorWrites);
}

Plan QueryPlanner::planRemoveCore(ColumnSet DomS, bool Mirror) const {
  // The locate traversal, with the write epilogue spliced in front of
  // the cosmetic unlocks: erase the matched tuple's entries bottom-up
  // (reverse topological order), cascading husk cleanup — a node
  // instance belongs exclusively to the tuple when its key columns form
  // a superkey; other instances are shared and their incoming entries
  // survive until they empty out. Then the count adjustment.
  const Decomposition &D = *Decomp;
  Plan P = planRemoveLocate(DomS);
  P.Op = PlanOp::Remove;

  std::vector<PlanStmt> Unlocks;
  while (!P.Stmts.empty() && P.Stmts.back().K == PlanStmt::Kind::Unlock) {
    Unlocks.push_back(P.Stmts.back());
    P.Stmts.pop_back();
  }
  std::reverse(Unlocks.begin(), Unlocks.end());

  std::vector<NodeId> Topo = D.topologicalOrder();
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It) {
    NodeId N = *It;
    if (N == D.root())
      continue;
    bool Owned = D.spec().isKey(D.node(N).KeyCols);
    for (EdgeId E : D.node(N).InEdges) {
      PlanStmt S;
      S.K = PlanStmt::Kind::EraseEdge;
      S.InVar = P.ResultVar;
      S.Edge = E;
      S.OnlyIfHusk = !Owned;
      P.Stmts.push_back(std::move(S));
    }
  }
  PlanStmt C;
  C.K = PlanStmt::Kind::UpdateCount;
  C.InVar = P.ResultVar;
  C.Delta = -1;
  P.Stmts.push_back(C);
  // Dual-write epilogue (live migration): replay the committed remove
  // on the shadow representation while the exclusive source locks are
  // still held, so no operation can observe the representations
  // disagreeing. InVar gates the replay on the locate having matched.
  if (Mirror) {
    PlanStmt M;
    M.K = PlanStmt::Kind::MirrorWrite;
    M.InVar = P.ResultVar;
    P.Stmts.push_back(M);
  }
  for (PlanStmt &U : Unlocks)
    P.Stmts.push_back(std::move(U));

  assert(checkPlanValidity(P).ok() && "remove plan must be valid");
  return P;
}

Plan QueryPlanner::planInsert(ColumnSet DomS) const {
  return planInsertCore(DomS, EmitMirrorWrites);
}

Plan QueryPlanner::planInsertCore(ColumnSet DomS, bool Mirror) const {
  const Decomposition &D = *Decomp;
  const LockPlacement &LP = *Placement;
  ColumnSet All = D.spec().allColumns();

  Plan P;
  P.Decomp = Decomp;
  P.Placement = Placement;
  P.InputCols = All; // the plan executes over the full tuple s ∪ t
  P.BindSlots = All.members();
  P.OutputCols = All;
  P.DomS = DomS;
  P.Op = PlanOp::Insert;
  P.ForMutation = true;

  std::vector<NodeId> Topo = D.topologicalOrder();
  PlanVar CurVar = 0;
  std::vector<NodeId> LockedOrder;

  // Phase 1 (growing): resolve existing instances with the full tuple
  // (Probe: total lookups — absent subtrees stay unbound and are
  // created in phase 3) and acquire, exclusively and in the global
  // topological lock order, the stripes of every edge hosted at each
  // resolved instance, plus the §4.5 present-target lock for
  // speculative incoming edges.
  for (NodeId N : Topo) {
    for (EdgeId E : D.node(N).InEdges) {
      PlanStmt S;
      S.K = PlanStmt::Kind::Probe;
      S.InVar = CurVar;
      S.OutVar = P.NumVars++;
      S.Edge = E;
      P.Stmts.push_back(S);
      CurVar = S.OutVar;
    }
    // A single stripe (selected by the full tuple) covers a hosted edge
    // when every stripe column within the edge's own columns is fixed
    // by dom(s): the absence check's reads then stay on that stripe
    // (stripe columns within the source keys are pinned by the instance
    // itself). Otherwise all stripes, conservatively — the absence
    // check may scan entries of sibling tuples (§4.4). Speculative
    // in-edges need only stripe 0 of the (fully resolved) target.
    PlanStmt L;
    if (!buildMutationLock(
            D, LP, N,
            [&](const Decomposition::Edge &Edge) {
              return DomS.containsAll(
                  LP.edgePlacement(Edge.Id).StripeCols & Edge.Cols);
            },
            StripeSel::first(), L))
      continue; // nothing placed at this node
    L.InVar = CurVar;
    P.Stmts.push_back(std::move(L));
    LockedOrder.push_back(N);
  }

  // Phase 2: the put-if-absent membership check (§2), driven by s alone
  // — restart from the root with the input restricted to dom(s), then
  // confirm (or refute) a matching tuple across every edge.
  PlanStmt R;
  R.K = PlanStmt::Kind::Restrict;
  R.InVar = 0;
  R.OutVar = P.NumVars++;
  R.Cols = DomS;
  P.Stmts.push_back(R);
  PlanVar CheckVar = R.OutVar;
  ColumnSet Bound = DomS;
  for (NodeId N : Topo)
    for (EdgeId E : D.node(N).OutEdges) {
      PlanStmt S;
      S.K = Bound.containsAll(D.edge(E).Cols) ? PlanStmt::Kind::Lookup
                                              : PlanStmt::Kind::Scan;
      S.InVar = CheckVar;
      S.OutVar = P.NumVars++;
      S.Edge = E;
      P.Stmts.push_back(S);
      CheckVar = S.OutVar;
      Bound |= D.edge(E).Cols;
    }
  PlanStmt G;
  G.K = PlanStmt::Kind::GuardAbsent;
  G.InVar = CheckVar;
  P.Stmts.push_back(G);

  // Phase 3: create missing instances (top-down), then every entry,
  // unifying shared nodes through the single binding per state.
  for (NodeId N : Topo) {
    if (N == D.root())
      continue;
    PlanStmt C;
    C.K = PlanStmt::Kind::CreateNode;
    C.InVar = CurVar;
    C.OutVar = P.NumVars++;
    C.Node = N;
    P.Stmts.push_back(C);
    CurVar = C.OutVar;
  }
  for (NodeId N : Topo)
    for (EdgeId E : D.node(N).OutEdges) {
      PlanStmt W;
      W.K = PlanStmt::Kind::InsertEdge;
      W.InVar = CurVar;
      W.Edge = E;
      P.Stmts.push_back(W);
    }
  PlanStmt C;
  C.K = PlanStmt::Kind::UpdateCount;
  C.InVar = CurVar;
  C.Delta = 1;
  P.Stmts.push_back(C);
  // Dual-write epilogue (live migration): a GuardAbsent abort never
  // reaches this statement, so the replay runs exactly when the insert
  // won — the shadow's own put-if-absent makes it idempotent against
  // the backfill having copied the tuple first.
  if (Mirror) {
    PlanStmt M;
    M.K = PlanStmt::Kind::MirrorWrite;
    M.InVar = CurVar;
    P.Stmts.push_back(M);
  }

  for (auto It = LockedOrder.rbegin(); It != LockedOrder.rend(); ++It) {
    PlanStmt U;
    U.K = PlanStmt::Kind::Unlock;
    U.InVar = CurVar;
    U.Node = *It;
    P.Stmts.push_back(U);
  }
  P.ResultVar = CurVar;

  assert(checkPlanValidity(P).ok() && "insert plan must be valid");
  return P;
}

//===----------------------------------------------------------------------===//
// Transaction-support plans (src/txn)
//===----------------------------------------------------------------------===//

Plan QueryPlanner::planQueryForUpdate(ColumnSet DomS, ColumnSet C) const {
  // Same traversal enumeration as planQuery, built in mutation mode:
  // every lock exclusive, speculative edges on the §4.5 writer protocol
  // (plain lookup/scan under the exclusive absent-case host lock, then
  // the target locked at its own topological position), so the plan
  // never speculates — inside a transaction a restart must not be
  // triggered by a wrong guess, only by a lock conflict the scope can
  // act on.
  ColumnSet Target = DomS | C;
  std::vector<std::vector<EdgeId>> Seqs;
  std::vector<EdgeId> Scratch;
  enumerateSeqs(ColumnSet::empty(), Target, 1ULL << Decomp->root(), 0,
                Scratch, Seqs);
  std::optional<Plan> Best;
  double BestCost = 0.0;
  for (const auto &Seq : Seqs) {
    std::optional<Plan> P = buildPlan(Seq, DomS, C, /*ForMutation=*/true);
    if (!P)
      continue;
    double Cost = estimatePlanCost(*P, Params);
    if (!Best || Cost < BestCost ||
        (Cost == BestCost && P->Stmts.size() < Best->Stmts.size())) {
      Best = std::move(P);
      BestCost = Cost;
    }
  }
  // Some traversals reject the exclusive lock schedule (a speculative
  // scan whose host lock was already emitted narrower, say); when they
  // all do, the full locate walk of planRemoveLocate is valid for every
  // shape and covers any output columns.
  Plan P = Best ? std::move(*Best) : planRemoveLocate(DomS);
  P.Op = PlanOp::QueryForUpdate;
  P.OutputCols = Best ? C : Decomp->spec().allColumns();
  assert(checkPlanValidity(P).ok() && "for-update query plan must be valid");
  return P;
}

Plan QueryPlanner::plan(PlanOp Op, ColumnSet DomS, ColumnSet C) const {
  switch (Op) {
  case PlanOp::Query:
    return planQuery(DomS, C);
  case PlanOp::RemoveLocate:
    return planRemoveLocate(DomS);
  case PlanOp::Remove:
    return planRemove(DomS);
  case PlanOp::Insert:
    return planInsert(DomS);
  case PlanOp::QueryForUpdate:
    return planQueryForUpdate(DomS, C);
  case PlanOp::UndoInsert:
    return planUndoInsert();
  case PlanOp::UndoRemove:
    return planUndoRemove();
  }
  crs_unreachable("unknown plan op");
}

Plan QueryPlanner::planUndoInsert() const {
  // The compensating remove executes with the undo log's *full* tuple:
  // keyed on every column, each locate step is a lookup and each
  // hosted-edge stripe selector hashes bound columns, which keeps the
  // undo's acquisitions on the stripes the forward insert already
  // holds.
  Plan P = planRemoveCore(Decomp->spec().allColumns(), /*Mirror=*/false);
  P.Op = PlanOp::UndoInsert;
  // Narrow the §4.5 present-target duty from all stripes to stripe 0,
  // matching the forward insert's schedule exactly: with every column
  // bound, hosted-edge selectors are always by-columns, so any
  // remaining all-stripes selector is a present-target duty — and an
  // undo must never *need* a lock the scope might not already hold
  // (stripe 0 suffices for the writer protocol; the locate's reads are
  // covered by the by-columns selectors).
  for (PlanStmt &St : P.Stmts)
    if (St.K == PlanStmt::Kind::Lock)
      for (StripeSel &Sel : St.Sels)
        if (Sel.allStripes())
          Sel = StripeSel::first();
  assert(checkPlanValidity(P).ok() && "undo-insert plan must be valid");
  return P;
}

Plan QueryPlanner::planUndoRemove() const {
  // The compensating insert re-inserts the captured tuple with
  // dom(s) = all columns: the membership check degenerates to keyed
  // lookups of the tuple itself, and the guard passes because the
  // transaction's retained exclusive locks kept the key absent since
  // the forward remove committed.
  Plan P = planInsertCore(Decomp->spec().allColumns(), /*Mirror=*/false);
  P.Op = PlanOp::UndoRemove;
  assert(checkPlanValidity(P).ok() && "undo-remove plan must be valid");
  return P;
}
