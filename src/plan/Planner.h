//===- plan/Planner.h - The concurrent query planner ------------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent query planner (paper §5): compiles relational
/// operations into valid plans tailored to a decomposition and lock
/// placement. Following §5.2, the planner enumerates candidate plans —
/// traversal orders over the decomposition's edges, with lock statements
/// interleaved in the global lock order — and selects the cheapest under
/// the heuristic cost model. Only two-phase plans are considered: a
/// growing phase of lock/lookup/scan statements and a shrinking phase of
/// unlocks, so every plan is trivially two-phase.
///
/// Mutations reuse the machinery (§5.2): `remove` compiles to a locate
/// plan that walks *every* edge under exclusive locks, followed by a
/// write epilogue of EraseEdge statements cascading husk cleanup.
/// `insert` compiles to a topological resolve-and-lock schedule (Probe +
/// Lock statements), the s-driven put-if-absent membership check behind
/// a Restrict/GuardAbsent pair, and a CreateNode/InsertEdge write phase
/// — the whole operation is plan IR, validated and explainable like any
/// query.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_PLAN_PLANNER_H
#define CRS_PLAN_PLANNER_H

#include "plan/CostModel.h"
#include "plan/QueryIR.h"

#include <optional>
#include <vector>

namespace crs {

class QueryPlanner {
public:
  QueryPlanner(const Decomposition &D, const LockPlacement &P,
               CostParams CP = {});

  /// Compiles `query r s C` for inputs with dom(s) = \p DomS: enumerates
  /// valid traversals, scores them, returns the cheapest plan.
  Plan planQuery(ColumnSet DomS, ColumnSet C) const;

  /// All valid candidate query plans (for tests and the planner bench).
  std::vector<Plan> enumerateQueryPlans(ColumnSet DomS, ColumnSet C) const;

  /// Compiles the locate phase of `remove r s` (s a key with
  /// dom(s) = \p DomS): an exclusive-mode traversal covering every edge,
  /// binding every node instance and every column of matching tuples.
  Plan planRemoveLocate(ColumnSet DomS) const;

  /// Compiles the full `remove r s` plan: the locate traversal plus the
  /// write epilogue — EraseEdge statements in reverse topological order
  /// (husk-gated for shared nodes) and the count adjustment.
  Plan planRemove(ColumnSet DomS) const;

  /// Compiles the full `insert r s t` plan for inputs with
  /// dom(s) = \p DomS. The plan executes over the *full* tuple s ∪ t:
  /// a topological Probe/Lock schedule resolving existing instances and
  /// acquiring every needed stripe exclusively in the global order, the
  /// put-if-absent membership check (Restrict to dom(s), then
  /// lookup/scan every edge, then GuardAbsent), and the write phase
  /// (CreateNode top-down, InsertEdge for every edge, UpdateCount).
  Plan planInsert(ColumnSet DomS) const;

  /// \name Transaction-support plans (src/txn)
  /// @{

  /// Compiles `query r s C` to run under *exclusive* locks — the read
  /// arm of a transaction (PlanOp::QueryForUpdate). Enumerates the same
  /// traversals as planQuery but locks in mutation mode (speculative
  /// edges switch to the §4.5 writer protocol, which never restarts);
  /// when no enumerated traversal admits the exclusive lock schedule,
  /// falls back to the always-valid full locate walk of
  /// planRemoveLocate.
  Plan planQueryForUpdate(ColumnSet DomS, ColumnSet C) const;

  /// Compiles the inverse of an insert (PlanOp::UndoInsert): a remove
  /// plan keyed on *every* column, executed with the undo log's full
  /// tuple, so each locate step is a keyed lookup and each stripe
  /// selector hashes bound columns. Never mirrors (see PlanOp).
  Plan planUndoInsert() const;

  /// Compiles the inverse of a remove (PlanOp::UndoRemove): a
  /// put-if-absent insert keyed on every column, re-inserting the undo
  /// log's captured tuple. Never mirrors (see PlanOp).
  Plan planUndoRemove() const;

  /// @}

  /// Compiles the plan for signature (\p Op, \p DomS, \p C): the one
  /// dispatch over the plan* entry points above. \p C is read by the
  /// two query kinds only, and the undo kinds ignore \p DomS (they key
  /// on every column).
  Plan plan(PlanOp Op, ColumnSet DomS, ColumnSet C) const;

  double cost(const Plan &P) const { return estimatePlanCost(P, Params); }

  const CostParams &costParams() const { return Params; }

  /// While set, planInsert/planRemove append a MirrorWrite epilogue to
  /// every mutation plan: the dual-write phase of a live representation
  /// migration (runtime/Migration.h), kept inside the plan IR so it is
  /// validated, priced, and visible in explain like any statement.
  /// Query plans are unaffected — reads stay on the source
  /// representation until the migration's final swap.
  void setEmitMirrorWrites(bool Emit) { EmitMirrorWrites = Emit; }
  bool emitMirrorWrites() const { return EmitMirrorWrites; }

private:
  const Decomposition *Decomp;
  const LockPlacement *Placement;
  CostParams Params;
  std::vector<uint32_t> TopoIdx;
  bool EmitMirrorWrites = false;

  /// Builds a plan from a traversal order; returns nullopt if lock
  /// statements cannot be emitted in the global lock order for this
  /// traversal.
  std::optional<Plan> buildPlan(const std::vector<EdgeId> &Seq,
                                ColumnSet DomS, ColumnSet OutputCols,
                                bool ForMutation) const;

  /// The shared cores behind planRemove/planUndoInsert and
  /// planInsert/planUndoRemove: \p Mirror controls the MirrorWrite
  /// epilogue (undo plans never carry one).
  Plan planRemoveCore(ColumnSet DomS, bool Mirror) const;
  Plan planInsertCore(ColumnSet DomS, bool Mirror) const;

  void enumerateSeqs(ColumnSet Confirmed, ColumnSet Target,
                     uint64_t BoundNodes, uint64_t UsedEdges,
                     std::vector<EdgeId> &Seq,
                     std::vector<std::vector<EdgeId>> &Out) const;
};

} // namespace crs

#endif // CRS_PLAN_PLANNER_H
