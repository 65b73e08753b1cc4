//===- lockplace/LockPlacement.cpp - Lock placements --------------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "lockplace/LockPlacement.h"

#include "support/Compiler.h"

#include <functional>

using namespace crs;

LockPlacement::LockPlacement(const Decomposition &D)
    : Decomp(&D), EdgePlacements(D.numEdges()), NodeStripes(D.numNodes(), 1) {
  // Default: fine-grained — each edge locked at its source (ψ2 of §4.3).
  for (const auto &E : D.edges())
    EdgePlacements[E.Id] = {E.Src, ColumnSet::empty(), false};
}

void LockPlacement::setEdge(EdgeId E, EdgePlacement P) {
  assert(E < EdgePlacements.size() && "bad edge id");
  EdgePlacements[E] = P;
}

void LockPlacement::setNodeStripes(NodeId N, uint32_t Stripes) {
  assert(N < NodeStripes.size() && "bad node id");
  assert(Stripes >= 1 && "a node carries at least one lock");
  NodeStripes[N] = Stripes;
}

uint32_t LockPlacement::instanceStripes(NodeId N) const {
  for (const auto &E : Decomp->edges()) {
    const EdgePlacement &P = EdgePlacements[E.Id];
    if (P.Host == N || (P.Speculative && E.Dst == N))
      return NodeStripes[N];
  }
  return 0;
}

/// Visits every edge on every path from \p From to \p To (exclusive of
/// edges leaving To). Decomposition DAGs are tiny; plain DFS suffices.
static void forEachEdgeOnPaths(const Decomposition &D, NodeId From, NodeId To,
                               const std::function<void(EdgeId)> &Visit) {
  // Collect nodes that can reach To (backwards closure).
  std::vector<bool> ReachesTo(D.numNodes(), false);
  ReachesTo[To] = true;
  // Iterate in reverse topological order for a single-pass closure.
  std::vector<NodeId> Topo = D.topologicalOrder();
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It)
    for (EdgeId E : D.node(*It).OutEdges)
      if (ReachesTo[D.edge(E).Dst])
        ReachesTo[*It] = true;
  // Forward DFS from From staying within nodes that reach To.
  std::vector<bool> Visited(D.numNodes(), false);
  std::vector<NodeId> Stack{From};
  while (!Stack.empty()) {
    NodeId N = Stack.back();
    Stack.pop_back();
    if (Visited[N] || N == To)
      continue;
    Visited[N] = true;
    for (EdgeId E : D.node(N).OutEdges) {
      if (!ReachesTo[D.edge(E).Dst] && D.edge(E).Dst != To)
        continue;
      Visit(E);
      Stack.push_back(D.edge(E).Dst);
    }
  }
}

ValidationResult LockPlacement::validate() const {
  ValidationResult R;
  auto Err = [&](std::string Msg) { R.Errors.push_back(std::move(Msg)); };
  const Decomposition &D = *Decomp;

  for (const auto &E : D.edges()) {
    const EdgePlacement &P = EdgePlacements[E.Id];
    std::string Tag = "edge " + D.node(E.Src).Name + "->" +
                      D.node(E.Dst).Name + ": ";

    if (P.Speculative) {
      // §4.5: present entries are locked at the target; that only works
      // when unlocked reads of the container are safe and linearizable.
      ContainerTraits Traits = containerTraits(E.Kind);
      if (!Traits.linearizableLookup() || !Traits.concurrencySafe())
        Err(Tag + "speculative placement requires a concurrency-safe "
                  "container with linearizable lookups");
    }

    // Host (for speculative edges: the absent-instance host) must
    // dominate the source so every path meets the lock first.
    if (!D.dominates(P.Host, E.Src)) {
      Err(Tag + "host " + D.node(P.Host).Name + " does not dominate source");
      continue;
    }

    // Stripe columns must be computable from an edge-instance tuple.
    ColumnSet Visible = D.node(E.Src).KeyCols | E.Cols;
    if (!Visible.containsAll(P.StripeCols))
      Err(Tag + "stripe columns not bound by the edge instance tuple");
    // ... and must include nothing below the host's knowledge only when
    // the host is an ancestor: stripes at the host are selected by the
    // transaction, so any visible column is fine.

    // Path-sharing condition (§4.3): every edge on any path from the
    // host to the source shares this edge's placement.
    forEachEdgeOnPaths(D, P.Host, E.Src, [&](EdgeId PathEdge) {
      const EdgePlacement &Q = EdgePlacements[PathEdge];
      if (Q.Host != P.Host || Q.StripeCols != P.StripeCols ||
          Q.Speculative != P.Speculative)
        Err(Tag + "edge " + D.node(D.edge(PathEdge).Src).Name + "->" +
            D.node(D.edge(PathEdge).Dst).Name +
            " on the host-to-source path has a different placement");
    });
  }
  return R;
}

bool LockPlacement::allowsConcurrentAccess(EdgeId E) const {
  const EdgePlacement &P = EdgePlacements[E];
  if (P.Speculative)
    return true;
  // More than one stripe at the host means two transactions can hold
  // different stripes and touch the same container instance at once —
  // unless the stripe is constant per container instance, i.e. selected
  // only by columns already fixed by the *source* node's keys.
  if (NodeStripes[P.Host] > 1) {
    const Decomposition &D = *Decomp;
    ColumnSet SourceKeys = D.node(D.edge(E).Src).KeyCols;
    if (!SourceKeys.containsAll(P.StripeCols))
      return true;
    // Stripe constant per instance: all entries of one container map to
    // one stripe; access to that instance is serialized by it.
  }
  return false;
}

ValidationResult LockPlacement::validateContainerSafety() const {
  ValidationResult R;
  const Decomposition &D = *Decomp;
  for (const auto &E : D.edges()) {
    if (!allowsConcurrentAccess(E.Id))
      continue;
    if (!containerTraits(E.Kind).concurrencySafe())
      R.Errors.push_back(
          "edge " + D.node(E.Src).Name + "->" + D.node(E.Dst).Name +
          " uses non-concurrent " + containerKindName(E.Kind) +
          " but the lock placement permits concurrent access");
  }
  return R;
}

std::string LockPlacement::str() const {
  const Decomposition &D = *Decomp;
  std::string Out;
  for (const auto &E : D.edges()) {
    const EdgePlacement &P = EdgePlacements[E.Id];
    if (!Out.empty())
      Out += "; ";
    Out += D.node(E.Src).Name + "->" + D.node(E.Dst).Name + " @";
    if (P.Speculative)
      Out += "target/spec(absent@" + D.node(P.Host).Name + ")";
    else
      Out += D.node(P.Host).Name;
    if (NodeStripes[P.Host] > 1)
      Out += "[" + std::to_string(NodeStripes[P.Host]) + " stripes on " +
             D.spec().catalog().str(P.StripeCols) + "]";
  }
  return Out;
}
