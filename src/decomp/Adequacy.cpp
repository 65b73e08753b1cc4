//===- decomp/Adequacy.cpp - Adequacy checking for decompositions -------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// Adequacy (paper §4.1): a decomposition must be able to represent every
/// relation satisfying the relational specification. We check these
/// sufficient structural conditions:
///
///   1. unique root `ρ: ∅ ▷ C`; all nodes reachable; acyclic;
///   2. each edge uv with u: A ▷ B, v: A' ▷ B' satisfies
///      A' = A ∪ cols(uv), ∅ ≠ cols(uv) ⊆ B, B' = B \ cols(uv),
///      consistently across all incoming edges of v;
///   3. leaves have empty residual (every root-to-leaf path binds every
///      column exactly once);
///   4. non-leaves have at least one outgoing edge per residual column;
///   5. SingletonCell edges require A →Δ cols(uv);
///   6. an edge binds at most MaxEdgeColumns columns (container entries
///      hold its values inline).
///
/// These imply the paper's stated consequence A' ⊇ A ∪ cols(uv).
///
//===----------------------------------------------------------------------===//

#include "decomp/Decomposition.h"

#include "support/Compiler.h"

using namespace crs;

bool Decomposition::edgeMaySingleton(EdgeId E) const {
  const Edge &Ed = Edges[E];
  return Spec->determines(Nodes[Ed.Src].KeyCols, Ed.Cols);
}

ValidationResult Decomposition::validate() const {
  ValidationResult R;
  auto Err = [&](std::string Msg) { R.Errors.push_back(std::move(Msg)); };

  if (Nodes.empty()) {
    Err("decomposition has no nodes");
    return R;
  }

  const ColumnCatalog &Cat = Spec->catalog();

  // Condition 1a: the root has type ∅ ▷ C.
  const Node &Root = Nodes[root()];
  if (!Root.KeyCols.isEmpty())
    Err("root node must have empty key columns");
  if (Root.Residual != Spec->allColumns())
    Err("root residual must be all columns, got " + Cat.str(Root.Residual));
  if (!Root.InEdges.empty())
    Err("root must have no incoming edges");

  // Condition 1b: acyclic (topological order covers every node) and all
  // nodes reachable from the root.
  std::vector<NodeId> Topo = topologicalOrder();
  if (Topo.size() != Nodes.size())
    Err("decomposition graph has a cycle");
  std::vector<bool> Reached(Nodes.size(), false);
  Reached[root()] = true;
  for (NodeId N : Topo)
    for (EdgeId E : Nodes[N].OutEdges)
      if (Reached[N])
        Reached[Edges[E].Dst] = true;
  for (const Node &N : Nodes)
    if (!Reached[N.Id])
      Err("node " + N.Name + " is unreachable from the root");
  for (const Node &N : Nodes)
    if (N.Id != root() && N.InEdges.empty())
      Err("non-root node " + N.Name + " has no incoming edges");

  // Condition 2: per-edge type discipline, consistent across sharing.
  for (const Edge &E : Edges) {
    const Node &U = Nodes[E.Src];
    const Node &V = Nodes[E.Dst];
    std::string Tag = "edge " + U.Name + "->" + V.Name + " ";
    if (E.Cols.isEmpty())
      Err(Tag + "binds no columns");
    if (E.Cols.size() > MaxEdgeColumns)
      Err(Tag + "binds more than " + std::to_string(MaxEdgeColumns) +
          " columns");
    if (!U.Residual.containsAll(E.Cols))
      Err(Tag + "columns " + Cat.str(E.Cols) + " not within source residual " +
          Cat.str(U.Residual));
    if (V.KeyCols != (U.KeyCols | E.Cols))
      Err(Tag + "target key columns " + Cat.str(V.KeyCols) +
          " != source keys ∪ edge columns " + Cat.str(U.KeyCols | E.Cols));
    if (V.Residual != (U.Residual - E.Cols))
      Err(Tag + "target residual " + Cat.str(V.Residual) +
          " != source residual \\ edge columns " +
          Cat.str(U.Residual - E.Cols));
  }

  // Condition 3: leaves bind everything.
  for (const Node &N : Nodes) {
    if (!N.OutEdges.empty())
      continue;
    if (!N.Residual.isEmpty())
      Err("leaf node " + N.Name + " has nonempty residual " +
          Cat.str(N.Residual));
    if (N.KeyCols != Spec->allColumns())
      Err("leaf node " + N.Name + " does not bind all columns");
  }

  // Condition 4: non-leaves can represent their residual.
  for (const Node &N : Nodes)
    if (!N.Residual.isEmpty() && N.OutEdges.empty())
      Err("node " + N.Name + " has residual columns but no outgoing edges");

  // Condition 5: singleton edges require the FD justification.
  for (const Edge &E : Edges)
    if (E.Kind == ContainerKind::SingletonCell && !edgeMaySingleton(E.Id))
      Err("edge " + Nodes[E.Src].Name + "->" + Nodes[E.Dst].Name +
          " uses SingletonCell but " + Cat.str(Nodes[E.Src].KeyCols) +
          " does not determine " + Cat.str(E.Cols));

  return R;
}
