//===- decomp/Decomposition.cpp - Concurrent decompositions ------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "decomp/Decomposition.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace crs;

std::string ValidationResult::str() const {
  std::string Out;
  for (const auto &E : Errors) {
    Out += E;
    Out += '\n';
  }
  return Out;
}

Decomposition::Decomposition(const RelationSpec &Spec) : Spec(&Spec) {}

NodeId Decomposition::addNode(std::string Name, ColumnSet KeyCols,
                              ColumnSet Residual) {
  NodeId Id = static_cast<NodeId>(Nodes.size());
  assert((Id != 0 || KeyCols.isEmpty()) && "root must have empty key set");
  Nodes.push_back({Id, std::move(Name), KeyCols, Residual, {}, {}});
  return Id;
}

EdgeId Decomposition::addEdge(NodeId Src, NodeId Dst, ColumnSet Cols,
                              ContainerKind Kind) {
  assert(Src < Nodes.size() && Dst < Nodes.size() && "bad endpoint");
  EdgeId Id = static_cast<EdgeId>(Edges.size());
  Edges.push_back({Id, Src, Dst, Cols, Kind});
  Nodes[Src].OutEdges.push_back(Id);
  Nodes[Dst].InEdges.push_back(Id);
  return Id;
}

unsigned Decomposition::outSlot(EdgeId E) const {
  const std::vector<EdgeId> &Out = Nodes[Edges[E].Src].OutEdges;
  auto It = std::find(Out.begin(), Out.end(), E);
  assert(It != Out.end() && "edge missing from its source's out-edges");
  return static_cast<unsigned>(It - Out.begin());
}

void Decomposition::setEdgeKind(EdgeId E, ContainerKind Kind) {
  assert(E < Edges.size() && "bad edge id");
  Edges[E].Kind = Kind;
}

std::vector<NodeId> Decomposition::topologicalOrder() const {
  // Kahn's algorithm with a deterministic tie-break (smallest node id
  // first) so the lock order is stable across runs.
  std::vector<unsigned> InDegree(Nodes.size(), 0);
  for (const Edge &E : Edges)
    ++InDegree[E.Dst];
  std::vector<NodeId> Ready;
  for (const Node &N : Nodes)
    if (InDegree[N.Id] == 0)
      Ready.push_back(N.Id);
  std::vector<NodeId> Order;
  while (!Ready.empty()) {
    auto MinIt = std::min_element(Ready.begin(), Ready.end());
    NodeId N = *MinIt;
    Ready.erase(MinIt);
    Order.push_back(N);
    for (EdgeId E : Nodes[N].OutEdges)
      if (--InDegree[Edges[E].Dst] == 0)
        Ready.push_back(Edges[E].Dst);
  }
  return Order; // shorter than Nodes.size() iff the graph has a cycle
}

std::vector<uint32_t> Decomposition::topologicalIndex() const {
  std::vector<NodeId> Order = topologicalOrder();
  std::vector<uint32_t> Index(Nodes.size(), ~0u);
  for (uint32_t I = 0; I < Order.size(); ++I)
    Index[Order[I]] = I;
  return Index;
}

std::string Decomposition::toDot() const {
  std::string Out = "digraph decomposition {\n";
  for (const Node &N : Nodes) {
    Out += "  " + N.Name + " [label=\"" + N.Name + ": " +
           Spec->catalog().str(N.KeyCols) + " |> " +
           Spec->catalog().str(N.Residual) + "\"];\n";
  }
  for (const Edge &E : Edges) {
    Out += "  " + Nodes[E.Src].Name + " -> " + Nodes[E.Dst].Name +
           " [label=\"" + Spec->catalog().str(E.Cols) + " " +
           containerKindName(E.Kind) + "\"";
    if (E.Kind == ContainerKind::SingletonCell)
      Out += ", style=dotted";
    else if (containerTraits(E.Kind).concurrencySafe())
      Out += ", style=dashed";
    Out += "];\n";
  }
  return Out + "}\n";
}

std::string Decomposition::str() const {
  std::string Out;
  for (const Edge &E : Edges) {
    if (!Out.empty())
      Out += "; ";
    Out += Nodes[E.Src].Name + " -" + Spec->catalog().str(E.Cols) + "-> " +
           Nodes[E.Dst].Name + "[" + containerKindName(E.Kind) + "]";
  }
  return Out;
}
