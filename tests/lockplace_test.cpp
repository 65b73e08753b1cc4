//===- tests/lockplace_test.cpp - Lock placement tests ------------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "decomp/Shapes.h"
#include "lockplace/PlacementSchemes.h"
#include "runtime/NodeInstance.h"

#include <gtest/gtest.h>

using namespace crs;

namespace {

TEST(PlacementSchemes, CanonicalSchemesAreWellFormed) {
  RelationSpec Spec = makeGraphSpec();
  for (GraphShape S :
       {GraphShape::Stick, GraphShape::Split, GraphShape::Diamond}) {
    GraphContainers CC{ContainerKind::ConcurrentHashMap,
                       ContainerKind::ConcurrentHashMap};
    Decomposition D = makeGraphDecomposition(Spec, S, CC);
    EXPECT_TRUE(makeCoarsePlacement(D).validate().ok());
    EXPECT_TRUE(makeFinePlacement(D).validate().ok());
    EXPECT_TRUE(makeStripedPlacement(D, 64).validate().ok());
    EXPECT_TRUE(makeSpeculativePlacement(D, 64).validate().ok());
  }
}

TEST(Placement, CoarseSerializesEverything) {
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(Spec, GraphShape::Split);
  LockPlacement P = makeCoarsePlacement(D);
  for (const auto &E : D.edges()) {
    EXPECT_EQ(P.edgePlacement(E.Id).Host, D.root());
    EXPECT_FALSE(P.allowsConcurrentAccess(E.Id));
  }
  // Non-concurrent containers are therefore legal everywhere.
  EXPECT_TRUE(P.validateContainerSafety().ok());
}

TEST(Placement, StripingRequiresConcurrencySafety) {
  RelationSpec Spec = makeGraphSpec();
  // HashMap at the striped level: illegal.
  Decomposition D = makeGraphDecomposition(
      Spec, GraphShape::Split,
      {ContainerKind::HashMap, ContainerKind::HashMap});
  LockPlacement P = makeStripedPlacement(D, 1024);
  EXPECT_TRUE(P.validate().ok());
  ValidationResult Safety = P.validateContainerSafety();
  ASSERT_FALSE(Safety.ok());
  EXPECT_NE(Safety.str().find("HashMap"), std::string::npos);

  // ConcurrentHashMap at the striped level: legal. The second level is
  // serialized by per-source locks, so HashMap is fine there.
  Decomposition D2 = makeGraphDecomposition(
      Spec, GraphShape::Split,
      {ContainerKind::ConcurrentHashMap, ContainerKind::HashMap});
  EXPECT_TRUE(makeStripedPlacement(D2, 1024).validateContainerSafety().ok());
}

TEST(Placement, StripeCountOneIsAlwaysSerialized) {
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(
      Spec, GraphShape::Stick, {ContainerKind::HashMap,
                                ContainerKind::HashMap});
  LockPlacement P = makeStripedPlacement(D, 1);
  EXPECT_TRUE(P.validate().ok());
  EXPECT_TRUE(P.validateContainerSafety().ok());
  for (const auto &E : D.edges())
    EXPECT_FALSE(P.allowsConcurrentAccess(E.Id));
}

TEST(Placement, SpeculativeRequiresLinearizableLookups) {
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(
      Spec, GraphShape::Diamond,
      {ContainerKind::HashMap, ContainerKind::HashMap});
  // Force a speculative placement onto a non-concurrent container.
  LockPlacement P = makeFinePlacement(D);
  P.setEdge(0, {D.root(), Spec.cols({"src"}), /*Speculative=*/true});
  ValidationResult R = P.validate();
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.str().find("speculative"), std::string::npos);
}

TEST(Placement, HostMustDominateSource) {
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(Spec, GraphShape::Diamond);
  LockPlacement P = makeFinePlacement(D);
  // Edge 4 is z->w; x (node 1) does not dominate z (z reachable via y).
  P.setEdge(4, {1, ColumnSet::empty(), false});
  ValidationResult R = P.validate();
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.str().find("dominate"), std::string::npos);
}

TEST(Placement, PathSharingConditionEnforced) {
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(Spec, GraphShape::Stick);
  LockPlacement P = makeFinePlacement(D);
  // Host edge u->v (edge 1) at the root, but leave rho->u (edge 0) at
  // its source: the path from the host to the source has a different
  // placement — the logical-to-physical mapping would be unstable.
  P.setEdge(1, {D.root(), ColumnSet::empty(), false});
  P.setEdge(0, {0, ColumnSet::empty(), false});
  // rho->u is hosted at rho too (source == rho == host), so this IS
  // consistent; break it instead by hosting rho->u... at u? u does not
  // dominate... u == source, that's legal. Break via stripe columns:
  P.setNodeStripes(D.root(), 8);
  P.setEdge(0, {D.root(), Spec.cols({"src"}), false});
  // Now edge 1 is hosted at rho with no stripe cols, but the path edge
  // rho->u uses stripe columns {src}: different placements.
  ValidationResult R = P.validate();
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.str().find("path"), std::string::npos);
}

TEST(Placement, StripeColumnsMustBeVisible) {
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(Spec, GraphShape::Stick);
  LockPlacement P = makeFinePlacement(D);
  P.setNodeStripes(D.root(), 8);
  // Edge rho->u binds {src}; striping it by {weight} is not computable
  // from an edge-instance tuple.
  P.setEdge(0, {D.root(), Spec.cols({"weight"}), false});
  ValidationResult R = P.validate();
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.str().find("stripe"), std::string::npos);
}

TEST(Placement, ConstantStripeActsAsSerializer) {
  // StripeCols = ∅ with k stripes pins every edge instance to one
  // stripe: the container is serialized even though the node is striped
  // (the Split 2 "coarse right half" trick).
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(Spec, GraphShape::Split);
  LockPlacement P = makeFinePlacement(D);
  P.setNodeStripes(D.root(), 1024);
  P.setEdge(0, {D.root(), Spec.cols({"src"}), false});
  P.setEdge(1, {D.root(), ColumnSet::empty(), false});
  EXPECT_TRUE(P.allowsConcurrentAccess(0));
  EXPECT_FALSE(P.allowsConcurrentAccess(1));
}

TEST(InstanceStripes, OnlyPlacedNodesCarryLocks) {
  // Split: rho hosts the level-1 edges (1024 stripes), u/v/w/y host
  // their own out-edge, and the leaves x/z host nothing.
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(
      Spec, GraphShape::Split,
      {ContainerKind::ConcurrentHashMap, ContainerKind::ConcurrentSkipListMap});
  LockPlacement P = makeStripedPlacement(D, 1024);
  for (const auto &N : D.nodes()) {
    uint32_t Want = N.Id == D.root() ? 1024 : N.OutEdges.empty() ? 0 : 1;
    EXPECT_EQ(P.instanceStripes(N.Id), Want) << N.Name;
    EXPECT_EQ(InstanceLayout::forNode(D, P, N.Id).NumStripes, Want) << N.Name;
  }
  // Coarse: only the root carries a lock.
  LockPlacement C = makeCoarsePlacement(D);
  for (const auto &N : D.nodes())
    EXPECT_EQ(C.instanceStripes(N.Id), N.Id == D.root() ? 1u : 0u) << N.Name;
}

TEST(InstanceStripes, SpeculativeTargetsKeepTheirLock) {
  // §4.5: present entries of a speculative edge are locked at the
  // target instance, so the targets carry a lock although the edges
  // they host are placed elsewhere.
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(
      Spec, GraphShape::Stick,
      {ContainerKind::ConcurrentHashMap, ContainerKind::ConcurrentHashMap});
  LockPlacement P = makeSpeculativePlacement(D, 64);
  for (const auto &E : D.edges()) {
    if (!P.edgePlacement(E.Id).Speculative)
      continue;
    EXPECT_GE(P.instanceStripes(E.Dst), 1u) << D.node(E.Dst).Name;
    EXPECT_GE(InstanceLayout::forNode(D, P, E.Dst).NumStripes, 1u);
  }
  NodeId Leaf = D.numNodes() - 1;
  ASSERT_TRUE(D.node(Leaf).OutEdges.empty());
  EXPECT_EQ(P.instanceStripes(Leaf), 0u);
}

TEST(Placement, SummaryString) {
  RelationSpec Spec = makeGraphSpec();
  Decomposition D = makeGraphDecomposition(Spec, GraphShape::Stick);
  LockPlacement P = makeStripedPlacement(D, 16);
  std::string S = P.str();
  EXPECT_NE(S.find("stripes"), std::string::npos);
  EXPECT_NE(S.find("rho"), std::string::npos);
}

} // namespace
