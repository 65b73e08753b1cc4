//===- tests/statistics_test.cpp - Statistics & adaptive replanning -----------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "autotune/Autotuner.h"
#include "lockplace/PlacementSchemes.h"
#include "rel/RefRelation.h"
#include "runtime/ConcurrentRelation.h"

#include <gtest/gtest.h>

using namespace crs;

namespace {

Tuple gKey(const RelationSpec &Spec, int64_t S, int64_t D) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)}});
}

Tuple gWeight(const RelationSpec &Spec, int64_t W) {
  return Tuple::of({{Spec.col("weight"), Value::ofInt(W)}});
}

TEST(Statistics, CountsContainersAndEntries) {
  RepresentationConfig Config = makeGraphRepresentation(
      {GraphShape::Stick, PlacementSchemeKind::Fine, 1,
       ContainerKind::HashMap, ContainerKind::TreeMap});
  ASSERT_TRUE(Config.Placement);
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);

  // 3 sources with 1, 2, and 4 successors.
  int64_t Src = 0;
  for (int Fan : {1, 2, 4}) {
    for (int64_t D = 0; D < Fan; ++D)
      R.insert(gKey(Spec, Src, D), gWeight(Spec, Src * 10 + D));
    ++Src;
  }
  RelationStatistics Stats = R.collectStatistics();
  ASSERT_EQ(Stats.Edges.size(), 3u);
  // Edge 0 (rho->u): one container (the root's) holding 3 sources.
  EXPECT_EQ(Stats.Edges[0].Containers, 1u);
  EXPECT_EQ(Stats.Edges[0].Entries, 3u);
  EXPECT_DOUBLE_EQ(Stats.Edges[0].averageFanout(), 3.0);
  // Edge 1 (u->v): 3 adjacency containers holding 7 edges total.
  EXPECT_EQ(Stats.Edges[1].Containers, 3u);
  EXPECT_EQ(Stats.Edges[1].Entries, 7u);
  EXPECT_NEAR(Stats.Edges[1].averageFanout(), 7.0 / 3.0, 1e-9);
  // Edge 2 (v->w singleton): 7 cells, 7 entries.
  EXPECT_EQ(Stats.Edges[2].Containers, 7u);
  EXPECT_EQ(Stats.Edges[2].Entries, 7u);
  // Instances: root + 3 u + 7 v + 7 w.
  EXPECT_EQ(Stats.NodeInstances, 1u + 3u + 7u + 7u);
}

TEST(Statistics, SharedNodesCountedOnce) {
  RepresentationConfig Config = makeGraphRepresentation(
      {GraphShape::Diamond, PlacementSchemeKind::Fine, 1,
       ContainerKind::HashMap, ContainerKind::HashMap});
  ASSERT_TRUE(Config.Placement);
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);
  for (int64_t I = 0; I < 5; ++I)
    R.insert(gKey(Spec, I, I + 1), gWeight(Spec, I));
  RelationStatistics Stats = R.collectStatistics();
  // Diamond: root + 5 x + 5 y + 5 shared z + 5 w = 21, not 26.
  EXPECT_EQ(Stats.NodeInstances, 21u);
}

TEST(Statistics, LockTrafficIsRecorded) {
  RepresentationConfig Config = makeGraphRepresentation(
      {GraphShape::Split, PlacementSchemeKind::Coarse, 1,
       ContainerKind::HashMap, ContainerKind::TreeMap});
  ASSERT_TRUE(Config.Placement);
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);
  // Force the locked read path: this test measures lock traffic, which
  // the wait-free fast path deliberately produces none of.
  R.setFastReads(false);
  for (int64_t I = 0; I < 20; ++I)
    R.insert(gKey(Spec, I % 4, I), gWeight(Spec, I));
  constexpr int64_t Queries = 100;
  for (int64_t I = 0; I < Queries; ++I)
    R.query(Tuple::of({{Spec.col("src"), Value::ofInt(I % 4)}}),
            Spec.cols({"dst", "weight"}));
  // Coarse placement: every operation takes the root's single lock
  // once — 20 exclusive for the inserts, one shared per query — and a
  // single thread never waits.
  OperationCounts Counts = R.operationCounts();
  EXPECT_EQ(Counts.LockAcquisitions, 20u + Queries);
  EXPECT_EQ(Counts.LockContentions, 0u);
}

TEST(Statistics, AdaptPlansUsesMeasuredFanoutsAndStaysCorrect) {
  RepresentationConfig Config = makeGraphRepresentation(
      {GraphShape::Split, PlacementSchemeKind::Fine, 1,
       ContainerKind::HashMap, ContainerKind::TreeMap});
  ASSERT_TRUE(Config.Placement);
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);
  RefRelation Ref(Spec);

  // A skewed graph: few sources, many destinations per source.
  for (int64_t S = 0; S < 2; ++S)
    for (int64_t D = 0; D < 40; ++D) {
      R.insert(gKey(Spec, S, D), gWeight(Spec, S + D));
      Ref.insert(gKey(Spec, S, D), gWeight(Spec, S + D));
    }

  RelationStatistics Stats = R.collectStatistics();
  CostParams Adapted = Stats.toCostParams(CostParams{});
  ASSERT_EQ(Adapted.EdgeFanout.size(), 6u);
  EXPECT_DOUBLE_EQ(Adapted.EdgeFanout[0], 2.0);  // rho->u: 2 sources
  EXPECT_DOUBLE_EQ(Adapted.EdgeFanout[1], 40.0); // rho->v: 40 dsts
  EXPECT_DOUBLE_EQ(Adapted.EdgeFanout[2], 40.0); // u->w: 40 per source

  R.adaptPlans();
  // Replanned operations still agree with the reference semantics.
  for (int64_t S = 0; S < 2; ++S)
    EXPECT_EQ(R.query(Tuple::of({{Spec.col("src"), Value::ofInt(S)}}),
                      Spec.cols({"dst", "weight"})),
              Ref.query(Tuple::of({{Spec.col("src"), Value::ofInt(S)}}),
                        Spec.cols({"dst", "weight"})));
  for (int64_t D = 0; D < 40; D += 7)
    EXPECT_EQ(R.query(Tuple::of({{Spec.col("dst"), Value::ofInt(D)}}),
                      Spec.cols({"src", "weight"})),
              Ref.query(Tuple::of({{Spec.col("dst"), Value::ofInt(D)}}),
                        Spec.cols({"src", "weight"})));
  EXPECT_EQ(R.remove(gKey(Spec, 0, 0)), Ref.remove(gKey(Spec, 0, 0)));
  EXPECT_EQ(R.scanAll(), Ref.allTuples());
  EXPECT_TRUE(R.verifyConsistency().ok());
}

TEST(Statistics, MeasuredFanoutChangesPlanChoice) {
  // A relation where the static defaults and the measured shape
  // disagree: query by a column whose index side is huge. With measured
  // stats the planner should route through the small side.
  RelationSpec SpecV({"a", "b", "c"}, {{{"a", "b"}, {"c"}}});
  auto Spec = std::make_shared<RelationSpec>(SpecV);
  // Split-like: rho -{a}-> u -{b}-> w -{c}-> x ; rho -{b}-> v -{a}-> y -{c}-> z
  auto D = std::make_shared<Decomposition>(*Spec);
  ColumnSet A = Spec->cols({"a"}), B = Spec->cols({"b"}), C = Spec->cols({"c"});
  NodeId Rho = D->addNode("rho", ColumnSet::empty(), Spec->allColumns());
  NodeId U = D->addNode("u", A, B | C);
  NodeId W = D->addNode("w", A | B, C);
  NodeId X = D->addNode("x", Spec->allColumns(), ColumnSet::empty());
  NodeId V = D->addNode("v", B, A | C);
  NodeId Y = D->addNode("y", A | B, C);
  NodeId Z = D->addNode("z", Spec->allColumns(), ColumnSet::empty());
  D->addEdge(Rho, U, A, ContainerKind::HashMap);
  D->addEdge(U, W, B, ContainerKind::HashMap);
  D->addEdge(W, X, C, ContainerKind::SingletonCell);
  D->addEdge(Rho, V, B, ContainerKind::HashMap);
  D->addEdge(V, Y, A, ContainerKind::HashMap);
  D->addEdge(Y, Z, C, ContainerKind::SingletonCell);
  ASSERT_TRUE(D->validate().ok()) << D->validate().str();
  auto PC = std::make_shared<LockPlacement>(makeCoarsePlacement(*D));

  // Fanout pattern: many distinct a (fanout rho->u large), few b.
  ConcurrentRelation R({Spec, D, PC, "skew"});
  for (int64_t I = 0; I < 60; ++I)
    R.insert(Tuple::of({{Spec->col("a"), Value::ofInt(I)},
                        {Spec->col("b"), Value::ofInt(I % 2)}}),
             Tuple::of({{Spec->col("c"), Value::ofInt(I)}}));

  // Query: dom(s)={c} forces scans; want {a,b}. Static model ties the
  // two sides (same shape); measured stats make the b-side (2 entries
  // at the root) strictly cheaper than the a-side (60 entries).
  RelationStatistics Stats = R.collectStatistics();
  QueryPlanner StaticPlanner(*D, *PC);
  QueryPlanner MeasuredPlanner(*D, *PC, Stats.toCostParams(CostParams{}));
  Plan Static = StaticPlanner.planQuery(C, A | B);
  Plan Measured = MeasuredPlanner.planQuery(C, A | B);
  // The measured plan must start its traversal on the rho->v side.
  const PlanStmt *FirstRead = nullptr;
  for (const auto &St : Measured.Stmts)
    if (St.K == PlanStmt::Kind::Scan || St.K == PlanStmt::Kind::Lookup) {
      FirstRead = &St;
      break;
    }
  ASSERT_NE(FirstRead, nullptr);
  EXPECT_EQ(FirstRead->Edge, 3u) << Measured.str(); // rho->v
  // And its estimated cost under measured stats beats the static pick's.
  EXPECT_LE(MeasuredPlanner.cost(Measured), MeasuredPlanner.cost(Static));
}

} // namespace
