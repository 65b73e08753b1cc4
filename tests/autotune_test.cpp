//===- tests/autotune_test.cpp - Autotuner tests ------------------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "autotune/Autotuner.h"
#include "autotune/OnlineTuner.h"

#include <gtest/gtest.h>

#include <set>

using namespace crs;

namespace {

TEST(Enumerator, ProducesHundredsOfLegalVariants) {
  // §6.1/§6.2: the paper's autotuner generated 448 variants over the
  // same option menu; our legal-variant count lands in the same range.
  std::vector<GraphVariant> Variants = enumerateGraphVariants(1024);
  EXPECT_GT(Variants.size(), 150u);
  EXPECT_LT(Variants.size(), 800u);

  // All distinct, all legal.
  std::set<std::string> Names;
  for (const GraphVariant &V : Variants) {
    EXPECT_TRUE(Names.insert(V.str()).second) << "duplicate " << V.str();
    RepresentationConfig C = makeGraphRepresentation(V);
    ASSERT_TRUE(C.Placement) << V.str();
    EXPECT_TRUE(C.Decomp->validate().ok());
    EXPECT_TRUE(C.Placement->validate().ok());
    EXPECT_TRUE(C.Placement->validateContainerSafety().ok());
  }
}

TEST(Enumerator, FiltersIllegalCombinations) {
  // A non-concurrent container under a striped (concurrent) placement
  // must be filtered out.
  GraphVariant Bad{GraphShape::Split, PlacementSchemeKind::Striped, 1024,
                   ContainerKind::HashMap, ContainerKind::HashMap};
  EXPECT_FALSE(makeGraphRepresentation(Bad).Placement);

  // Speculation on a container without linearizable lookups: illegal.
  GraphVariant BadSpec{GraphShape::Split, PlacementSchemeKind::Speculative,
                       1024, ContainerKind::TreeMap, ContainerKind::HashMap};
  EXPECT_FALSE(makeGraphRepresentation(BadSpec).Placement);

  // The legal twin.
  GraphVariant Good{GraphShape::Split, PlacementSchemeKind::Striped, 1024,
                    ContainerKind::ConcurrentHashMap, ContainerKind::HashMap};
  EXPECT_TRUE(makeGraphRepresentation(Good).Placement);
}

TEST(Enumerator, VariantNamesAreDescriptive) {
  GraphVariant V{GraphShape::Diamond, PlacementSchemeKind::Striped, 1024,
                 ContainerKind::ConcurrentSkipListMap, ContainerKind::HashMap};
  std::string S = V.str();
  EXPECT_NE(S.find("diamond"), std::string::npos);
  EXPECT_NE(S.find("striped(1024)"), std::string::npos);
  EXPECT_NE(S.find("ConcurrentSkipListMap"), std::string::npos);
}

TEST(Figure5Menu, AllTwelveRepresentationsBuild) {
  auto Reps = figure5Representations();
  ASSERT_EQ(Reps.size(), 12u);
  std::set<std::string> Expected{"Stick 1",   "Stick 2",   "Stick 3",
                                 "Stick 4",   "Split 1",   "Split 2",
                                 "Split 3",   "Split 4",   "Split 5",
                                 "Diamond 0", "Diamond 1", "Diamond 2"};
  for (auto &[Name, Config] : Reps) {
    EXPECT_TRUE(Expected.count(Name)) << Name;
    ASSERT_TRUE(Config.Placement) << Name;
    EXPECT_TRUE(Config.Decomp->validate().ok()) << Name;
    EXPECT_TRUE(Config.Placement->validate().ok()) << Name;
    EXPECT_TRUE(Config.Placement->validateContainerSafety().ok()) << Name;
  }
}

TEST(Figure5Menu, Split2HasHybridLocking) {
  auto Reps = figure5Representations();
  const RepresentationConfig *Split2 = nullptr;
  for (auto &[Name, Config] : Reps)
    if (Name == "Split 2")
      Split2 = &Config;
  ASSERT_NE(Split2, nullptr);
  const LockPlacement &P = *Split2->Placement;
  // Left root edge striped by src (concurrent); right root edge pinned
  // to a constant stripe (serialized).
  EXPECT_TRUE(P.allowsConcurrentAccess(0));
  EXPECT_FALSE(P.allowsConcurrentAccess(1));
}

TEST(Autotune, RanksVariantsOnTrainingWorkload) {
  using CK = ContainerKind;
  using PS = PlacementSchemeKind;
  // A tiny menu with a predictable outcome is enough to exercise the
  // tuner loop: measurement, ranking, callback.
  std::vector<GraphVariant> Menu{
      {GraphShape::Stick, PS::Coarse, 1, CK::HashMap, CK::TreeMap},
      {GraphShape::Split, PS::Striped, 64, CK::ConcurrentHashMap,
       CK::TreeMap},
  };
  HarnessParams Params;
  Params.NumThreads = 2;
  Params.OpsPerThread = 1500;
  // 1024 nodes spread the ~600 inserted edges over ~450 sources, each a
  // stick predecessor scan visits: the split out-ran the stick 8-14x
  // over 10 runs on a 4-CPU host, against 3x with 64 nodes, where one
  // preempted thread under parallel ctest load could flip the ranking.
  KeySpace Keys{1024, 1024};
  int Callbacks = 0;
  auto Results = autotune(Menu, Fig5Workloads[1], Keys, Params,
                          [&](const TuneResult &) { ++Callbacks; });
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Callbacks, 2);
  EXPECT_GE(Results[0].OpsPerSec, Results[1].OpsPerSec);
  // 35-35-20-10 punishes the stick's O(|E|) predecessor scans: the
  // split must win the ranking.
  EXPECT_EQ(Results[0].Variant.Shape, GraphShape::Split);
}

//===----------------------------------------------------------------------===//
// OnlineTuner (autotune/OnlineTuner.h)
//===----------------------------------------------------------------------===//

/// The signature set of the graph benchmark: successor query, insert,
/// remove.
std::vector<PlanCache::Signature> graphSignatures(const RelationSpec &Spec) {
  ColumnSet Src = Spec.cols({"src"});
  ColumnSet Key = Spec.cols({"src", "dst"});
  ColumnSet Out = Spec.cols({"dst", "weight"});
  return {{PlanOp::Query, Src.bits(), Out.bits()},
          {PlanOp::Insert, Key.bits(), 0},
          {PlanOp::Remove, Key.bits(), 0}};
}

TEST(OnlineTuner, ScoringReproducesTheContentionCrossover) {
  // The §6.2 story the static cost model cannot tell alone: with one
  // uncontended thread the coarse placement's cheap plans win; under
  // contended multi-threaded load the striped placement's parallelism
  // supply pays for itself.
  RepresentationConfig Coarse = makeGraphRepresentation(
      {GraphShape::Stick, PlacementSchemeKind::Coarse, 1,
       ContainerKind::HashMap, ContainerKind::HashMap});
  RepresentationConfig Striped = makeGraphRepresentation(
      {GraphShape::Stick, PlacementSchemeKind::Striped, 1024,
       ContainerKind::ConcurrentHashMap, ContainerKind::HashMap});
  ASSERT_TRUE(Coarse.Placement && Striped.Placement);
  auto Sigs = graphSignatures(*Coarse.Spec);
  OperationCounts Mix{70, 20, 10};
  CostParams Measured;

  // Uncontended: parallelism demand is 1 for both; the coarse plans
  // are no worse.
  double CoarseIdle = OnlineTuner::scoreRepresentation(
      Coarse, Sigs, Mix, Measured, /*ContentionRatio=*/0.0, /*Threads=*/4);
  double StripedIdle = OnlineTuner::scoreRepresentation(
      Striped, Sigs, Mix, Measured, 0.0, 4);
  EXPECT_LE(CoarseIdle, StripedIdle);

  // Half the acquisitions contended on 4 threads: the striped root's
  // supply divides its cost; the coarse root stays serialized.
  double CoarseHot = OnlineTuner::scoreRepresentation(
      Coarse, Sigs, Mix, Measured, /*ContentionRatio=*/0.5, /*Threads=*/4);
  double StripedHot = OnlineTuner::scoreRepresentation(
      Striped, Sigs, Mix, Measured, 0.5, 4);
  EXPECT_LT(StripedHot, CoarseHot);
  EXPECT_EQ(CoarseHot, CoarseIdle); // supply 1: contention cannot help
}

TEST(OnlineTuner, TickHoldsWithoutAPredictedWin) {
  RepresentationConfig Config = makeGraphRepresentation(
      {GraphShape::Stick, PlacementSchemeKind::Coarse, 1,
       ContainerKind::HashMap, ContainerKind::TreeMap});
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);

  OnlineTunerConfig Cfg;
  // Same structure and containers, striped: without measured
  // contention there is no predicted win to clear the hysteresis.
  Cfg.Candidates = {{GraphShape::Stick, PlacementSchemeKind::Striped, 1024,
                     ContainerKind::ConcurrentHashMap,
                     ContainerKind::TreeMap}};
  Cfg.Threads = 4;
  Cfg.ConfirmTicks = 1;
  OnlineTuner Tuner(R, Cfg);

  // Nothing compiled yet: nothing to score.
  EXPECT_FALSE(Tuner.tick().Scored);

  for (int64_t I = 0; I < 40; ++I)
    R.insert(Tuple::of({{Spec.col("src"), Value::ofInt(I % 5)},
                        {Spec.col("dst"), Value::ofInt(I)}}),
             Tuple::of({{Spec.col("weight"), Value::ofInt(I)}}));
  R.query(Tuple::of({{Spec.col("src"), Value::ofInt(1)}}),
          Spec.cols({"dst", "weight"}));

  TuneTick T = Tuner.tick();
  EXPECT_TRUE(T.Scored);
  EXPECT_GT(T.CurrentCost, 0.0);
  EXPECT_FALSE(T.Migrated);
  EXPECT_EQ(T.Confirmations, 0u);
  EXPECT_EQ(R.config().Name, Config.Name);
}

TEST(OnlineTuner, TickMigratesOnceConfirmed) {
  RepresentationConfig Config = makeGraphRepresentation(
      {GraphShape::Stick, PlacementSchemeKind::Coarse, 1,
       ContainerKind::HashMap, ContainerKind::TreeMap});
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);
  for (int64_t I = 0; I < 60; ++I)
    R.insert(Tuple::of({{Spec.col("src"), Value::ofInt(I % 6)},
                        {Spec.col("dst"), Value::ofInt(I)}}),
             Tuple::of({{Spec.col("weight"), Value::ofInt(I * 2)}}));
  R.query(Tuple::of({{Spec.col("src"), Value::ofInt(2)}}),
          Spec.cols({"dst", "weight"}));
  std::vector<Tuple> Before = R.scanAll();

  GraphVariant Target{GraphShape::Split, PlacementSchemeKind::Striped, 64,
                      ContainerKind::ConcurrentHashMap,
                      ContainerKind::TreeMap};
  OnlineTunerConfig Cfg;
  Cfg.Candidates = {Target};
  Cfg.Threads = 4;
  // A permissive policy (any candidate counts as a win) exercises the
  // confirmation streak and the migration trigger deterministically.
  Cfg.HysteresisRatio = 0.0;
  Cfg.ConfirmTicks = 2;
  OnlineTuner Tuner(R, Cfg);

  TuneTick T1 = Tuner.tick();
  EXPECT_TRUE(T1.Scored);
  EXPECT_EQ(T1.Confirmations, 1u);
  EXPECT_FALSE(T1.Migrated);
  TuneTick T2 = Tuner.tick();
  EXPECT_EQ(T2.Confirmations, 2u);
  ASSERT_TRUE(T2.Migrated) << T2.Migration.Error;
  EXPECT_EQ(T2.BestName, makeGraphRepresentation(Target).Name);
  EXPECT_EQ(R.config().Name, T2.BestName);
  EXPECT_EQ(R.scanAll(), Before);
  EXPECT_TRUE(R.verifyConsistency().ok());
}

} // namespace
