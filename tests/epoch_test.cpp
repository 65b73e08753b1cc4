//===- tests/epoch_test.cpp - Epoch reclamation & wait-free reads -------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// sync/Epoch.h and the wait-free read fast path built on it. The
/// domain half checks the reclamation contract in isolation (guard
/// nesting, grace periods, stalled readers, synchronize racing guard
/// churn, destruction with a pending queue); the fast-path half checks
/// the end-to-end property the layer buys: an epoch-eligible prepared
/// query executes with zero lock acquisitions — asserted exactly on the
/// relation's lock_acquisitions counter, which counts every lock a
/// locked execution takes (sync/LockSet.h) — while
/// ineligible plans and disabled relations fall back to the locked
/// path, and readers racing removals, replans, and a live migration
/// still agree with the stress oracle.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "autotune/Autotuner.h"
#include "decomp/Shapes.h"
#include "lockplace/PlacementSchemes.h"
#include "runtime/ConcurrentRelation.h"
#include "runtime/PreparedOp.h"
#include "sync/Epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace crs;

namespace {

//===----------------------------------------------------------------------===//
// EpochDomain in isolation
//===----------------------------------------------------------------------===//

TEST(Epoch, GuardNestingPinsOnce) {
  EpochDomain D;
  EXPECT_FALSE(D.inGuard());
  {
    EpochDomain::Guard G1(D);
    EXPECT_TRUE(D.inGuard());
    {
      EpochDomain::Guard G2(D);
      EXPECT_TRUE(D.inGuard());
    }
    // The outer guard still pins after the nested one exits.
    EXPECT_TRUE(D.inGuard());
  }
  EXPECT_FALSE(D.inGuard());
  // A quiescent domain advances freely.
  uint64_t E = D.epoch();
  EXPECT_TRUE(D.tryAdvance());
  EXPECT_EQ(D.epoch(), E + 1);
}

TEST(Epoch, RetireBeforeQuiesceIsNeverFreed) {
  EpochDomain D;
  std::atomic<bool> Deleted{false};
  std::atomic<bool> Pinned{false}, Release{false};
  std::thread Reader([&] {
    EpochDomain::Guard G(D);
    Pinned.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  while (!Pinned.load(std::memory_order_acquire))
    std::this_thread::yield();

  // Retired while the reader's guard is live: whatever the collector
  // does, the deleter must not run — the reader may still hold a raw
  // pointer obtained inside its guard.
  D.retire(&Deleted, [](void *P) {
    static_cast<std::atomic<bool> *>(P)->store(true);
  });
  for (int I = 0; I < 100; ++I)
    D.tryAdvance();
  EXPECT_FALSE(Deleted.load());
  EXPECT_EQ(D.pendingRetires(), 1u);
  EXPECT_EQ(D.reclaimed(), 0u);

  Release.store(true, std::memory_order_release);
  Reader.join();
  D.synchronize();
  EXPECT_TRUE(Deleted.load());
  EXPECT_EQ(D.pendingRetires(), 0u);
  EXPECT_EQ(D.reclaimed(), 1u);
}

TEST(Epoch, StalledReaderBoundsReclamationNotSafety) {
  EpochDomain D;
  std::atomic<bool> Pinned{false}, Release{false};
  std::thread Reader([&] {
    EpochDomain::Guard G(D);
    Pinned.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  while (!Pinned.load(std::memory_order_acquire))
    std::this_thread::yield();

  // A stalled reader stops the epoch after at most one advance, so the
  // backlog grows bounded only by retire traffic — memory, not safety,
  // is what a straggler costs (exactly the plan cache's old
  // retire-not-free discipline, now with an eventual release valve).
  constexpr size_t N = 200;
  std::atomic<size_t> Freed{0};
  for (size_t I = 0; I < N; ++I)
    D.retire(&Freed, [](void *P) {
      static_cast<std::atomic<size_t> *>(P)->fetch_add(1);
    });
  uint64_t E = D.epoch();
  for (int I = 0; I < 50; ++I)
    D.tryAdvance();
  EXPECT_LE(D.epoch(), E + 1); // wedged behind the straggler
  EXPECT_EQ(Freed.load(), 0u);
  EXPECT_EQ(D.pendingRetires(), N);

  Release.store(true, std::memory_order_release);
  Reader.join();
  D.synchronize();
  EXPECT_EQ(Freed.load(), N);
  EXPECT_EQ(D.pendingRetires(), 0u);
}

TEST(Epoch, SynchronizeCompletesAgainstConcurrentEnters) {
  EpochDomain D;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Churn;
  for (int T = 0; T < 3; ++T)
    Churn.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire)) {
        EpochDomain::Guard G(D);
        // A little in-guard work so guards overlap synchronize's scans.
        for (volatile int I = 0; I < 32; ++I)
          ;
      }
    });

  // synchronize must terminate under continuous guard churn (guards
  // entered mid-wait pin the then-current epoch, so they can block at
  // most one further advance), and everything retired before the call
  // must be freed by the time it returns.
  for (int Round = 0; Round < 25; ++Round) {
    std::atomic<bool> Deleted{false};
    D.retire(&Deleted, [](void *P) {
      static_cast<std::atomic<bool> *>(P)->store(true);
    });
    D.synchronize();
    EXPECT_TRUE(Deleted.load()) << "round " << Round;
  }
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Churn)
    T.join();
}

TEST(Epoch, DomainDestructionRunsPendingDeleters) {
  std::atomic<size_t> Freed{0};
  {
    EpochDomain D;
    for (int I = 0; I < 3; ++I)
      D.retire(&Freed, [](void *P) {
        static_cast<std::atomic<size_t> *>(P)->fetch_add(1);
      });
    // No synchronize: the domain dies owing three deleters.
  }
  EXPECT_EQ(Freed.load(), 3u);
}

TEST(Epoch, RetireObjectDeletesThroughTheTypedPath) {
  struct Tracked {
    std::atomic<int> *Count;
    explicit Tracked(std::atomic<int> *C) : Count(C) {}
    ~Tracked() { Count->fetch_add(1); }
  };
  std::atomic<int> Destroyed{0};
  EpochDomain D;
  D.retireObject(new Tracked(&Destroyed));
  EXPECT_EQ(Destroyed.load(), 0); // grace period not yet elapsed
  D.synchronize();
  EXPECT_EQ(Destroyed.load(), 1);
}

//===----------------------------------------------------------------------===//
// The wait-free read fast path
//===----------------------------------------------------------------------===//

Tuple gKey(const RelationSpec &Spec, int64_t S, int64_t D) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)}});
}

Tuple gWeight(const RelationSpec &Spec, int64_t W) {
  return Tuple::of({{Spec.col("weight"), Value::ofInt(W)}});
}

/// Every container on every path concurrency-safe: all query plans
/// classify epoch-eligible.
RepresentationConfig allConcurrent(GraphShape Shape = GraphShape::Split) {
  return makeGraphRepresentation({Shape, PlacementSchemeKind::Striped, 64,
                                  ContainerKind::ConcurrentHashMap,
                                  ContainerKind::ConcurrentSkipListMap});
}

/// The relation's relation.lock_acquisitions: exact, every lock counted.
uint64_t lockAcquisitions(const ConcurrentRelation &R) {
  return R.operationCounts().LockAcquisitions;
}

TEST(FastPath, EligibleQueryTakesZeroLockAcquisitions) {
  RepresentationConfig Config = allConcurrent();
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);
  ASSERT_TRUE(R.fastReadsEnabled()); // the default

  for (int64_t S = 0; S < 4; ++S)
    for (int64_t D = 0; D < 8; ++D)
      R.insert(gKey(Spec, S, D), gWeight(Spec, S * 10 + D));

  PreparedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  EXPECT_NE(Succ.explain().find("epoch-eligible: yes"), std::string::npos)
      << Succ.explain();

  // Warm the plan and check semantics first.
  EXPECT_EQ(Succ.bind(0, Value::ofInt(0)).count(), 8u);

  // Lock acquisitions are counted exactly, so the total is unchanged —
  // not merely "small" — across any number of fast reads.
  const uint64_t Before = lockAcquisitions(R);
  constexpr uint64_t Reads = 256;
  for (uint64_t I = 0; I < Reads; ++I)
    EXPECT_EQ(Succ.bind(0, Value::ofInt(int64_t(I % 4))).count(), 8u);
  EXPECT_EQ(lockAcquisitions(R), Before)
      << "epoch-eligible prepared query acquired locks";

  // The same handle on the locked path (fast reads disabled) takes 10
  // shared locks per call: the root's stripe for src, the u instance's
  // one stripe, and the one stripe of each of the 8 w instances it
  // scans (Split/Striped: w hosts the w->x edge).
  R.setFastReads(false);
  for (uint64_t I = 0; I < Reads; ++I)
    EXPECT_EQ(Succ.bind(0, Value::ofInt(int64_t(I % 4))).count(), 8u);
  EXPECT_EQ(lockAcquisitions(R), Before + Reads * 10);
}

TEST(FastPath, LegacyQueryAlsoTakesTheFastPath) {
  RepresentationConfig Config = allConcurrent();
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);
  for (int64_t D = 0; D < 6; ++D)
    R.insert(gKey(Spec, 1, D), gWeight(Spec, D));

  // Warm the signature, then measure.
  Tuple Q = Tuple::of({{Spec.col("src"), Value::ofInt(1)}});
  EXPECT_EQ(R.query(Q, Spec.cols({"dst", "weight"})).size(), 6u);
  const uint64_t Before = lockAcquisitions(R);
  for (int I = 0; I < 128; ++I)
    EXPECT_EQ(R.query(Q, Spec.cols({"dst", "weight"})).size(), 6u);
  EXPECT_EQ(lockAcquisitions(R), Before);
}

TEST(FastPath, IneligiblePlanFallsBackToTheLockedPath) {
  // TreeMap is not concurrency-safe (§6.1), so any traversal through it
  // classifies ineligible — the relation's flag stays on, but this
  // plan must run locked.
  RepresentationConfig Config = makeGraphRepresentation(
      {GraphShape::Split, PlacementSchemeKind::Striped, 64,
       ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap});
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);
  ASSERT_TRUE(R.fastReadsEnabled());
  for (int64_t D = 0; D < 5; ++D)
    R.insert(gKey(Spec, 2, D), gWeight(Spec, D));

  PreparedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  std::string Explain = Succ.explain();
  EXPECT_NE(Explain.find("epoch-eligible: no"), std::string::npos) << Explain;
  EXPECT_NE(Explain.find("not concurrency-safe"), std::string::npos)
      << Explain;

  EXPECT_EQ(Succ.bind(0, Value::ofInt(2)).count(), 5u);
  const uint64_t Before = lockAcquisitions(R);
  for (int I = 0; I < 128; ++I)
    EXPECT_EQ(Succ.bind(0, Value::ofInt(2)).count(), 5u);
  // Locked: the root's stripe, u's, and one per w instance (5).
  EXPECT_EQ(lockAcquisitions(R), Before + 128 * 7);
}

TEST(FastPath, MigrationPreservesTheFastReadsSetting) {
  RepresentationConfig Config = allConcurrent();
  const RelationSpec &Spec = *Config.Spec;
  ConcurrentRelation R(Config);
  for (int64_t S = 0; S < 3; ++S)
    for (int64_t D = 0; D < 4; ++D)
      R.insert(gKey(Spec, S, D), gWeight(Spec, S + D));
  PreparedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  EXPECT_EQ(Succ.bind(0, Value::ofInt(1)).count(), 4u);

  // The retirement flip parks fast reads for its drain, then restores
  // what the client had configured — in both positions of the switch.
  ASSERT_TRUE(R.migrateTo(allConcurrent(GraphShape::Diamond)).Ok);
  EXPECT_TRUE(R.fastReadsEnabled());
  EXPECT_EQ(Succ.bind(0, Value::ofInt(1)).count(), 4u); // rebinds, fast again

  R.setFastReads(false);
  ASSERT_TRUE(R.migrateTo(allConcurrent(GraphShape::Split)).Ok);
  EXPECT_FALSE(R.fastReadsEnabled());
  EXPECT_EQ(Succ.bind(0, Value::ofInt(1)).count(), 4u);
  EXPECT_TRUE(R.verifyConsistency().ok());
}

TEST(FastPath, WaitFreeReadersVsChurnAndMigrationMatchOracle) {
  // The fig5 read-heavy panel's mix, under the stress harness: readers
  // on the wait-free path race inserts, removals, two replans, and a
  // full live migration (both flips, backfill, epoch-synchronized
  // retirement). The per-thread mutation logs replay into an exact
  // final-state oracle: a reader crash, a lost or duplicated mutation,
  // or a torn traversal under TSan/ASan all fail here.
  ConcurrentRelation R(allConcurrent());
  PreparedRelationTarget Target(R);

  stress::StressOptions Opts;
  Opts.Seed = 60001;
  Opts.Mix = OpMix{45, 45, 9, 1};
  MigrationResult Res;
  stress::StressReport Rep = stress::runStressWithOracle(Target, Opts, [&] {
    R.adaptPlans(); // replan under read traffic: snapshots retire live
    Res = R.migrateTo(allConcurrent(GraphShape::Diamond), nullptr);
    R.adaptPlans(); // and again on the adopted representation
  });
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_TRUE(R.fastReadsEnabled());

  EXPECT_TRUE(Rep.Errors.empty())
      << Rep.Errors.size() << " mismatches, first: " << Rep.Errors[0] << "; "
      << Rep.hint();
  EXPECT_EQ(R.size(), Rep.Expected.size()) << Rep.hint();
  std::vector<std::string> Diffs =
      stress::diffFinalState(R.scanAll(), R.spec(), Rep.Expected);
  EXPECT_TRUE(Diffs.empty()) << Diffs.front() << "; " << Rep.hint();
  EXPECT_TRUE(R.verifyConsistency().ok()) << R.verifyConsistency().str();
}

} // namespace
