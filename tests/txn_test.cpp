//===- tests/txn_test.cpp - Serializable multi-operation transactions --------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// src/txn: strict-2PL transaction scopes. Covers commit and abort
/// exactness (undo via inverse plans, across shapes and placements),
/// scope retention (a reader blocks on uncommitted state and never sees
/// it), bounded wait-die fairness under deliberate cross-order
/// contention, the epoch abort-and-retry contract around adaptPlans,
/// transactions racing a live migration through both flips (buffered
/// mirror flush on commit, discard on abort), the cross-shard commit
/// against the committed-txn-log oracle, the inverse-plan IR (validity,
/// explainTxn rendering, cache signatures), and the debug
/// LockOrderValidator's cross-set rule.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "autotune/Autotuner.h"
#include "plan/PlanValidity.h"
#include "sync/LockOrderValidator.h"
#include "txn/Transaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace crs;

namespace {

Tuple key(const RelationSpec &Spec, int64_t S, int64_t D) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)}});
}

Tuple weight(const RelationSpec &Spec, int64_t W) {
  return Tuple::of({{Spec.col("weight"), Value::ofInt(W)}});
}

RepresentationConfig stickCoarse() {
  return makeGraphRepresentation({GraphShape::Stick,
                                  PlacementSchemeKind::Coarse, 1,
                                  ContainerKind::HashMap,
                                  ContainerKind::TreeMap});
}

RepresentationConfig splitStriped(uint32_t Stripes = 64) {
  return makeGraphRepresentation({GraphShape::Split,
                                  PlacementSchemeKind::Striped, Stripes,
                                  ContainerKind::ConcurrentHashMap,
                                  ContainerKind::TreeMap});
}

/// Every representation the suite sweeps for undo exactness: the three
/// Fig. 3 shapes under coarse, striped, and (where available)
/// speculative placements.
std::vector<RepresentationConfig> sweepConfigs() {
  std::vector<RepresentationConfig> Out;
  for (GraphShape Shape :
       {GraphShape::Stick, GraphShape::Split, GraphShape::Diamond})
    for (PlacementSchemeKind PK :
         {PlacementSchemeKind::Coarse, PlacementSchemeKind::Striped,
          PlacementSchemeKind::Speculative}) {
      // Speculative placements need concurrency-safe containers on the
      // guessed edges; makeGraphRepresentation rejects illegal combos
      // (empty config), which the filter below drops.
      ContainerKind L2 = PK == PlacementSchemeKind::Speculative
                             ? ContainerKind::ConcurrentSkipListMap
                             : ContainerKind::TreeMap;
      RepresentationConfig C = makeGraphRepresentation(
          {Shape, PK, PK == PlacementSchemeKind::Striped ? 64u : 8u,
           ContainerKind::ConcurrentHashMap, L2});
      if (C.Placement && C.Placement->validate().ok() &&
          C.Placement->validateContainerSafety().ok())
        Out.push_back(std::move(C));
    }
  return Out;
}

struct Handles {
  PreparedQuery Succ;
  PreparedInsert Ins;
  PreparedRemove Rem;
  explicit Handles(ConcurrentRelation &R) {
    const RelationSpec &Spec = R.spec();
    Succ = R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
    Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
    Rem = R.prepareRemove(Spec.cols({"src", "dst"}));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Inverse-plan IR
//===----------------------------------------------------------------------===//

TEST(TxnPlans, InversePlansValidPricedAndRendered) {
  for (const RepresentationConfig &C : sweepConfigs()) {
    QueryPlanner P(*C.Decomp, *C.Placement);
    Plan UndoIns = P.planUndoInsert();
    Plan UndoRem = P.planUndoRemove();
    EXPECT_EQ(UndoIns.Op, PlanOp::UndoInsert);
    EXPECT_EQ(UndoRem.Op, PlanOp::UndoRemove);
    ValidationResult V1 = checkPlanValidity(UndoIns);
    EXPECT_TRUE(V1.ok()) << C.Name << ": " << V1.str();
    ValidationResult V2 = checkPlanValidity(UndoRem);
    EXPECT_TRUE(V2.ok()) << C.Name << ": " << V2.str();
    // Priced like any plan (the cost model walks statements).
    EXPECT_GT(P.cost(UndoIns), 0.0);
    EXPECT_GT(P.cost(UndoRem), 0.0);
    // The exclusive-mode read plan is valid for every signature shape.
    ColumnSet Src = C.Spec->cols({"src"});
    Plan Q = P.planQueryForUpdate(Src, C.Spec->cols({"dst", "weight"}));
    EXPECT_EQ(Q.Op, PlanOp::QueryForUpdate);
    ValidationResult V3 = checkPlanValidity(Q);
    EXPECT_TRUE(V3.ok()) << C.Name << ": " << V3.str();
    // A for-update plan locks exclusively and never speculates.
    for (const PlanStmt &St : Q.Stmts) {
      if (St.K == PlanStmt::Kind::Lock)
        EXPECT_EQ(St.Mode, LockMode::Exclusive) << C.Name;
      EXPECT_NE(St.K, PlanStmt::Kind::SpecLookup) << C.Name;
      EXPECT_NE(St.K, PlanStmt::Kind::SpecScan) << C.Name;
    }
  }
}

TEST(TxnPlans, UndoPlansNeverMirrorEvenDuringDualWrite) {
  RepresentationConfig C = stickCoarse();
  QueryPlanner P(*C.Decomp, *C.Placement);
  P.setEmitMirrorWrites(true);
  // Forward mutation plans mirror; their inverses must not (the scope
  // buffers mirrors and flushes at commit — aborts discard).
  auto HasMirror = [](const Plan &Pl) {
    for (const PlanStmt &St : Pl.Stmts)
      if (St.K == PlanStmt::Kind::MirrorWrite)
        return true;
    return false;
  };
  EXPECT_TRUE(HasMirror(P.planInsert(C.Spec->cols({"src", "dst"}))));
  EXPECT_FALSE(HasMirror(P.planUndoInsert()));
  EXPECT_FALSE(HasMirror(P.planUndoRemove()));
}

TEST(TxnPlans, ExplainTxnRendersForwardAndInverse) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  std::string S = R.explainTxn(PlanOp::Insert, C.Spec->cols({"src", "dst"}));
  EXPECT_NE(S.find("== forward: insert"), std::string::npos) << S;
  EXPECT_NE(S.find("undo-insert"), std::string::npos) << S;
  EXPECT_NE(S.find("erase-entry"), std::string::npos) << S;
  std::string S2 = R.explainTxn(PlanOp::Remove, C.Spec->cols({"src", "dst"}));
  EXPECT_NE(S2.find("== forward: remove"), std::string::npos) << S2;
  EXPECT_NE(S2.find("undo-remove"), std::string::npos) << S2;
  EXPECT_NE(S2.find("guard-absent"), std::string::npos) << S2;
}

//===----------------------------------------------------------------------===//
// Commit / abort exactness
//===----------------------------------------------------------------------===//

TEST(Txn, CommitMakesAllOpsVisibleAtomically) {
  for (const RepresentationConfig &C : sweepConfigs()) {
    ConcurrentRelation R(C);
    const RelationSpec &Spec = R.spec();
    Handles H(R);
    for (int64_t I = 0; I < 16; ++I)
      ASSERT_TRUE(R.insert(key(Spec, I, I), weight(Spec, I)));

    Transaction T(R);
    bool Won = false;
    unsigned Removed = 0;
    uint32_t Matches = 0;
    // Read, move a tuple, insert a fresh one — one atomic scope.
    EXPECT_TRUE(T.query(H.Succ, {Value::ofInt(3)}, nullptr, &Matches));
    EXPECT_EQ(Matches, 1u);
    EXPECT_TRUE(T.remove(H.Rem, {Value::ofInt(3), Value::ofInt(3)},
                         &Removed));
    EXPECT_EQ(Removed, 1u);
    EXPECT_TRUE(T.insert(H.Ins,
                         {Value::ofInt(3), Value::ofInt(99),
                          Value::ofInt(333)},
                         &Won));
    EXPECT_TRUE(Won);
    EXPECT_TRUE(T.insert(H.Ins,
                         {Value::ofInt(77), Value::ofInt(7),
                          Value::ofInt(777)},
                         &Won));
    EXPECT_TRUE(Won);
    EXPECT_EQ(T.undoDepth(), 3u);
    EXPECT_TRUE(T.commit());
    EXPECT_EQ(T.state(), TxnState::Committed);
    EXPECT_GT(T.commitSeq(), 0u);

    EXPECT_EQ(R.size(), 17u) << C.Name;
    EXPECT_TRUE(R.query(key(Spec, 3, 3), Spec.allColumns()).empty());
    EXPECT_EQ(R.query(key(Spec, 3, 99), Spec.allColumns()).size(), 1u);
    ValidationResult V = R.verifyConsistency();
    EXPECT_TRUE(V.ok()) << C.Name << ": " << V.str();
  }
}

TEST(Txn, AbortRollsBackExactlyAcrossShapesAndPlacements) {
  for (const RepresentationConfig &C : sweepConfigs()) {
    ConcurrentRelation R(C);
    const RelationSpec &Spec = R.spec();
    Handles H(R);
    for (int64_t I = 0; I < 24; ++I)
      ASSERT_TRUE(R.insert(key(Spec, I % 6, I), weight(Spec, I * 10)));
    std::vector<Tuple> Before = R.scanAll();
    size_t Size0 = R.size();

    Transaction T(R);
    bool Won = false;
    unsigned Removed = 0;
    // A mixed scope touching shared structure: removes that husk inner
    // nodes, inserts that create fresh subtrees, a losing insert.
    EXPECT_TRUE(T.remove(H.Rem, {Value::ofInt(0), Value::ofInt(0)},
                         &Removed));
    EXPECT_EQ(Removed, 1u);
    EXPECT_TRUE(T.remove(H.Rem, {Value::ofInt(0), Value::ofInt(6)},
                         &Removed));
    EXPECT_EQ(Removed, 1u);
    EXPECT_TRUE(T.insert(H.Ins,
                         {Value::ofInt(100), Value::ofInt(1),
                          Value::ofInt(1)},
                         &Won));
    EXPECT_TRUE(Won);
    EXPECT_TRUE(T.insert(H.Ins,
                         {Value::ofInt(1), Value::ofInt(7),
                          Value::ofInt(2)},
                         &Won));
    EXPECT_FALSE(Won); // (1, 7) exists: no effect, no undo record
    EXPECT_TRUE(T.insert(H.Ins,
                         {Value::ofInt(0), Value::ofInt(0),
                          Value::ofInt(55)},
                         &Won));
    EXPECT_TRUE(Won); // re-keys the first removed tuple with new weight
    EXPECT_EQ(T.undoDepth(), 4u);
    T.abort();
    EXPECT_EQ(T.state(), TxnState::Aborted);
    EXPECT_EQ(T.abortCause(), TxnAbortCause::User);

    // Bit-exact rollback: the same tuples, the same count, FDs intact.
    EXPECT_EQ(R.size(), Size0) << C.Name;
    EXPECT_EQ(R.scanAll(), Before) << C.Name;
    ValidationResult V = R.verifyConsistency();
    EXPECT_TRUE(V.ok()) << C.Name << ": " << V.str();
  }
}

TEST(Txn, DestructionOfOpenScopeAborts) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  ASSERT_TRUE(R.insert(key(Spec, 1, 1), weight(Spec, 10)));
  {
    Transaction T(R);
    unsigned Removed = 0;
    EXPECT_TRUE(T.remove(H.Rem, {Value::ofInt(1), Value::ofInt(1)},
                         &Removed));
    EXPECT_EQ(Removed, 1u);
    EXPECT_EQ(R.size(), 0u); // applied inside the scope
  } // dropped without commit: rolls back
  EXPECT_EQ(R.size(), 1u);
  EXPECT_EQ(R.query(key(Spec, 1, 1), Spec.allColumns()).size(), 1u);
}

TEST(Txn, CtxPoolRecyclesAcrossThreadGenerations) {
  // The per-thread transaction context pool donates its contexts to a
  // process-global recycle list at thread exit, and later threads adopt
  // them before constructing cold ones. Several generations of
  // single-transaction workers must stay exact through the hand-off —
  // including the frame purge that keeps one thread's prepared-op
  // bindings from leaking into the next thread's scope.
  ConcurrentRelation R(stickCoarse());
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t Gen = 0; Gen < 6; ++Gen) {
    std::thread W([&R, &H, Gen] {
      Transaction T(R);
      bool Won = false;
      EXPECT_TRUE(T.insert(H.Ins,
                           {Value::ofInt(Gen), Value::ofInt(Gen),
                            Value::ofInt(Gen * 10)},
                           &Won));
      EXPECT_TRUE(Won);
      if (Gen % 2 == 0)
        EXPECT_TRUE(T.commit());
      // Odd generations drop the open scope: destructor aborts and the
      // adopted context is released (and later donated) mid-rollback
      // state-free.
    });
    W.join();
  }
  EXPECT_EQ(R.size(), 3u);
  for (int64_t Gen = 0; Gen < 6; ++Gen)
    EXPECT_EQ(R.query(key(Spec, Gen, Gen), Spec.allColumns()).size(),
              Gen % 2 == 0 ? 1u : 0u);
  EXPECT_TRUE(R.verifyConsistency().ok());
}

TEST(Txn, ScopeRetainsLocksUntilCommit) {
  // A rival reader of a key the scope wrote must block until commit —
  // never observing the intermediate state. The rival runs a bare
  // prepared query from another thread; the scope holds the written
  // key's exclusive locks across a deliberate delay.
  RepresentationConfig C = stickCoarse(); // one lock: guaranteed overlap
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  ASSERT_TRUE(R.insert(key(Spec, 5, 5), weight(Spec, 50)));

  std::atomic<bool> ScopeOpen{false}, RivalDone{false};
  std::atomic<int64_t> RivalSaw{-1};
  Transaction T(R);
  unsigned Removed = 0;
  ASSERT_TRUE(T.remove(H.Rem, {Value::ofInt(5), Value::ofInt(5)}, &Removed));
  ASSERT_EQ(Removed, 1u);
  bool Won = false;
  ASSERT_TRUE(T.insert(H.Ins,
                       {Value::ofInt(5), Value::ofInt(5), Value::ofInt(51)},
                       &Won));
  ASSERT_TRUE(Won);
  ScopeOpen.store(true, std::memory_order_release);

  std::thread Rival([&] {
    while (!ScopeOpen.load(std::memory_order_acquire))
      std::this_thread::yield();
    // Blocks on the scope's exclusive lock until commit.
    int64_t W = -1;
    H.Succ.bind(0, Value::ofInt(5));
    H.Succ.forEach(
        [&](const Tuple &Tp) { W = Tp.get(Spec.col("weight")).asInt(); });
    RivalSaw.store(W, std::memory_order_release);
    RivalDone.store(true, std::memory_order_release);
  });

  // Give the rival ample opportunity to observe 51-in-progress if the
  // scope leaked; it must still be parked on the lock.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(RivalDone.load(std::memory_order_acquire));
  ASSERT_TRUE(T.commit());
  Rival.join();
  EXPECT_EQ(RivalSaw.load(std::memory_order_acquire), 51);
}

//===----------------------------------------------------------------------===//
// Wait-die and fairness
//===----------------------------------------------------------------------===//

TEST(Txn, WaitDieFairnessUnderCrossOrderContention) {
  // Workers transact across a tiny keyspace in *opposite* key orders on
  // a coarse placement — the classic deadlock shape. Bounded wait-die
  // must keep every thread completing scopes (no deadlock, no
  // starvation), with runTransaction's aging as the fairness engine.
  RepresentationConfig C = splitStriped(4);
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t I = 0; I < 8; ++I)
    ASSERT_TRUE(R.insert(key(Spec, I, 0), weight(Spec, 0)));

  constexpr unsigned Threads = 4, ScopesPerThread = 60;
  std::vector<uint64_t> Commits(Threads, 0);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Xoshiro256 Rng(1000 + T);
      for (unsigned I = 0; I < ScopesPerThread; ++I) {
        // Even threads walk keys ascending, odd descending: every pair
        // of rival scopes wants locks in conflicting orders.
        int64_t A = static_cast<int64_t>(Rng.nextBounded(7));
        int64_t B = A + 1;
        if (T & 1)
          std::swap(A, B);
        bool Ok = runTransaction(R, [&](Transaction &Txn) {
          unsigned Removed = 0;
          if (!Txn.remove(H.Rem, {Value::ofInt(A), Value::ofInt(0)},
                          &Removed))
            return true; // died: runTransaction retries
          if (!Txn.insert(H.Ins,
                          {Value::ofInt(A), Value::ofInt(0),
                           Value::ofInt(static_cast<int64_t>(I))}))
            return true;
          Txn.queryForUpdate(H.Succ, {Value::ofInt(B)});
          return true;
        });
        if (Ok)
          ++Commits[T];
      }
    });
  for (std::thread &W : Workers)
    W.join();
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_EQ(Commits[T], ScopesPerThread) << "thread " << T;
  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
  EXPECT_EQ(R.size(), 8u);
}

//===----------------------------------------------------------------------===//
// Epoch abort-and-retry
//===----------------------------------------------------------------------===//

TEST(Txn, AdaptPlansMidScopeAbortsWithEpochChange) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t I = 0; I < 8; ++I)
    ASSERT_TRUE(R.insert(key(Spec, I, I), weight(Spec, I)));
  std::vector<Tuple> Before = R.scanAll();

  Transaction T(R);
  unsigned Removed = 0;
  ASSERT_TRUE(T.remove(H.Rem, {Value::ofInt(2), Value::ofInt(2)}, &Removed));
  ASSERT_EQ(Removed, 1u);
  // The scope holds locks but no op is in flight; the statistics walk
  // is race-free here (single thread), and the epoch bump retires the
  // scope's plans.
  R.adaptPlans();
  EXPECT_FALSE(T.insert(H.Ins, {Value::ofInt(90), Value::ofInt(0),
                                Value::ofInt(1)}));
  EXPECT_EQ(T.state(), TxnState::Aborted);
  EXPECT_EQ(T.abortCause(), TxnAbortCause::EpochChange);
  // The partial scope rolled back under the *old* plans' undo.
  EXPECT_EQ(R.scanAll(), Before);

  // The retry (fresh scope, new epoch) succeeds; handles rebind.
  EXPECT_TRUE(runTransaction(R, [&](Transaction &Txn) {
    Txn.remove(H.Rem, {Value::ofInt(2), Value::ofInt(2)});
    Txn.insert(H.Ins,
               {Value::ofInt(90), Value::ofInt(0), Value::ofInt(1)});
    return true;
  }));
  EXPECT_EQ(R.size(), 8u);
  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
}

//===----------------------------------------------------------------------===//
// Transactions racing a live migration
//===----------------------------------------------------------------------===//

TEST(Txn, ScopesRaceMigrationThroughBothFlips) {
  // Worker threads run small transfer scopes (remove + insert pairs)
  // while the controlling thread migrates stick→split under traffic.
  // The oracle replays committed scopes only: a buffered mirror lost at
  // commit, or an aborted scope's write leaking into the shadow, shows
  // up as a final-state diff after the retirement flip.
  RepresentationConfig From = stickCoarse();
  ConcurrentRelation R(From);
  stress::TxnStressOptions Opts;
  Opts.Threads = 4;
  Opts.MaxOpsPerTxn = 3;
  Opts.ForcedAbortPct = 20;
  Opts.OpsBeforeAction = 600;
  Opts.OpsAfterAction = 600;
  Opts.Seed = 20120612;
  stress::TxnStressReport Rep = stress::runTxnStressWithOracle(
      R, Opts, [&] {
        MigrationResult Res = R.migrateTo(splitStriped());
        ASSERT_TRUE(Res.Ok) << Res.Error;
      });
  EXPECT_TRUE(Rep.Errors.empty())
      << Rep.Errors.size() << " oracle mismatches; first: "
      << Rep.Errors.front() << "; " << Rep.hint();
  EXPECT_GT(Rep.Committed, 0u);
  EXPECT_GT(Rep.ForcedAborts, 0u) << Rep.hint();
  EXPECT_EQ(R.config().Name, splitStriped().Name);
  std::vector<std::string> Diffs =
      stress::diffFinalState(R.scanAll(), R.spec(), Rep.Expected);
  EXPECT_TRUE(Diffs.empty())
      << Diffs.size() << " diffs; first: " << Diffs.front() << "; "
      << Rep.hint();
  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str() << "; " << Rep.hint();
}

TEST(Txn, BufferedMirrorsFlushOnCommitAndDiscardOnAbort) {
  // Deterministic single-thread check of the dual-write interplay: a
  // MigrationObserver callback runs on the migrating thread with the
  // gate open, where scopes can run while the dual-write phase is
  // active.
  RepresentationConfig From = stickCoarse();
  ConcurrentRelation R(From);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t I = 0; I < 10; ++I)
    ASSERT_TRUE(R.insert(key(Spec, I, I), weight(Spec, I)));

  struct Hook : MigrationObserver {
    ConcurrentRelation &R;
    Handles &H;
    explicit Hook(ConcurrentRelation &R, Handles &H) : R(R), H(H) {}
    void onDualWriteStart() override {
      // Committed scope: its mutations must reach the shadow (via the
      // commit-time mirror flush) and survive retirement.
      Transaction T1(R);
      ASSERT_TRUE(T1.remove(H.Rem, {Value::ofInt(0), Value::ofInt(0)}));
      ASSERT_TRUE(T1.insert(
          H.Ins, {Value::ofInt(0), Value::ofInt(50), Value::ofInt(500)}));
      ASSERT_TRUE(T1.commit());
      // Aborted scope: nothing may reach the shadow.
      Transaction T2(R);
      ASSERT_TRUE(T2.remove(H.Rem, {Value::ofInt(1), Value::ofInt(1)}));
      ASSERT_TRUE(T2.insert(
          H.Ins, {Value::ofInt(1), Value::ofInt(60), Value::ofInt(600)}));
      T2.abort();
    }
  } Obs(R, H);

  MigrationResult Res = R.migrateTo(splitStriped(), &Obs);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  // Post-retirement state is served by the (former) shadow: the
  // committed scope is present, the aborted one invisible.
  EXPECT_TRUE(R.query(key(Spec, 0, 0), Spec.allColumns()).empty());
  EXPECT_EQ(R.query(key(Spec, 0, 50), Spec.allColumns()).size(), 1u);
  EXPECT_EQ(R.query(key(Spec, 1, 1), Spec.allColumns()).size(), 1u);
  EXPECT_TRUE(R.query(key(Spec, 1, 60), Spec.allColumns()).empty());
  EXPECT_EQ(R.size(), 10u);
  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
}

//===----------------------------------------------------------------------===//
// Cross-shard scopes
//===----------------------------------------------------------------------===//

TEST(ShardedTxn, SingleShardScopePaysNoCoordination) {
  ShardedRelation R(splitStriped(), 4);
  const RelationSpec &Spec = R.spec();
  ShardedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  ShardedRemove Rem = R.prepareRemove(Spec.cols({"src", "dst"}));

  ShardedTransaction T(R);
  // Same src → same routed shard for every op in the scope.
  ASSERT_TRUE(T.insert(Ins, {Value::ofInt(7), Value::ofInt(1),
                             Value::ofInt(10)}));
  ASSERT_TRUE(T.insert(Ins, {Value::ofInt(7), Value::ofInt(2),
                             Value::ofInt(20)}));
  EXPECT_EQ(T.shardsTouched(), 1u);
  ASSERT_TRUE(T.commit());
  EXPECT_EQ(R.size(), 2u);

  ShardedTransaction T2(R);
  unsigned Removed = 0;
  ASSERT_TRUE(T2.remove(Rem, {Value::ofInt(7), Value::ofInt(1)}, &Removed));
  EXPECT_EQ(Removed, 1u);
  T2.abort();
  EXPECT_EQ(R.size(), 2u); // rolled back on the one touched shard
}

TEST(ShardedTxn, CrossShardCommitAndAbortAreAtomic) {
  ShardedRelation R(splitStriped(), 4);
  const RelationSpec &Spec = R.spec();
  ShardedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  ShardedRemove Rem = R.prepareRemove(Spec.cols({"src", "dst"}));
  ShardedQuery Pred = R.prepareQuery(Spec.cols({"dst"}),
                                     Spec.cols({"src", "weight"}));

  // Seed one tuple per src so the scope below spans several shards.
  for (int64_t S = 0; S < 16; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, 0), weight(Spec, S)));
  std::vector<Tuple> Before = R.scanAll();

  {
    ShardedTransaction T(R);
    for (int64_t S = 0; S < 16; ++S) {
      unsigned Removed = 0;
      ASSERT_TRUE(
          T.remove(Rem, {Value::ofInt(S), Value::ofInt(0)}, &Removed));
      ASSERT_EQ(Removed, 1u);
      ASSERT_TRUE(T.insert(Ins, {Value::ofInt(S), Value::ofInt(1),
                                 Value::ofInt(S * 2)}));
    }
    EXPECT_GT(T.shardsTouched(), 1u);
    // A transactional fan-out query inside the cross-shard scope.
    uint32_t Matches = 0;
    ASSERT_TRUE(T.query(Pred, {Value::ofInt(1)}, nullptr, &Matches));
    EXPECT_EQ(Matches, 16u);
    T.abort();
  }
  EXPECT_EQ(R.scanAll(), Before); // every shard rolled back

  {
    ShardedTransaction T(R);
    for (int64_t S = 0; S < 16; ++S) {
      ASSERT_TRUE(T.remove(Rem, {Value::ofInt(S), Value::ofInt(0)}));
      ASSERT_TRUE(T.insert(Ins, {Value::ofInt(S), Value::ofInt(1),
                                 Value::ofInt(S * 2)}));
    }
    ASSERT_TRUE(T.commit());
    EXPECT_GT(T.commitSeq(), 0u);
  }
  EXPECT_EQ(R.size(), 16u);
  for (int64_t S = 0; S < 16; ++S)
    EXPECT_EQ(R.query(key(Spec, S, 1), Spec.allColumns()).size(), 1u);
  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
}

TEST(ShardedTxn, StressWithMidRunShardMigrationMatchesOracle) {
  // The acceptance-criteria run: 4 threads of transfer-style scopes
  // with forced aborts, a mid-run shard-at-a-time migration, and the
  // committed-txn-log oracle checked exactly.
  ShardedRelation R(stickCoarse(), 4);
  stress::TxnStressOptions Opts;
  Opts.Threads = 4;
  Opts.MaxOpsPerTxn = 3;
  Opts.ForcedAbortPct = 15;
  Opts.OpsBeforeAction = 500;
  Opts.OpsAfterAction = 500;
  Opts.Seed = 20120613;
  stress::TxnStressReport Rep = stress::runTxnStressWithOracle(
      R, Opts, [&] {
        for (unsigned S = 0; S < R.numShards(); ++S) {
          MigrationResult Res = R.migrateShard(S, splitStriped());
          ASSERT_TRUE(Res.Ok) << "shard " << S << ": " << Res.Error;
        }
      });
  EXPECT_TRUE(Rep.Errors.empty())
      << Rep.Errors.size() << " oracle mismatches; first: "
      << Rep.Errors.front() << "; " << Rep.hint();
  EXPECT_GT(Rep.Committed, 0u);
  EXPECT_GE(Rep.ForcedAborts * 100,
            Rep.TotalOps * (Opts.ForcedAbortPct / 2)) // ≥ ~half the target
      << Rep.hint();
  std::vector<std::string> Diffs =
      stress::diffFinalState(R.scanAll(), R.spec(), Rep.Expected);
  EXPECT_TRUE(Diffs.empty())
      << Diffs.size() << " diffs; first: " << Diffs.front() << "; "
      << Rep.hint();
  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str() << "; " << Rep.hint();
}

//===----------------------------------------------------------------------===//
// Plan-cache and handle integration
//===----------------------------------------------------------------------===//

TEST(Txn, TxnSignaturesShareThePlanCache) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  ASSERT_TRUE(R.insert(key(Spec, 1, 2), weight(Spec, 3)));

  uint64_t Misses0 = R.planCacheMisses();
  for (int Round = 0; Round < 5; ++Round) {
    Transaction T(R);
    ASSERT_TRUE(T.queryForUpdate(H.Succ, {Value::ofInt(1)}));
    ASSERT_TRUE(T.remove(H.Rem, {Value::ofInt(1), Value::ofInt(2)}));
    ASSERT_TRUE(T.insert(H.Ins, {Value::ofInt(1), Value::ofInt(2),
                                 Value::ofInt(3)}));
    T.abort(); // exercises both undo plans too
  }
  uint64_t Misses = R.planCacheMisses() - Misses0;
  // One compile each: query-for-update, remove, undo-insert,
  // undo-remove (the seed insert above already compiled the insert
  // signature, which the scopes share) — every later scope hits.
  EXPECT_EQ(Misses, 4u);

  bool SawForUpdate = false, SawUndoIns = false, SawUndoRem = false;
  for (const PlanCache::Signature &Sig : R.compiledSignatures()) {
    SawForUpdate |= Sig.Op == PlanOp::QueryForUpdate;
    SawUndoIns |= Sig.Op == PlanOp::UndoInsert;
    SawUndoRem |= Sig.Op == PlanOp::UndoRemove;
  }
  EXPECT_TRUE(SawForUpdate);
  EXPECT_TRUE(SawUndoIns);
  EXPECT_TRUE(SawUndoRem);
}

//===----------------------------------------------------------------------===//
// LockOrderValidator
//===----------------------------------------------------------------------===//

TEST(LockOrderValidator, FlagsCrossSetInversions) {
  // Drive the validator directly (the LockSet hooks are debug-only;
  // this works in every build). Two domains: shard 0 and shard 1.
  int A = 0, B = 0; // stand-in set identities
  LockOrderKey K1{1, {}, 0};
  LockOrderKey K2{2, {}, 0};
  uint64_t Shard0 = 0, Shard1 = 1;

  LockOrderValidator::noteHeld(&A, Shard1, K1);
  // Blocking in a *lower* domain while holding a higher one: violation.
  EXPECT_TRUE(LockOrderValidator::wouldViolate(&B, Shard0, K2));
  // Blocking at or above the held domain: fine.
  EXPECT_FALSE(LockOrderValidator::wouldViolate(&B, Shard1, K2));
  // Same domain, lower key than the other set's max: violation.
  LockOrderValidator::noteHeld(&A, Shard1, K2);
  EXPECT_TRUE(LockOrderValidator::wouldViolate(&B, Shard1, K1));
  // The holder itself is exempt (its own order is LockSet's duty).
  EXPECT_FALSE(LockOrderValidator::wouldViolate(&A, Shard1, K1));
  // Rollback lowers the recorded max; release drops the entry.
  LockOrderValidator::noteRolledBack(&A, Shard1, true, K1);
  EXPECT_FALSE(LockOrderValidator::wouldViolate(&B, Shard1, K1));
  LockOrderValidator::noteReleased(&A);
  EXPECT_FALSE(LockOrderValidator::wouldViolate(&B, Shard0, K1));
  EXPECT_EQ(LockOrderValidator::liveSets(), 0u);
}
