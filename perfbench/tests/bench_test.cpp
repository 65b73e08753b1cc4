//===- perfbench/tests/bench_test.cpp - Tests of the benchmark's own code -===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// The benchmark is only as good as its inputs and its oracle: one seed
/// must give one op stream and one set of mutation outcomes, another
/// seed a different one, and the oracle must notice a lost effect.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <gtest/gtest.h>

#include <thread>

using namespace perfbench;

namespace {

constexpr uint64_t CallsPerClient = 3000;

/// What one fixed-length run of a workload did: the outcome counts that
/// key ownership makes deterministic.
struct RunCounts {
  uint64_t InsertsWon = 0;
  uint64_t RemovesHit = 0;
  uint64_t WalRecords = 0;
  size_t FinalSize = 0;
  uint64_t Violations = 0;

  bool operator==(const RunCounts &O) const {
    return InsertsWon == O.InsertsWon && RemovesHit == O.RemovesHit &&
           WalRecords == O.WalRecords && FinalSize == O.FinalSize;
  }
};

std::unique_ptr<Instance> runFixed(Workload W, uint64_t Seed,
                                   RunCounts &Out) {
  std::string WalDir =
      W == Workload::TxnDurable ? "perfbench_test_wal" : std::string();
  std::unique_ptr<Instance> I = setUp(W, Seed, WalDir);
  std::vector<ClientState> Clients(NumClients);
  std::atomic<int> Ctl{int(Phase::Untraced)};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < NumClients; ++C) {
    Clients[C].Client = C;
    Threads.emplace_back(
        [&, C] { runClient(*I, Seed, Clients[C], Ctl, CallsPerClient); });
  }
  for (std::thread &T : Threads)
    T.join();
  Out = {};
  for (const ClientState &S : Clients) {
    Out.InsertsWon += S.InsertsWon;
    Out.RemovesHit += S.RemovesHit;
    Out.Violations += S.Violations + S.FailedScopes;
  }
  if (I->Wal)
    Out.WalRecords = I->Wal->recordsAppended();
  Out.FinalSize = I->Rel->size();
  return I;
}

std::vector<Op> firstOps(Workload W, uint64_t Seed, unsigned Client,
                         size_t N) {
  OpStream S(W, Seed, Client);
  std::vector<Op> Ops;
  while (Ops.size() < N) {
    if (W == Workload::TxnDurable) {
      Scope Sc = S.nextScope();
      Ops.insert(Ops.end(), Sc.begin(), Sc.end());
    } else {
      Ops.push_back(S.next());
    }
  }
  return Ops;
}

bool samePlan(const std::vector<crs::MutationLog> &A,
              const std::vector<crs::MutationLog> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t C = 0; C < A.size(); ++C) {
    if (A[C].size() != B[C].size())
      return false;
    for (size_t K = 0; K < A[C].size(); ++K)
      if (A[C][K].IsInsert != B[C][K].IsInsert || A[C][K].Src != B[C][K].Src ||
          A[C][K].Dst != B[C][K].Dst || A[C][K].Weight != B[C][K].Weight)
        return false;
  }
  return true;
}

} // namespace

TEST(PerfbenchInputs, OneSeedGivesOneOpStream) {
  for (Workload W : {Workload::Lookup, Workload::Churn, Workload::TxnDurable})
    for (unsigned C = 0; C < NumClients; ++C)
      EXPECT_EQ(firstOps(W, 7, C, 20000), firstOps(W, 7, C, 20000))
          << workloadName(W) << " client " << C;
  EXPECT_TRUE(samePlan(prefillPlan(7), prefillPlan(7)));
}

TEST(PerfbenchInputs, AnotherSeedGivesAnotherOpStream) {
  for (Workload W : {Workload::Lookup, Workload::Churn, Workload::TxnDurable})
    for (unsigned C = 0; C < NumClients; ++C)
      EXPECT_NE(firstOps(W, 7, C, 1000), firstOps(W, 8, C, 1000))
          << workloadName(W) << " client " << C;
  EXPECT_FALSE(samePlan(prefillPlan(7), prefillPlan(8)));
}

TEST(PerfbenchInputs, StreamsStayInTheirKeySpace) {
  for (Workload W : {Workload::Lookup, Workload::Churn, Workload::TxnDurable})
    for (unsigned C = 0; C < NumClients; ++C)
      for (const Op &O : firstOps(W, 3, C, 20000)) {
        ASSERT_GE(O.Node, 0);
        ASSERT_LT(O.Node, NumNodes);
        if (O.Kind == OpKind::Insert || O.Kind == OpKind::Remove) {
          ASSERT_EQ(ownerOf(O.Node), C) << "a client mutated a foreign src";
          int64_t K = (O.Dst - O.Node + NumNodes) % NumNodes;
          ASSERT_LT(K, MaxOffset);
        }
      }
  // The prefill writes every key once and leaves PrefillEdges of them.
  size_t Inserts = 0, Removes = 0;
  for (const crs::MutationLog &L : prefillPlan(3))
    for (const crs::LoggedMutation &M : L)
      (M.IsInsert ? Inserts : Removes) += 1;
  EXPECT_EQ(Inserts, KeySpace);
  EXPECT_EQ(Inserts - Removes, PrefillEdges);
}

TEST(PerfbenchRuns, OneSeedGivesOneSetOfMutationCounts) {
  for (Workload W : {Workload::Churn, Workload::TxnDurable}) {
    RunCounts A, B, Other;
    runFixed(W, 11, A);
    runFixed(W, 11, B);
    runFixed(W, 12, Other);
    EXPECT_EQ(A.Violations, 0u) << workloadName(W);
    EXPECT_GT(A.InsertsWon, 0u);
    EXPECT_GT(A.RemovesHit, 0u);
    EXPECT_TRUE(A == B) << workloadName(W) << ": won " << A.InsertsWon
                        << " vs " << B.InsertsWon << ", hit " << A.RemovesHit
                        << " vs " << B.RemovesHit << ", wal " << A.WalRecords
                        << " vs " << B.WalRecords;
    EXPECT_FALSE(A == Other) << workloadName(W);
    if (W == Workload::TxnDurable)
      EXPECT_GT(A.WalRecords, PrefillEdges);
  }
}

TEST(PerfbenchOracle, PassesAnHonestRunAndCatchesADroppedInsert) {
  RunCounts Counts;
  std::unique_ptr<Instance> I = runFixed(Workload::Churn, 5, Counts);
  std::vector<crs::Tuple> Final = I->Rel->scanAll();
  EXPECT_EQ(checkState(I->Logs, Final, *I->H).Violations, 0u);

  // Drop one insert that won during the timed phase (after the prefill).
  std::vector<crs::MutationLog> Logs = I->Logs;
  crs::MutationLog &Log = Logs[0];
  size_t Prefilled = 0;
  std::vector<crs::MutationLog> Plan = prefillPlan(5);
  for (unsigned P = 0; P < PrefillThreads; ++P)
    if (P * NumClients / PrefillThreads == 0)
      Prefilled += Plan[P].size();
  bool Dropped = false;
  for (size_t K = Prefilled; K < Log.size() && !Dropped; ++K)
    if (Log[K].IsInsert && Log[K].Outcome == 1) {
      Log.erase(Log.begin() + std::ptrdiff_t(K));
      Dropped = true;
    }
  ASSERT_TRUE(Dropped);
  EXPECT_GT(checkState(Logs, Final, *I->H).Violations, 0u);
}
