//===- examples/replicated_graph.cpp - Durability + a live read replica -------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// The durability pipeline end to end on the bank relation from
/// examples/bank.cpp: a 4-shard primary with a group-commit WAL
/// attached (src/wal/Wal.h) serves concurrent transfer transactions
/// while
///
///   - a FollowerRelation (src/wal/Follower.h) tails the WAL's
///     partition files and serves reads from a *different*
///     representation than the primary,
///   - a checkpoint is taken mid-run under full write traffic
///     (src/wal/Checkpoint.h), and
///   - after the writers stop, a fresh fleet is recovered from
///     checkpoint + WAL as if the process had crashed.
///
/// The demo self-verifies three ways and exits nonzero on any
/// violation: money is conserved on the primary (the transactional
/// invariant), the caught-up follower's state equals the primary's
/// tuple-for-tuple with every logged record applied and zero anomalies
/// and gaps (the replication contract, read off one metrics snapshot),
/// and the recovered fleet's state equals the primary's too (the
/// durability contract). It also prints the writer phase's wall time
/// and, per wait site, the longest wait the engine recorded
/// (`sync.wait`, sync/Backoff.h): the numbers to read first when a run
/// is slow.
///
//===----------------------------------------------------------------------===//

#include "autotune/Autotuner.h"
#include "support/Rng.h"
#include "obs/Exporter.h"
#include "txn/Transaction.h"
#include "wal/Checkpoint.h"
#include "wal/Follower.h"
#include "wal/Wal.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace crs;

namespace {

std::vector<Tuple> sorted(std::vector<Tuple> V) {
  std::sort(V.begin(), V.end(), TupleLess());
  return V;
}

uint64_t counter(const obs::MetricsSnapshot &S, const char *Name) {
  for (const auto &C : S.Counters)
    if (C.Name == Name)
      return C.Value;
  return 0;
}

} // namespace

int main() {
  constexpr unsigned NumShards = 4, NumThreads = 4;
  constexpr int64_t NumAccounts = 64, InitialBalance = 1000;
  constexpr uint64_t TransfersPerThread = 300;

  RepresentationConfig Primary = makeGraphRepresentation(
      {GraphShape::Stick, PlacementSchemeKind::Coarse, 1,
       ContainerKind::HashMap, ContainerKind::TreeMap});
  // The follower serves reads from a shape the primary never uses —
  // the stream carries full tuples, not physical layout.
  RepresentationConfig ReplicaShape = makeGraphRepresentation(
      {GraphShape::Split, PlacementSchemeKind::Striped, 64,
       ContainerKind::ConcurrentHashMap, ContainerKind::TreeMap});

  char Dir[] = "/tmp/crs_replicated_XXXXXX";
  if (!mkdtemp(Dir)) {
    std::perror("mkdtemp");
    return 1;
  }

  WriteAheadLog::Options WO;
  WO.Dir = Dir;
  WO.Partitions = NumShards;
  WO.Fsync = FsyncMode::Batched;
  std::string Err;
  std::unique_ptr<WriteAheadLog> Log = WriteAheadLog::open(WO, &Err);
  if (!Log) {
    std::printf("wal open failed: %s\n", Err.c_str());
    return 1;
  }
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::global();
  Log->attachMetrics(Reg);

  ShardedRelation Bank(Primary, NumShards);
  Bank.attachWal(*Log); // shard i -> partition i, before any traffic
  const RelationSpec &Spec = Bank.spec();
  ColumnId WeightCol = Spec.col("weight");

  for (int64_t A = 0; A < NumAccounts; ++A)
    Bank.insert(Tuple::of({{Spec.col("src"), Value::ofInt(A)},
                           {Spec.col("dst"), Value::ofInt(0)}}),
                Tuple::of({{WeightCol, Value::ofInt(InitialBalance)}}));
  const int64_t TotalMoney = NumAccounts * InitialBalance;

  FollowerRelation Follower(ReplicaShape, *Log);
  Follower.attachMetrics(Reg);

  std::printf("replicated bank: %lld accounts across %u shards of %s; "
              "WAL + live follower (%s) + mid-run checkpoint\n\n",
              static_cast<long long>(NumAccounts), NumShards,
              Primary.Name.c_str(), ReplicaShape.Name.c_str());

  ShardedQuery Balance =
      Bank.prepareQuery(Spec.cols({"src", "dst"}), Spec.cols({"weight"}));
  ShardedInsert Put = Bank.prepareInsert(Spec.cols({"src", "dst"}));
  ShardedRemove Drop = Bank.prepareRemove(Spec.cols({"src", "dst"}));

  std::atomic<uint64_t> Committed{0}, Transfers{0};
  auto WriterStart = std::chrono::steady_clock::now();
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < NumThreads; ++T)
    Workers.emplace_back([&, T] {
      Xoshiro256 Rng(0x9E97 + T);
      for (uint64_t I = 0; I < TransfersPerThread; ++I) {
        int64_t A = static_cast<int64_t>(Rng.nextBounded(NumAccounts));
        int64_t B = static_cast<int64_t>(Rng.nextBounded(NumAccounts - 1));
        if (B >= A)
          ++B;
        uint64_t Amount = Rng.nextBounded(50) + 1;
        bool Ok = runTransaction(Bank, [&](ShardedTransaction &Txn) {
          int64_t BalA = -1, BalB = -1;
          if (!Txn.queryForUpdate(Balance, {Value::ofInt(A), Value::ofInt(0)},
                         [&](const Tuple &Tp) {
                           BalA = Tp.get(WeightCol).asInt();
                         }))
            return true;
          if (!Txn.queryForUpdate(Balance, {Value::ofInt(B), Value::ofInt(0)},
                         [&](const Tuple &Tp) {
                           BalB = Tp.get(WeightCol).asInt();
                         }))
            return true;
          int64_t X = std::min<int64_t>(static_cast<int64_t>(Amount), BalA);
          if (!Txn.remove(Drop, {Value::ofInt(A), Value::ofInt(0)}) ||
              !Txn.insert(Put, {Value::ofInt(A), Value::ofInt(0),
                                Value::ofInt(BalA - X)}) ||
              !Txn.remove(Drop, {Value::ofInt(B), Value::ofInt(0)}) ||
              !Txn.insert(Put, {Value::ofInt(B), Value::ofInt(0),
                                Value::ofInt(BalB + X)}))
            return true;
          return true;
        });
        if (Ok)
          Committed.fetch_add(1, std::memory_order_relaxed);
        Transfers.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Mid-run, under full write traffic: checkpoint every shard (each
  // shard's op gate closes in turn — the rolling-migration discipline).
  while (Transfers.load(std::memory_order_relaxed) <
         NumThreads * TransfersPerThread / 3)
    std::this_thread::yield();
  if (!writeShardedCheckpoint(Bank, Dir, &Err)) {
    std::printf("checkpoint failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("mid-run: checkpointed all %u shards under load\n", NumShards);

  for (std::thread &W : Workers)
    W.join();
  double WriterSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - WriterStart)
                             .count();

  // ---- replication check: catch the follower up, compare states -----
  // The writers have joined, so every commit is in the log's memory:
  // flush() puts it on disk, and waitCaughtUp() returns once a poll
  // round that started after the flush has been applied.
  Log->flush();
  bool FollowerCaughtUp = Follower.waitCaughtUp();
  Follower.stop();
  std::vector<Tuple> PrimaryState = sorted(Bank.scanAll());
  obs::MetricsSnapshot Snap = Reg.snapshot();
  uint64_t Appended = counter(Snap, "wal.records_appended");
  uint64_t Applied = counter(Snap, "follower.applied_records");
  uint64_t Anomalies = counter(Snap, "follower.anomalies");
  uint64_t Gaps = counter(Snap, "follower.gaps");
  bool FollowerMatches =
      FollowerCaughtUp && Applied == Appended && Anomalies == 0 &&
      Gaps == 0 && sorted(Follower.relation().scanAll()) == PrimaryState;
  std::printf("follower: %llu of %llu records applied, %llu anomalies, "
              "%llu gaps -> %s\n",
              static_cast<unsigned long long>(Applied),
              static_cast<unsigned long long>(Appended),
              static_cast<unsigned long long>(Anomalies),
              static_cast<unsigned long long>(Gaps),
              FollowerMatches ? "state matches primary" : "MISMATCH");
  std::printf("writer phase: %.3f s; longest wait per site (ms):",
              WriterSeconds);
  for (const auto &H : Snap.Histograms)
    if (H.Name == "sync.wait")
      std::printf(" %s %.3f", H.Labels[0].second.c_str(),
                  static_cast<double>(H.Data.MaxNanos) / 1e6);
  std::printf("\n");

  obs::exportIfRequested(Reg); // CRS_METRICS_JSON=<path>: dump the verdict

  // ---- durability check: recover a fresh fleet from disk ------------
  Bank.detachWal();
  Log->flush();
  Log.reset(); // clean shutdown; recovery works the same from a kill
  ShardedRelation Recovered(Primary, NumShards);
  RecoveryResult RR = recoverShardedRelation(Recovered, Dir);
  bool RecoveredMatches =
      RR.Ok && sorted(Recovered.scanAll()) == PrimaryState;
  std::printf("recovery: checkpoint seq %llu, %zu tuples + %zu records "
              "replayed -> %s\n",
              static_cast<unsigned long long>(RR.CheckpointSeq),
              RR.CheckpointTuples, RR.RecordsReplayed,
              RecoveredMatches ? "state matches primary" : "MISMATCH");

  // ---- transactional invariant on all three copies ------------------
  int64_t Sum = 0;
  for (const Tuple &Tp : PrimaryState)
    Sum += Tp.get(WeightCol).asInt();
  bool Conserved = Sum == TotalMoney &&
                   static_cast<int64_t>(PrimaryState.size()) == NumAccounts;
  ValidationResult V = Recovered.verifyConsistency();

  bool Pass = Conserved && FollowerMatches && RecoveredMatches && V.ok() &&
              Committed.load() > 0 && RR.CheckpointSeq > 0 &&
              RR.RecordsReplayed > 0;
  std::printf("\n%llu committed; balance total %lld (expected %lld); "
              "recovered consistency %s\n",
              static_cast<unsigned long long>(Committed.load()),
              static_cast<long long>(Sum),
              static_cast<long long>(TotalMoney),
              V.ok() ? "ok" : V.str().c_str());
  std::printf("%s\n",
              Pass ? "PASS: the commit stream reproduced the primary's "
                     "state live (follower) and from disk (recovery)"
                   : "FAIL: a durability or replication invariant broke");

  // Leave the scratch directory for inspection on failure only.
  if (Pass) {
    std::string Cmd = std::string("rm -rf ") + Dir;
    [[maybe_unused]] int Ignored = std::system(Cmd.c_str());
  } else {
    std::printf("(WAL + checkpoints left in %s)\n", Dir);
  }
  return Pass ? 0 : 1;
}
