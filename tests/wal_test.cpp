//===- tests/wal_test.cpp - Durability, recovery, and replication -------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// src/wal: the durability and replication pipeline. Covers the wire
/// format (roundtrip, CRC rejection, torn-tail detection at every
/// truncation), group-commit append ordering across threads, Sync-mode
/// durability-on-return, checkpoint + crash recovery against the
/// StressHarness oracle — including the deterministic torn-tail
/// truncation and the kill-during-checkpoint fallback — follower
/// relations tailing the log (equality with the committed-only
/// oracle across segment rotations, the log-defined catch-up wait,
/// pruned segments reported as gaps), and the wait-die lock-priority
/// discipline on transaction scopes.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "autotune/Autotuner.h"
#include "sync/CommitClock.h"
#include "sync/LockSet.h"
#include "txn/Transaction.h"
#include "wal/Checkpoint.h"
#include "wal/Follower.h"
#include "wal/Wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace crs;

namespace {

Tuple key(const RelationSpec &Spec, int64_t S, int64_t D) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)}});
}

Tuple weight(const RelationSpec &Spec, int64_t W) {
  return Tuple::of({{Spec.col("weight"), Value::ofInt(W)}});
}

Tuple edge(const RelationSpec &Spec, int64_t S, int64_t D, int64_t W) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)},
                    {Spec.col("weight"), Value::ofInt(W)}});
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

/// A self-cleaning scratch directory for log and checkpoint files.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/crs_wal_XXXXXX";
    char *P = ::mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "/tmp/crs_wal_fallback";
  }
  ~TempDir() {
    if (DIR *D = ::opendir(Path.c_str())) {
      while (struct dirent *E = ::readdir(D)) {
        std::string N = E->d_name;
        if (N != "." && N != "..")
          ::unlink((Path + "/" + N).c_str());
      }
      ::closedir(D);
    }
    ::rmdir(Path.c_str());
  }
};

std::vector<Tuple> sorted(std::vector<Tuple> V) {
  std::sort(V.begin(), V.end(), TupleLess());
  return V;
}

WriteAheadLog::Options walOpts(const std::string &Dir, unsigned Partitions = 1,
                               FsyncMode Mode = FsyncMode::None) {
  WriteAheadLog::Options O;
  O.Dir = Dir;
  O.Partitions = Partitions;
  O.Fsync = Mode; // tests default to no fsync: same code path, fast disks
  O.ParkMicros = 100;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire format
//===----------------------------------------------------------------------===//

TEST(WalFormat, EncodeDecodeRoundtripIncludingStrings) {
  // String values serialize their bytes (intern ids are process-local);
  // the format test uses raw column ids — it is spec-agnostic.
  std::vector<WalRecord> In(3);
  In[0].CommitSeq = 7;
  In[0].Shard = 2;
  In[0].Muts.push_back(
      {WalOp::Insert, Tuple::of({{ColumnId(1), Value::ofInt(42)},
                                 {ColumnId(2), Value::ofInt(-9)}})});
  In[1].CommitSeq = 8;
  In[1].Shard = 0;
  In[1].Muts.push_back(
      {WalOp::Insert, Tuple::of({{ColumnId(1), Value::ofString("alpha")},
                                 {ColumnId(7), Value::ofInt(1)}})});
  In[1].Muts.push_back(
      {WalOp::Remove, Tuple::of({{ColumnId(1), Value::ofString("")}})});
  In[2].CommitSeq = 9; // an empty-mutation record is legal on the wire
  In[2].Shard = 5;     // (checkpoints use it for header/trailer marks)

  std::vector<uint8_t> Buf;
  std::vector<size_t> Ends;
  for (const WalRecord &R : In) {
    walEncodeRecord(Buf, R.CommitSeq, R.Shard, R.Muts.data(), R.Muts.size());
    Ends.push_back(Buf.size());
  }

  size_t Off = 0;
  for (size_t I = 0; I < In.size(); ++I) {
    WalRecord Out;
    size_t Used = walDecodeRecord(Buf.data() + Off, Buf.size() - Off, Out);
    ASSERT_GT(Used, 0u) << "record " << I;
    Off += Used;
    EXPECT_EQ(Off, Ends[I]);
    EXPECT_EQ(Out.CommitSeq, In[I].CommitSeq);
    EXPECT_EQ(Out.Shard, In[I].Shard);
    ASSERT_EQ(Out.Muts.size(), In[I].Muts.size());
    for (size_t J = 0; J < Out.Muts.size(); ++J) {
      EXPECT_EQ(Out.Muts[J].Op, In[I].Muts[J].Op);
      EXPECT_TRUE(Out.Muts[J].Full == In[I].Muts[J].Full)
          << "record " << I << " mutation " << J;
    }
  }
  EXPECT_EQ(Off, Buf.size());
  EXPECT_TRUE(In[1].Muts[0].Full.get(ColumnId(1)).isString());
}

TEST(WalFormat, StreamingCommitEncodeIsByteIdenticalToArrayForm) {
  // The transaction commit hook encodes its WAL record straight from
  // the undo log through the streaming logCommit overload — projection
  // happens during encoding, no WalMutation vector and no projected
  // tuple copies (ROADMAP 2c). The contract is byte identity: the same
  // mutations through the array overload (fed eagerly projected
  // tuples) and through the streaming overload must produce the same
  // wire bytes. Append each through its own partition and diff the
  // files.
  TempDir Dir;
  auto Log = WriteAheadLog::open(walOpts(Dir.Path, /*Partitions=*/2));
  ASSERT_NE(Log, nullptr);

  // Full tuples carry an extra column the projection strips; one value
  // is a string so both kinds cross the encoder.
  ColumnSet Project = ColumnSet::of(ColumnId(1)) | ColumnSet::of(ColumnId(3));
  std::vector<std::pair<WalOp, Tuple>> Muts;
  Muts.emplace_back(WalOp::Insert,
                    Tuple::of({{ColumnId(1), Value::ofInt(42)},
                               {ColumnId(2), Value::ofInt(-7)},
                               {ColumnId(3), Value::ofString("beta")}}));
  Muts.emplace_back(WalOp::Remove,
                    Tuple::of({{ColumnId(1), Value::ofInt(9)},
                               {ColumnId(2), Value::ofInt(1)}}));
  Muts.emplace_back(WalOp::Insert,
                    Tuple::of({{ColumnId(3), Value::ofString("")}}));

  std::vector<WalMutation> Projected;
  for (const auto &[Op, Full] : Muts)
    Projected.push_back({Op, Full.project(Project)});
  Log->logCommit(/*Partition=*/0, /*CommitSeq=*/11, /*Shard=*/3,
                 Projected.data(), Projected.size());
  Log->logCommit(/*Partition=*/1, /*CommitSeq=*/11, /*Shard=*/3,
                 Muts.size(), Project,
                 [&](size_t I, const Tuple *&Full) {
                   Full = &Muts[I].second;
                   return Muts[I].first;
                 });
  Log->flush();

  auto slurp = [](const std::string &Path) {
    std::vector<uint8_t> Bytes;
    int Fd = ::open(Path.c_str(), O_RDONLY);
    EXPECT_GE(Fd, 0) << Path;
    if (Fd < 0)
      return Bytes;
    uint8_t Buf[4096];
    ssize_t N;
    while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
      Bytes.insert(Bytes.end(), Buf, Buf + N);
    ::close(Fd);
    return Bytes;
  };
  std::vector<uint8_t> A = slurp(walPartitionPath(Dir.Path, 0));
  std::vector<uint8_t> B = slurp(walPartitionPath(Dir.Path, 1));
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, B);

  // And the bytes decode back to the projected mutations.
  WalRecord Out;
  ASSERT_GT(walDecodeRecord(B.data(), B.size(), Out), 0u);
  ASSERT_EQ(Out.Muts.size(), Muts.size());
  for (size_t I = 0; I < Out.Muts.size(); ++I)
    EXPECT_TRUE(Out.Muts[I].Full == Projected[I].Full) << "mutation " << I;
}

TEST(WalFormat, EveryTruncationOfARecordIsTorn) {
  WalMutation M{WalOp::Insert,
                Tuple::of({{ColumnId(3), Value::ofInt(123456789)},
                           {ColumnId(4), Value::ofString("payload")}})};
  std::vector<uint8_t> Buf;
  walEncodeRecord(Buf, 11, 0, &M, 1);

  WalRecord Out;
  for (size_t Len = 0; Len < Buf.size(); ++Len)
    EXPECT_EQ(walDecodeRecord(Buf.data(), Len, Out), 0u) << "len " << Len;
  EXPECT_EQ(walDecodeRecord(Buf.data(), Buf.size(), Out), Buf.size());

  // A flipped payload byte fails the CRC even at full length.
  for (size_t I = 8; I < Buf.size(); I += 3) {
    std::vector<uint8_t> Bad = Buf;
    Bad[I] ^= 0x40;
    EXPECT_EQ(walDecodeRecord(Bad.data(), Bad.size(), Out), 0u)
        << "flipped byte " << I;
  }
}

TEST(WalFormat, PartitionScanStopsCleanlyAtTornTail) {
  TempDir D;
  std::vector<uint8_t> Buf;
  WalMutation M{WalOp::Insert, Tuple::of({{ColumnId(1), Value::ofInt(1)}})};
  walEncodeRecord(Buf, 1, 0, &M, 1);
  size_t FirstEnd = Buf.size();
  M.Full = Tuple::of({{ColumnId(1), Value::ofInt(2)}});
  walEncodeRecord(Buf, 2, 0, &M, 1);

  std::string Path = walPartitionPath(D.Path, 0);
  for (size_t Len : {FirstEnd, FirstEnd + 5, Buf.size()}) {
    int Fd = ::open(Path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    ASSERT_GE(Fd, 0);
    ASSERT_EQ(::write(Fd, Buf.data(), Len), static_cast<ssize_t>(Len));
    ::close(Fd);
    WalReadResult R = readWalPartition(Path);
    ASSERT_TRUE(R.ok()) << R.Error;
    if (Len == FirstEnd) {
      EXPECT_EQ(R.Records.size(), 1u);
      EXPECT_FALSE(R.TornTail);
    } else if (Len == Buf.size()) {
      EXPECT_EQ(R.Records.size(), 2u);
      EXPECT_FALSE(R.TornTail);
    } else {
      EXPECT_EQ(R.Records.size(), 1u);
      EXPECT_TRUE(R.TornTail);
      EXPECT_EQ(R.ValidBytes, FirstEnd);
    }
  }
  // A partition that never existed reads as empty, not as an error.
  WalReadResult Missing = readWalPartition(walPartitionPath(D.Path, 9));
  EXPECT_TRUE(Missing.ok());
  EXPECT_TRUE(Missing.Records.empty());
}

//===----------------------------------------------------------------------===//
// Group commit
//===----------------------------------------------------------------------===//

TEST(Wal, ConcurrentAppendsKeepPerThreadOrder) {
  TempDir D;
  std::string Err;
  auto Log = WriteAheadLog::open(walOpts(D.Path), &Err);
  ASSERT_TRUE(Log) << Err;

  constexpr unsigned Threads = 4, PerThread = 200;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (unsigned I = 0; I < PerThread; ++I) {
        WalMutation M{WalOp::Insert,
                      Tuple::of({{ColumnId(1), Value::ofInt(I)}})};
        // Shard doubles as the writer id so file order is attributable.
        Log->logCommit(0, nextCommitSeq(), /*Shard=*/T, &M, 1);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  Log->flush();

  EXPECT_EQ(Log->recordsAppended(), uint64_t(Threads) * PerThread);
  WalReadResult R = readWalPartition(walPartitionPath(D.Path, 0));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.TornTail);
  ASSERT_EQ(R.Records.size(), size_t(Threads) * PerThread);
  EXPECT_EQ(Log->bytesAppended(), R.ValidBytes);
  EXPECT_GE(Log->syncRounds(), 1u);

  // Each writer appended its records in sequence order under the
  // partition mutex, so its subsequence of the file is seq-ascending.
  std::vector<uint64_t> LastSeq(Threads, 0);
  std::vector<unsigned> Count(Threads, 0);
  for (const WalRecord &Rec : R.Records) {
    ASSERT_LT(Rec.Shard, Threads);
    EXPECT_GT(Rec.CommitSeq, LastSeq[Rec.Shard]);
    LastSeq[Rec.Shard] = Rec.CommitSeq;
    ++Count[Rec.Shard];
  }
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_EQ(Count[T], PerThread) << "writer " << T;
}

TEST(Wal, SyncModeIsDurableOnReturn) {
  TempDir D;
  std::string Err;
  auto Log = WriteAheadLog::open(walOpts(D.Path, 1, FsyncMode::Sync), &Err);
  ASSERT_TRUE(Log) << Err;

  // A lone writer must be flushed within roughly one park window, not
  // wait for company; and its record must be on disk when the call
  // returns — no flush() needed.
  auto T0 = std::chrono::steady_clock::now();
  WalMutation M{WalOp::Insert, Tuple::of({{ColumnId(1), Value::ofInt(77)}})};
  Log->logCommit(0, nextCommitSeq(), 0, &M, 1);
  auto Waited = std::chrono::steady_clock::now() - T0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(Waited)
                .count(),
            2000);

  WalReadResult R = readWalPartition(walPartitionPath(D.Path, 0));
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Records.size(), 1u);
  EXPECT_EQ(R.Records[0].Muts.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Recovery
//===----------------------------------------------------------------------===//

TEST(WalRecovery, BareMutationsReplayExactly) {
  TempDir D;
  std::string Err;
  auto Log = WriteAheadLog::open(walOpts(D.Path), &Err);
  ASSERT_TRUE(Log) << Err;

  ConcurrentRelation R(stickCoarse());
  const RelationSpec &Spec = R.spec();
  R.attachWal(*Log);
  for (int64_t S = 0; S < 20; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, S + 1), weight(Spec, 10 * S)));
  for (int64_t S = 0; S < 20; S += 3)
    EXPECT_EQ(R.remove(key(Spec, S, S + 1)), 1u);
  // Losing mutations (a duplicate insert, a miss remove) must not log.
  EXPECT_FALSE(R.insert(key(Spec, 1, 2), weight(Spec, 999)));
  EXPECT_EQ(R.remove(key(Spec, 500, 500)), 0u);
  R.detachWal();
  Log->flush();

  ConcurrentRelation Fresh(splitStriped()); // recovery is shape-agnostic
  RecoveryResult Res = recoverRelation(Fresh, D.Path);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.CheckpointSeq, 0u); // no checkpoint: full-log replay
  EXPECT_EQ(Res.RecordsReplayed, 20u + 7u);
  EXPECT_EQ(Res.Anomalies, 0u);
  EXPECT_FALSE(Res.TornTail);
  EXPECT_EQ(sorted(Fresh.scanAll()), sorted(R.scanAll()));
  ValidationResult V = Fresh.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
}

TEST(WalRecovery, StressedShardedFleetRecoversFromCheckpointPlusLog) {
  // The acceptance-criteria shape: a 4-thread mixed transactional
  // workload over a sharded fleet with a rolling checkpoint taken
  // mid-run under live traffic; a fresh fleet rebuilt from checkpoint +
  // WAL must match the committed-scope oracle exactly.
  TempDir D;
  std::string Err;
  ShardedRelation R(stickCoarse(), 4);
  auto Log = WriteAheadLog::open(walOpts(D.Path, R.numShards()), &Err);
  ASSERT_TRUE(Log) << Err;
  R.attachWal(*Log);

  stress::TxnStressOptions Opts;
  Opts.Threads = 4;
  Opts.MaxOpsPerTxn = 3;
  Opts.ForcedAbortPct = 15;
  Opts.OpsBeforeAction = 800;
  Opts.OpsAfterAction = 800;
  Opts.Seed = 20120614;
  stress::TxnStressReport Rep = stress::runTxnStressWithOracle(
      R, Opts, [&] {
        std::string CkptErr;
        ASSERT_TRUE(writeShardedCheckpoint(R, D.Path, &CkptErr)) << CkptErr;
      });
  ASSERT_TRUE(Rep.Errors.empty())
      << Rep.Errors.size() << " oracle mismatches; first: "
      << Rep.Errors.front() << "; " << Rep.hint();
  EXPECT_GT(Rep.Committed, 0u);
  R.detachWal();
  Log->flush();

  ShardedRelation Fresh(stickCoarse(), 4);
  RecoveryResult Res = recoverShardedRelation(Fresh, D.Path);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_GT(Res.CheckpointSeq, 0u) << "mid-run checkpoint not used";
  EXPECT_GT(Res.RecordsReplayed, 0u) << "post-checkpoint suffix not replayed";
  std::vector<std::string> Diffs =
      stress::diffFinalState(Fresh.scanAll(), Fresh.spec(), Rep.Expected);
  EXPECT_TRUE(Diffs.empty())
      << Diffs.size() << " diffs; first: " << Diffs.front() << "; "
      << Rep.hint();
  EXPECT_EQ(sorted(Fresh.scanAll()), R.scanAll()); // sharded scan sorts
  ValidationResult V = Fresh.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str() << "; " << Rep.hint();
}

TEST(WalRecovery, TornTailIsTruncatedAndStateMatchesAdjustedOracle) {
  // Deterministic crash tail: run the stress workload, then cut the
  // log mid-way through its final record — the torn record is the last
  // file-order mutation of every key it touches (the WAL ordering
  // contract), so the expected recovered state is the oracle with that
  // one scope's effects unwound.
  TempDir D;
  std::string Err;
  ConcurrentRelation R(splitStriped());
  auto Log = WriteAheadLog::open(walOpts(D.Path), &Err);
  ASSERT_TRUE(Log) << Err;
  R.attachWal(*Log);

  stress::TxnStressOptions Opts;
  Opts.Threads = 4;
  Opts.MaxOpsPerTxn = 3;
  Opts.ForcedAbortPct = 10;
  Opts.OpsBeforeAction = 400;
  Opts.OpsAfterAction = 400;
  Opts.Seed = 20120615;
  stress::TxnStressReport Rep = stress::runTxnStressWithOracle(R, Opts);
  ASSERT_TRUE(Rep.Errors.empty()) << Rep.hint();
  R.detachWal();
  Log->flush();
  Log.reset();

  std::string Path = walPartitionPath(D.Path, 0);
  WalReadResult Full = readWalPartition(Path);
  ASSERT_TRUE(Full.ok()) << Full.Error;
  ASSERT_FALSE(Full.TornTail);
  ASSERT_GE(Full.Records.size(), 2u);

  // Find a final record with at least one mutation (pure-query scopes
  // never log, so the tail record always has some; be defensive).
  const WalRecord &Torn = Full.Records.back();
  ASSERT_FALSE(Torn.Muts.empty());
  ASSERT_TRUE(truncateWalPartition(Path, Full.ValidBytes - 3));

  // Unwind the torn scope from the oracle, newest mutation first.
  auto Expected = Rep.Expected;
  const RelationSpec &Spec = R.spec();
  ColumnId Src = Spec.col("src"), Dst = Spec.col("dst"),
           Weight = Spec.col("weight");
  for (auto It = Torn.Muts.rbegin(); It != Torn.Muts.rend(); ++It) {
    auto K = std::make_pair(It->Full.get(Src).asInt(),
                            It->Full.get(Dst).asInt());
    if (It->Op == WalOp::Insert)
      Expected.erase(K);
    else
      Expected[K] = It->Full.get(Weight).asInt();
  }

  ConcurrentRelation Fresh(stickCoarse());
  RecoveryResult Res = recoverRelation(Fresh, D.Path);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_TRUE(Res.TornTail);
  EXPECT_GT(Res.TruncatedBytes, 0u);
  std::vector<std::string> Diffs =
      stress::diffFinalState(Fresh.scanAll(), Fresh.spec(), Expected);
  EXPECT_TRUE(Diffs.empty())
      << Diffs.size() << " diffs; first: " << Diffs.front() << "; "
      << Rep.hint();

  // The truncation healed the file: a reopened log appends cleanly
  // after the last whole record.
  auto Reopened = WriteAheadLog::open(walOpts(D.Path), &Err);
  ASSERT_TRUE(Reopened) << Err;
  WalMutation M{WalOp::Insert, edge(Spec, 9999, 9999, 1)};
  Reopened->logCommit(0, nextCommitSeq(), 0, &M, 1);
  Reopened->flush();
  WalReadResult After = readWalPartition(Path);
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_FALSE(After.TornTail);
  EXPECT_EQ(After.Records.size(), Full.Records.size());
}

TEST(WalRecovery, KillDuringCheckpointFallsBackToOlderCheckpoint) {
  TempDir D;
  std::string Err;
  ConcurrentRelation R(stickCoarse());
  const RelationSpec &Spec = R.spec();
  auto Log = WriteAheadLog::open(walOpts(D.Path), &Err);
  ASSERT_TRUE(Log) << Err;
  R.attachWal(*Log);

  for (int64_t S = 0; S < 30; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, 1), weight(Spec, S)));
  uint64_t W1 = 0;
  ASSERT_TRUE(writeCheckpoint(R, D.Path, 0, &W1, &Err)) << Err;
  ASSERT_GT(W1, 0u);

  for (int64_t S = 0; S < 30; S += 2)
    EXPECT_EQ(R.remove(key(Spec, S, 1)), 1u);
  uint64_t W2 = 0;
  ASSERT_TRUE(writeCheckpoint(R, D.Path, 0, &W2, &Err)) << Err;
  ASSERT_GT(W2, W1);
  for (int64_t S = 100; S < 110; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, 1), weight(Spec, S)));
  R.detachWal();
  Log->flush();
  Log.reset();

  // Simulate dying mid-checkpoint: cut the newer file short of its
  // completion trailer. (An interrupted writer normally leaves only a
  // .tmp file — also exercised below — but a torn final file is the
  // belt-and-suspenders case content validation exists for.)
  std::string Newer = checkpointPath(D.Path, 0, W2);
  struct stat St;
  ASSERT_EQ(::stat(Newer.c_str(), &St), 0);
  ASSERT_EQ(::truncate(Newer.c_str(), St.st_size - 5), 0);
  // And a stray temp file from another interrupted attempt.
  std::string Stray = checkpointPath(D.Path, 0, W2 + 50) + ".tmp";
  int Fd = ::open(Stray.c_str(), O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(Fd, 0);
  ::close(Fd);

  ConcurrentRelation Fresh(stickCoarse());
  RecoveryResult Res = recoverRelation(Fresh, D.Path);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.CheckpointSeq, W1) << "did not fall back past torn ckpt";
  EXPECT_GT(Res.RecordsReplayed, 0u);
  EXPECT_EQ(sorted(Fresh.scanAll()), sorted(R.scanAll()));
  ValidationResult V = Fresh.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
}

//===----------------------------------------------------------------------===//
// Follower relations
//===----------------------------------------------------------------------===//

TEST(Follower, TracksCommittedStateUnderStress) {
  // A live follower on a *different representation* than the primary,
  // tailing the log while 4 threads commit, force-abort, and die on
  // conflicts. Tiny segments make the flusher rotate every few rounds,
  // so the live cursor crosses segment boundaries under load. Once the
  // writers quiesce and the follower catches up, the replica must equal
  // both the primary and the committed-only oracle — an uncommitted or
  // out-of-order mutation would persist as a phantom/rewritten edge.
  TempDir D;
  std::string Err;
  ConcurrentRelation R(stickCoarse());
  WriteAheadLog::Options O = walOpts(D.Path);
  O.SegmentBytes = 4096;
  auto Log = WriteAheadLog::open(O, &Err);
  ASSERT_TRUE(Log) << Err;
  R.attachWal(*Log);
  FollowerRelation F(splitStriped(), *Log);

  stress::TxnStressOptions Opts;
  Opts.Threads = 4;
  Opts.MaxOpsPerTxn = 3;
  Opts.ForcedAbortPct = 15;
  Opts.OpsBeforeAction = 600;
  Opts.OpsAfterAction = 600;
  Opts.Seed = 20120616;
  uint64_t MidSeq = 0;
  stress::TxnStressReport Rep = stress::runTxnStressWithOracle(
      R, Opts, [&] { MidSeq = F.appliedSeq(); });
  ASSERT_TRUE(Rep.Errors.empty()) << Rep.hint();

  Log->flush();
  ASSERT_TRUE(F.waitCaughtUp()) << "gaps " << F.gaps();
  F.stop();
  EXPECT_GT(Log->segmentRotations(), 0u) << "the cursor never crossed";
  EXPECT_GE(F.appliedSeq(), MidSeq) << "applied sequence regressed";
  EXPECT_EQ(F.appliedRecords(), Log->recordsAppended());
  EXPECT_EQ(F.gaps(), 0u);
  EXPECT_EQ(F.anomalies(), 0u);

  std::vector<std::string> Diffs = stress::diffFinalState(
      F.relation().scanAll(), F.relation().spec(), Rep.Expected);
  EXPECT_TRUE(Diffs.empty())
      << Diffs.size() << " follower diffs; first: " << Diffs.front() << "; "
      << Rep.hint();
  EXPECT_EQ(sorted(F.relation().scanAll()), sorted(R.scanAll()));
  ValidationResult V = F.relation().verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str() << "; " << Rep.hint();
  R.detachWal();
}

TEST(Follower, ManualModePublishesWatermarkAfterMutations) {
  TempDir D;
  std::string Err;
  auto Log = WriteAheadLog::open(walOpts(D.Path), &Err);
  ASSERT_TRUE(Log) << Err;
  FollowerRelation F(stickCoarse(), D.Path, 1);
  const RelationSpec &Spec = F.relation().spec();
  WalMutation Ins[2] = {{WalOp::Insert, edge(Spec, 1, 2, 30)},
                        {WalOp::Insert, edge(Spec, 2, 3, 40)}};
  Log->logCommit(0, /*CommitSeq=*/41, 0, Ins, 2);
  Log->flush();
  EXPECT_EQ(F.pollOnce(), 1u);
  EXPECT_EQ(F.appliedSeq(), 41u);
  EXPECT_EQ(F.relation().size(), 2u);
  EXPECT_TRUE(F.waitCaughtUp(/*TimeoutMs=*/10));
  EXPECT_EQ(F.pollOnce(), 0u); // the cursor advanced: no re-apply

  WalMutation Rm{WalOp::Remove, edge(Spec, 1, 2, 30)};
  Log->logCommit(0, /*CommitSeq=*/45, 0, &Rm, 1);
  Log->flush();
  EXPECT_EQ(F.pollOnce(), 1u);
  EXPECT_EQ(F.appliedSeq(), 45u);
  EXPECT_EQ(F.query(key(Spec, 1, 2), Spec.allColumns()).size(), 0u);
  EXPECT_EQ(F.query(key(Spec, 2, 3), Spec.allColumns()).size(), 1u);
  EXPECT_EQ(F.anomalies(), 0u);
  EXPECT_EQ(F.appliedRecords(), 2u);
}

TEST(Follower, CaughtUpWaitCoversOutOfOrderCommitSequences) {
  // A bare mutation stamps its commit sequence before it appends, so
  // two non-conflicting commits stamped 5 and 6 can reach one
  // partition in the order 6, 5. A follower that has applied 6 alone
  // has an applied sequence ≥ 5 while 5 is still absent: a wait on
  // sequence numbers would return early there. waitCaughtUp must not.
  TempDir D;
  std::string Err;
  auto Log = WriteAheadLog::open(walOpts(D.Path), &Err);
  ASSERT_TRUE(Log) << Err;
  FollowerRelation F(stickCoarse(), *Log); // live: the applier thread
  const RelationSpec &Spec = F.relation().spec();
  WalMutation Six{WalOp::Insert, edge(Spec, 6, 6, 60)};
  WalMutation Five{WalOp::Insert, edge(Spec, 5, 5, 50)};

  Log->logCommit(0, /*CommitSeq=*/6, 0, &Six, 1);
  Log->flush();
  ASSERT_TRUE(F.waitCaughtUp());
  EXPECT_EQ(F.appliedSeq(), 6u);
  EXPECT_EQ(F.query(key(Spec, 5, 5), Spec.allColumns()).size(), 0u)
      << "seq 5 is not in the log yet";

  Log->logCommit(0, /*CommitSeq=*/5, 0, &Five, 1);
  Log->flush();
  ASSERT_TRUE(F.waitCaughtUp());
  EXPECT_EQ(F.query(key(Spec, 5, 5), Spec.allColumns()).size(), 1u);
  EXPECT_EQ(F.query(key(Spec, 6, 6), Spec.allColumns()).size(), 1u);
  EXPECT_EQ(F.appliedSeq(), 6u); // a lag indicator, not a watermark
  EXPECT_EQ(F.appliedRecords(), 2u);
}

TEST(Follower, PrunedSegmentIsReportedAsAGap) {
  // A checkpoint prunes sealed segments a lagging follower never read:
  // the follower has lost records, and says so. A follower that keeps
  // up reads every segment before it is pruned and reports nothing.
  TempDir D;
  std::string Err;
  WriteAheadLog::Options O = walOpts(D.Path);
  O.SegmentBytes = 128;
  auto Log = WriteAheadLog::open(O, &Err);
  ASSERT_TRUE(Log) << Err;
  ConcurrentRelation R(stickCoarse());
  const RelationSpec &Spec = R.spec();
  R.attachWal(*Log);
  FollowerRelation Lagging(stickCoarse(), D.Path, 1);
  FollowerRelation KeepsUp(stickCoarse(), D.Path, 1);

  for (int64_t S = 0; S < 40; ++S) {
    ASSERT_TRUE(R.insert(key(Spec, S, S + 1), weight(Spec, S)));
    if (S % 4 == 3) {
      Log->flush();
      KeepsUp.pollOnce();
      if (S == 3)
        Lagging.pollOnce(); // then it stops polling
    }
  }
  ASSERT_GT(listWalSegments(D.Path, 0).size(), 2u);
  uint64_t Watermark = 0;
  ASSERT_TRUE(writeCheckpoint(R, D.Path, /*Shard=*/0, &Watermark, &Err))
      << Err;
  ASSERT_EQ(listWalSegments(D.Path, 0).size(), 1u) << "nothing was pruned";
  for (int64_t S = 100; S < 104; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, S + 1), weight(Spec, S)));
  R.detachWal();
  Log->flush();

  EXPECT_TRUE(KeepsUp.waitCaughtUp(/*TimeoutMs=*/1000));
  EXPECT_EQ(KeepsUp.gaps(), 0u);
  EXPECT_EQ(sorted(KeepsUp.relation().scanAll()), sorted(R.scanAll()));

  EXPECT_FALSE(Lagging.waitCaughtUp(/*TimeoutMs=*/1000));
  EXPECT_EQ(Lagging.gaps(), 1u);
  EXPECT_LT(Lagging.relation().size(), R.size());
}

TEST(Follower, FileTailerSeesExactlyTheAppendedRecords) {
  TempDir D;
  std::string Err;
  auto Log = WriteAheadLog::open(walOpts(D.Path, /*Partitions=*/2), &Err);
  ASSERT_TRUE(Log) << Err;

  WalTailer Tailer(D.Path, 2);
  std::vector<WalRecord> Seen;
  EXPECT_EQ(Tailer.poll(Seen), 0u);

  for (int I = 0; I < 6; ++I) {
    WalMutation M{WalOp::Insert,
                  Tuple::of({{ColumnId(1), Value::ofInt(I)}})};
    Log->logCommit(/*Partition=*/I % 2, nextCommitSeq(), 0, &M, 1);
  }
  Log->flush();
  EXPECT_EQ(Tailer.poll(Seen), 6u);
  EXPECT_EQ(Tailer.poll(Seen), 0u); // no re-reads: the cursor advanced
  for (int I = 0; I < 3; ++I) {
    WalMutation M{WalOp::Remove,
                  Tuple::of({{ColumnId(1), Value::ofInt(I)}})};
    Log->logCommit(0, nextCommitSeq(), 0, &M, 1);
  }
  Log->flush();
  EXPECT_EQ(Tailer.poll(Seen), 3u);
  EXPECT_EQ(Seen.size(), 9u);
}

//===----------------------------------------------------------------------===//
// Segmentation (ROADMAP 2a: bounded log growth)
//===----------------------------------------------------------------------===//

TEST(WalSegments, RotationSplitsTheLogAndRecoveryMergesEverySegment) {
  TempDir D;
  std::string Err;
  WriteAheadLog::Options O = walOpts(D.Path);
  O.SegmentBytes = 256; // a few records per segment
  auto Log = WriteAheadLog::open(O, &Err);
  ASSERT_TRUE(Log) << Err;

  ConcurrentRelation R(stickCoarse());
  const RelationSpec &Spec = R.spec();
  R.attachWal(*Log);
  // Flush between small batches: each flush round lands whole in the
  // active segment and rotates once it crosses the threshold.
  for (int64_t S = 0; S < 60; ++S) {
    ASSERT_TRUE(R.insert(key(Spec, S, S + 1), weight(Spec, 10 * S)));
    if (S % 4 == 3)
      Log->flush();
  }
  for (int64_t S = 0; S < 60; S += 5)
    EXPECT_EQ(R.remove(key(Spec, S, S + 1)), 1u);
  R.detachWal();
  Log->flush();
  EXPECT_GT(listWalSegments(D.Path, 0).size(), 2u)
      << "SegmentBytes=256 over ~72 records must rotate repeatedly";

  // Recovery stitches the segments back together in index order.
  ConcurrentRelation Fresh(splitStriped());
  RecoveryResult Res = recoverRelation(Fresh, D.Path);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.RecordsReplayed, 60u + 12u);
  EXPECT_EQ(Res.Anomalies, 0u);
  EXPECT_FALSE(Res.TornTail);
  EXPECT_EQ(sorted(Fresh.scanAll()), sorted(R.scanAll()));
}

TEST(WalSegments, CheckpointPrunesSegmentsBelowTheWatermark) {
  TempDir D;
  std::string Err;
  WriteAheadLog::Options O = walOpts(D.Path);
  O.SegmentBytes = 256;
  auto Log = WriteAheadLog::open(O, &Err);
  ASSERT_TRUE(Log) << Err;

  ConcurrentRelation R(stickCoarse());
  const RelationSpec &Spec = R.spec();
  R.attachWal(*Log);
  for (int64_t S = 0; S < 60; ++S) {
    ASSERT_TRUE(R.insert(key(Spec, S, S + 1), weight(Spec, 10 * S)));
    if (S % 4 == 3)
      Log->flush();
  }
  Log->flush();
  size_t Before = listWalSegments(D.Path, 0).size();
  ASSERT_GT(Before, 2u);

  // The checkpoint covers every committed record, so every *sealed*
  // segment is prunable; only the active segment must survive.
  uint64_t Watermark = 0;
  ASSERT_TRUE(writeCheckpoint(R, D.Path, /*Shard=*/0, &Watermark, &Err))
      << Err;
  EXPECT_GT(Watermark, 0u);
  EXPECT_EQ(listWalSegments(D.Path, 0).size(), 1u);

  // More commits land in (and beyond) the surviving active segment;
  // recovery = checkpoint + surviving log, bit-for-bit the same state.
  for (int64_t S = 100; S < 110; ++S) {
    ASSERT_TRUE(R.insert(key(Spec, S, S + 1), weight(Spec, S)));
    Log->flush();
  }
  R.detachWal();
  Log->flush();
  ConcurrentRelation Fresh(splitStriped());
  RecoveryResult Res = recoverRelation(Fresh, D.Path);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.CheckpointSeq, Watermark);
  EXPECT_EQ(Res.RecordsReplayed, 10u);
  EXPECT_EQ(sorted(Fresh.scanAll()), sorted(R.scanAll()));
}

TEST(WalSegments, ReopenedLogPrunesSegmentsSealedByAPastLife) {
  // Segments sealed before a restart have no in-memory max-commit-seq;
  // pruneSegments recovers it by scanning the file once.
  TempDir D;
  std::string Err;
  WriteAheadLog::Options O = walOpts(D.Path);
  O.SegmentBytes = 256;
  ConcurrentRelation R(stickCoarse());
  const RelationSpec &Spec = R.spec();
  {
    auto Log = WriteAheadLog::open(O, &Err);
    ASSERT_TRUE(Log) << Err;
    R.attachWal(*Log);
    for (int64_t S = 0; S < 60; ++S) {
      ASSERT_TRUE(R.insert(key(Spec, S, S + 1), weight(Spec, 10 * S)));
      if (S % 4 == 3)
        Log->flush();
    }
    R.detachWal();
  } // clean shutdown: dtor flushes
  ASSERT_GT(listWalSegments(D.Path, 0).size(), 2u);

  auto Reopened = WriteAheadLog::open(O, &Err);
  ASSERT_TRUE(Reopened) << Err;
  R.attachWal(*Reopened);
  uint64_t Watermark = 0;
  ASSERT_TRUE(writeCheckpoint(R, D.Path, /*Shard=*/0, &Watermark, &Err))
      << Err;
  R.detachWal();
  EXPECT_EQ(listWalSegments(D.Path, 0).size(), 1u);

  ConcurrentRelation Fresh(splitStriped());
  RecoveryResult Res = recoverRelation(Fresh, D.Path);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.RecordsReplayed, 0u); // the checkpoint covers it all
  EXPECT_EQ(sorted(Fresh.scanAll()), sorted(R.scanAll()));
}

TEST(WalSegments, TailerFollowsTheCursorAcrossRotations) {
  TempDir D;
  std::string Err;
  WriteAheadLog::Options O = walOpts(D.Path);
  O.SegmentBytes = 128;
  auto Log = WriteAheadLog::open(O, &Err);
  ASSERT_TRUE(Log) << Err;

  WalTailer Tailer(D.Path, 1);
  std::vector<WalRecord> Seen;
  for (int I = 0; I < 40; ++I) {
    WalMutation M{WalOp::Insert,
                  Tuple::of({{ColumnId(1), Value::ofInt(I)}})};
    Log->logCommit(0, nextCommitSeq(), 0, &M, 1);
    if (I % 8 == 7) {
      Log->flush();
      Tailer.poll(Seen); // drain mid-stream so rotation happens between polls
    }
  }
  Log->flush();
  Tailer.poll(Seen);
  ASSERT_GT(listWalSegments(D.Path, 0).size(), 1u);
  ASSERT_EQ(Seen.size(), 40u);
  // Exactly the appended stream, in partition file order.
  for (int I = 0; I < 40; ++I)
    EXPECT_EQ(Seen[I].Muts.at(0).Full.get(ColumnId(1)).asInt(), I);
  EXPECT_EQ(Tailer.poll(Seen), 0u); // cursor parked at the active tail
}

//===----------------------------------------------------------------------===//
// Wait-die
//===----------------------------------------------------------------------===//

TEST(WaitDie, OwnerStampsPublishRetractAndReportOnce) {
  // The deterministic mechanics under the arbitration: an exclusive
  // acquisition by a stamped scope publishes its birth stamp to the
  // lock's owner table; a contender's failed try captures it; the
  // capture is consumed by the read (one report per failed try, so a
  // stale stamp can never kill a later, unrelated retry); release
  // retracts the stamp; bare operations (stamp 0) never touch it.
  PhysicalLock L;
  LockOrderKey K; // default order position is fine for a single lock

  LockSet Old;
  Old.setBirthStamp(10);
  Old.acquire(L, K, LockMode::Exclusive);
  EXPECT_EQ(L.ownerStamp(), 10u);

  LockSet Young;
  Young.setBirthStamp(20);
  EXPECT_EQ(Young.tryAcquire(L, K, LockMode::Exclusive),
            AcquireResult::WouldBlock);
  EXPECT_EQ(Young.takeLastConflictStamp(), 10u) << "holder age not seen";
  EXPECT_EQ(Young.takeLastConflictStamp(), 0u) << "stamp must consume";

  Old.releaseAll();
  EXPECT_EQ(L.ownerStamp(), 0u) << "release must retract the stamp";
  EXPECT_EQ(Young.tryAcquire(L, K, LockMode::Exclusive), AcquireResult::Ok);
  EXPECT_EQ(L.ownerStamp(), 20u);
  Young.releaseAll();
  EXPECT_EQ(L.ownerStamp(), 0u);

  LockSet Bare; // birth stamp 0: the bare-operation fast path
  Bare.acquire(L, K, LockMode::Exclusive);
  EXPECT_EQ(L.ownerStamp(), 0u) << "bare ops must not stamp owner tables";
  Bare.releaseAll();
}

TEST(WaitDie, OlderRequesterWaitsOutAYoungerHolder) {
  ConcurrentRelation R(stickCoarse());
  const RelationSpec &Spec = R.spec();
  ColumnSet Key = ColumnSet::of(Spec.col("src")) | ColumnSet::of(Spec.col("dst"));
  auto Ins = R.prepareInsert(Key);

  std::atomic<bool> Held{false}, Release{false};
  std::thread Young([&] {
    Transaction T(R, /*Patience=*/0, /*Birth=*/1000);
    ASSERT_TRUE(T.insert(Ins, {Value::ofInt(3), Value::ofInt(4),
                               Value::ofInt(1)}));
    Held.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
    ASSERT_TRUE(T.commit());
  });
  while (!Held.load(std::memory_order_acquire))
    std::this_thread::yield();

  // The older scope outranks the holder: under wait-die it waits, so
  // with the holder committing promptly it must win — possibly over a
  // few attempts if the bounded seniority budget expires first.
  std::thread Releaser([&] { Release.store(true, std::memory_order_release); });
  bool Won = false;
  for (unsigned Attempt = 0; Attempt < 50 && !Won; ++Attempt) {
    Transaction Old(R, /*Patience=*/Attempt, /*Birth=*/7);
    if (Old.insert(Ins, {Value::ofInt(3), Value::ofInt(4),
                         Value::ofInt(2)}))
      Won = Old.commit();
  }
  Releaser.join();
  Young.join();
  EXPECT_TRUE(Won);
  // The young scope's insert won the key; the old one lost the
  // put-if-absent race after waiting — exactly one row, weight 1.
  std::vector<Tuple> Rows = R.query(key(Spec, 3, 4), Spec.allColumns());
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].get(Spec.col("weight")).asInt(), 1);
}

TEST(WaitDie, StressedScopesStayLive) {
  // The discipline must not dent liveness or exactness: the standard
  // oracle run with wait-die active (runTransaction threads birth
  // stamps through retries) still commits and matches.
  ConcurrentRelation R(splitStriped());
  stress::TxnStressOptions Opts;
  Opts.Threads = 4;
  Opts.MaxOpsPerTxn = 3;
  Opts.ForcedAbortPct = 10;
  Opts.SrcPerThread = 4; // contended: plenty of conflicts to arbitrate
  Opts.OpsBeforeAction = 500;
  Opts.OpsAfterAction = 500;
  Opts.Seed = 20120618;
  stress::TxnStressReport Rep = stress::runTxnStressWithOracle(R, Opts);
  ASSERT_TRUE(Rep.Errors.empty()) << Rep.hint();
  EXPECT_GT(Rep.Committed, 0u);
  std::vector<std::string> Diffs =
      stress::diffFinalState(R.scanAll(), R.spec(), Rep.Expected);
  EXPECT_TRUE(Diffs.empty())
      << Diffs.size() << " diffs; first: " << Diffs.front() << "; "
      << Rep.hint();
}
