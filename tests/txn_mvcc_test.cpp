//===- tests/txn_mvcc_test.cpp - MVCC snapshot-read battery ------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// The snapshot-isolation battery for transactional reads (src/txn +
/// src/txn/MvccStore): the classic anomalies one by one — non-repeatable
/// read, read skew across shards in one scope, lost update (permitted
/// under plain query(), prevented by queryForUpdate()), and phantom
/// behavior (stable within a snapshot, visible to for-update reads) —
/// then the secondary chain directories that give non-key snapshot
/// reads an access path (directory-served visit counts, read skew and
/// phantom stability through a directory, survival across migrateTo) —
/// plus the mechanical guarantees underneath: read-only scopes acquire
/// zero physical locks (the exact lock_acquisitions counter), never die
/// and never retry, commit with sequence 0 (no clock movement), and version
/// reclamation is bounded by the minimum active snapshot. Then the
/// snapshot-acquisition regression (a scope sees its own thread's
/// earlier commit while another commit is in flight) and the version
/// store's growth: bucket-list and links-scanned bounds after 200k
/// inserts into an unsized store, and readers that never miss a chain
/// while writers drive its tables through concurrent doublings. Ends
/// with the fig5 txn-panel regression (reader scopes track bare
/// prepared reads) and the snapshot-consistency stress oracle, with and
/// without a pre-size hint, which the nightly TSan/ASan stress lane
/// runs at elevated iteration counts.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "autotune/Autotuner.h"
#include "sync/CommitClock.h"
#include "txn/MvccStore.h"
#include "txn/Transaction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <thread>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CRS_MVCC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CRS_MVCC_SANITIZED 1
#endif
#endif

using namespace crs;

namespace {

Tuple key(const RelationSpec &Spec, int64_t S, int64_t D) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)}});
}

Tuple weight(const RelationSpec &Spec, int64_t W) {
  return Tuple::of({{Spec.col("weight"), Value::ofInt(W)}});
}

RepresentationConfig splitStriped(uint32_t Stripes = 64) {
  return makeGraphRepresentation({GraphShape::Split,
                                  PlacementSchemeKind::Striped, Stripes,
                                  ContainerKind::ConcurrentHashMap,
                                  ContainerKind::TreeMap});
}

struct Handles {
  PreparedQuery Succ;
  PreparedQuery Exact;
  PreparedInsert Ins;
  PreparedRemove Rem;
  explicit Handles(ConcurrentRelation &R) {
    const RelationSpec &Spec = R.spec();
    Succ = R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
    Exact = R.prepareQuery(Spec.cols({"src", "dst"}), Spec.cols({"weight"}));
    Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
    Rem = R.prepareRemove(Spec.cols({"src", "dst"}));
  }
};

/// Commits remove(S,D) + insert(S,D,W) as one scope — the "update" all
/// the anomaly tests race against.
void commitRewrite(ConcurrentRelation &R, Handles &H, int64_t S, int64_t D,
                   int64_t W) {
  ASSERT_TRUE(runTransaction(R, [&](Transaction &T) {
    if (!T.remove(H.Rem, {Value::ofInt(S), Value::ofInt(D)}))
      return true;
    if (!T.insert(H.Ins,
                  {Value::ofInt(S), Value::ofInt(D), Value::ofInt(W)}))
      return true;
    return true;
  }));
}

/// The weight a read-only scope sees at (S,D), or -1 if absent.
int64_t readWeight(Transaction &T, Handles &H, const RelationSpec &Spec,
                   int64_t S, int64_t D) {
  int64_t W = -1;
  EXPECT_TRUE(T.query(H.Exact, {Value::ofInt(S), Value::ofInt(D)},
                      [&](const Tuple &Tp) {
                        W = Tp.get(Spec.col("weight")).asInt();
                      }));
  return W;
}

/// The relation's relation.lock_acquisitions: exact, every lock counted.
uint64_t lockAcquisitions(const ConcurrentRelation &R) {
  return R.operationCounts().LockAcquisitions;
}

} // namespace

//===----------------------------------------------------------------------===//
// Anomaly battery
//===----------------------------------------------------------------------===//

TEST(Mvcc, NonRepeatableReadPrevented) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  ASSERT_TRUE(R.insert(key(Spec, 1, 2), weight(Spec, 10)));

  Transaction T(R);
  EXPECT_GT(T.snapshotSeq(), 0u);
  EXPECT_EQ(readWeight(T, H, Spec, 1, 2), 10);

  // A rival commits an update between the two reads.
  std::thread Writer([&] { commitRewrite(R, H, 1, 2, 99); });
  Writer.join();
  EXPECT_EQ(R.query(key(Spec, 1, 2), Spec.cols({"weight"})).size(), 1u);

  // The re-read repeats exactly: same snapshot, same value.
  EXPECT_EQ(readWeight(T, H, Spec, 1, 2), 10);
  EXPECT_TRUE(T.commit());
  // Read-only commits stamp no sequence and move no clock.
  EXPECT_EQ(T.commitSeq(), 0u);

  // A scope opened after the rival's commit sees the new version.
  Transaction T2(R);
  EXPECT_EQ(readWeight(T2, H, Spec, 1, 2), 99);
  EXPECT_TRUE(T2.commit());
}

TEST(Mvcc, ReadSkewPreventedAcrossShards) {
  ShardedRelation SR(splitStriped(), 2);
  const RelationSpec &Spec = SR.spec();
  constexpr int64_t NumAccounts = 8, Initial = 100;
  for (int64_t A = 0; A < NumAccounts; ++A)
    SR.insert(key(Spec, A, 0), weight(Spec, Initial));
  ShardedQuery Balance =
      SR.prepareQuery(Spec.cols({"src", "dst"}), Spec.cols({"weight"}));
  ShardedInsert Put = SR.prepareInsert(Spec.cols({"src", "dst"}));
  ShardedRemove Drop = SR.prepareRemove(Spec.cols({"src", "dst"}));
  ColumnId WeightCol = Spec.col("weight");

  // The reader opens first and reads account 0 at its snapshot.
  ShardedTransaction Reader(SR);
  int64_t Bal0 = -1;
  ASSERT_TRUE(Reader.query(Balance, {Value::ofInt(0), Value::ofInt(0)},
                           [&](const Tuple &T) {
                             Bal0 = T.get(WeightCol).asInt();
                           }));
  EXPECT_EQ(Bal0, Initial);

  // A rival transfers 0 → 5 (accounts hash to different shards often;
  // either way the transfer is one atomic cross-account commit).
  std::thread Writer([&] {
    EXPECT_TRUE(runTransaction(SR, [&](ShardedTransaction &T) {
      int64_t A = -1, B = -1;
      if (!T.queryForUpdate(Balance, {Value::ofInt(0), Value::ofInt(0)},
                            [&](const Tuple &Tp) {
                              A = Tp.get(WeightCol).asInt();
                            }) ||
          !T.queryForUpdate(Balance, {Value::ofInt(5), Value::ofInt(0)},
                            [&](const Tuple &Tp) {
                              B = Tp.get(WeightCol).asInt();
                            }))
        return true;
      if (!T.remove(Drop, {Value::ofInt(0), Value::ofInt(0)}) ||
          !T.insert(Put, {Value::ofInt(0), Value::ofInt(0),
                          Value::ofInt(A - 40)}) ||
          !T.remove(Drop, {Value::ofInt(5), Value::ofInt(0)}) ||
          !T.insert(Put, {Value::ofInt(5), Value::ofInt(0),
                          Value::ofInt(B + 40)}))
        return true;
      return true;
    }));
  });
  Writer.join();

  // Read skew would show the old 0 with the new 5 (sum 240). The
  // snapshot shows the pre-transfer 5 instead: the reader's whole sum
  // is conserved even though the reads straddle shards and the commit.
  int64_t Sum = 0;
  for (int64_t A = 0; A < NumAccounts; ++A)
    ASSERT_TRUE(Reader.query(Balance, {Value::ofInt(A), Value::ofInt(0)},
                             [&](const Tuple &T) {
                               Sum += T.get(WeightCol).asInt();
                             }));
  EXPECT_EQ(Sum, NumAccounts * Initial);
  EXPECT_TRUE(Reader.commit());
  EXPECT_EQ(Reader.commitSeq(), 0u);

  // A fresh scope sees the transferred state, still conserved.
  ShardedTransaction After(SR);
  int64_t NewSum = 0, New0 = -1;
  for (int64_t A = 0; A < NumAccounts; ++A)
    ASSERT_TRUE(After.query(Balance, {Value::ofInt(A), Value::ofInt(0)},
                            [&](const Tuple &T) {
                              int64_t W = T.get(WeightCol).asInt();
                              NewSum += W;
                              if (A == 0)
                                New0 = W;
                            }));
  EXPECT_EQ(NewSum, NumAccounts * Initial);
  EXPECT_EQ(New0, Initial - 40);
  EXPECT_TRUE(After.commit());
}

TEST(Mvcc, ShardedSnapshotReadAttributesAccessPathPerShard) {
  // The sharded scope's query() walks each touched shard's version
  // store independently, so its access-path report is per shard: one
  // (shard, stats) entry per store the read actually visited.
  constexpr unsigned NumShards = 3;
  constexpr int64_t NumSrcs = 30;
  ShardedRelation SR(splitStriped(), NumShards);
  const RelationSpec &Spec = SR.spec();
  for (int64_t S = 0; S < NumSrcs; ++S)
    for (int64_t D = 0; D < 2; ++D)
      ASSERT_TRUE(SR.insert(key(Spec, S, D), weight(Spec, S)));
  ShardedQuery Succ =
      SR.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  ShardedQuery Pred =
      SR.prepareQuery(Spec.cols({"dst"}), Spec.cols({"src", "weight"}));

  // A routed read (dom covers the routing key) touches exactly one
  // shard and reports exactly one entry — the routed shard's.
  {
    ShardedTransaction T(SR);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(Succ, {Value::ofInt(7)}, nullptr, &N));
    EXPECT_EQ(N, 2u);
    const auto &Stats = T.lastSnapshotReadStats();
    ASSERT_EQ(Stats.size(), 1u);
    EXPECT_EQ(Stats[0].first, SR.shardOf(key(Spec, 7, 0)));
    ASSERT_TRUE(T.commit());
  }

  // A fan-out read reports every shard, ascending; the first non-key
  // read pays each shard's documented full scan (leaving a {dst}
  // directory behind per shard)...
  {
    ShardedTransaction T(SR);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(Pred, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, static_cast<uint32_t>(NumSrcs));
    const auto &Stats = T.lastSnapshotReadStats();
    ASSERT_EQ(Stats.size(), NumShards);
    for (unsigned I = 0; I < NumShards; ++I) {
      EXPECT_EQ(Stats[I].first, I); // ascending shard order
      EXPECT_TRUE(Stats[I].second.FullScan) << "shard " << I;
      EXPECT_FALSE(Stats[I].second.DirectoryServed) << "shard " << I;
    }
    ASSERT_TRUE(T.commit());
  }

  // ...and from then on every shard serves through its own directory,
  // each visiting only its matching chains: the per-shard chain counts
  // sum to the match count, attributing the work shard by shard.
  {
    ShardedTransaction T(SR);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(Pred, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, static_cast<uint32_t>(NumSrcs));
    const auto &Stats = T.lastSnapshotReadStats();
    ASSERT_EQ(Stats.size(), NumShards);
    uint32_t Chains = 0;
    for (unsigned I = 0; I < NumShards; ++I) {
      EXPECT_TRUE(Stats[I].second.DirectoryServed) << "shard " << I;
      EXPECT_FALSE(Stats[I].second.FullScan) << "shard " << I;
      Chains += Stats[I].second.ChainsVisited;
    }
    EXPECT_EQ(Chains, static_cast<uint32_t>(NumSrcs));
    // The report is per query: a subsequent routed read replaces the
    // fan-out's three entries with the one shard it touched.
    ASSERT_TRUE(T.query(Succ, {Value::ofInt(3)}, nullptr, &N));
    EXPECT_EQ(T.lastSnapshotReadStats().size(), 1u);
    ASSERT_TRUE(T.commit());
  }
}

TEST(Mvcc, LostUpdatePermittedByQueryPreventedByQueryForUpdate) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  ASSERT_TRUE(R.insert(key(Spec, 1, 1), weight(Spec, 10)));

  // Plain query() reads the snapshot without locking the row, so an
  // increment built on it can overwrite a rival's committed increment:
  // the classic lost update, permitted by snapshot isolation. The
  // interleaving is forced deterministically — the rival runs to
  // completion between this scope's read and its write-back.
  {
    Transaction T(R);
    int64_t V = readWeight(T, H, Spec, 1, 1);
    EXPECT_EQ(V, 10);
    std::thread Rival([&] { commitRewrite(R, H, 1, 1, 10 + 1); });
    Rival.join();
    ASSERT_TRUE(T.remove(H.Rem, {Value::ofInt(1), Value::ofInt(1)}));
    ASSERT_TRUE(T.insert(H.Ins, {Value::ofInt(1), Value::ofInt(1),
                                 Value::ofInt(V + 1)}));
    ASSERT_TRUE(T.commit());
  }
  {
    Transaction Check(R);
    // Both scopes incremented, but one increment is lost: 11, not 12.
    EXPECT_EQ(readWeight(Check, H, Spec, 1, 1), 11);
    EXPECT_TRUE(Check.commit());
  }

  // queryForUpdate() takes the exclusive lock at read time, so the
  // same shape serializes: the rival's read-modify-write blocks (or
  // dies and retries) until this scope commits — no update is lost.
  ASSERT_TRUE(R.remove(key(Spec, 1, 1)));
  ASSERT_TRUE(R.insert(key(Spec, 1, 1), weight(Spec, 10)));
  {
    Transaction T(R);
    int64_t V = -1;
    ASSERT_TRUE(T.queryForUpdate(H.Exact,
                                 {Value::ofInt(1), Value::ofInt(1)},
                                 [&](const Tuple &Tp) {
                                   V = Tp.get(Spec.col("weight")).asInt();
                                 }));
    EXPECT_EQ(V, 10);
    // The rival starts now but cannot pass its own queryForUpdate until
    // this scope's locks release at commit.
    std::thread Rival([&] {
      EXPECT_TRUE(runTransaction(R, [&](Transaction &T2) {
        int64_t W = -1;
        if (!T2.queryForUpdate(H.Exact, {Value::ofInt(1), Value::ofInt(1)},
                               [&](const Tuple &Tp) {
                                 W = Tp.get(Spec.col("weight")).asInt();
                               }))
          return true; // died: retried with aged patience
        if (!T2.remove(H.Rem, {Value::ofInt(1), Value::ofInt(1)}))
          return true;
        if (!T2.insert(H.Ins, {Value::ofInt(1), Value::ofInt(1),
                               Value::ofInt(W + 1)}))
          return true;
        return true;
      }));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(T.remove(H.Rem, {Value::ofInt(1), Value::ofInt(1)}));
    ASSERT_TRUE(T.insert(H.Ins, {Value::ofInt(1), Value::ofInt(1),
                                 Value::ofInt(V + 1)}));
    ASSERT_TRUE(T.commit());
    Rival.join();
  }
  {
    Transaction Check(R);
    // Both increments survive: 12.
    EXPECT_EQ(readWeight(Check, H, Spec, 1, 1), 12);
    EXPECT_TRUE(Check.commit());
  }
}

TEST(Mvcc, PhantomsStableInSnapshotVisibleForUpdate) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t D = 0; D < 3; ++D)
    ASSERT_TRUE(R.insert(key(Spec, 5, D), weight(Spec, D)));

  Transaction T(R);
  uint32_t N1 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(5)}, nullptr, &N1));
  EXPECT_EQ(N1, 3u);

  // A rival inserts a new row matching the predicate src=5.
  std::thread Writer([&] {
    EXPECT_TRUE(runTransaction(R, [&](Transaction &W) {
      W.insert(H.Ins, {Value::ofInt(5), Value::ofInt(99),
                       Value::ofInt(999)});
      return true;
    }));
  });
  Writer.join();

  // Within the snapshot the predicate is stable: the phantom does not
  // appear, however often the query repeats.
  uint32_t N2 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(5)}, nullptr, &N2));
  EXPECT_EQ(N2, 3u);

  // queryForUpdate reads the *current* committed state under locks, and
  // there is no predicate locking: the phantom IS visible to it, inside
  // the very same scope. Serializability for predicate-dependent
  // read-modify-write therefore requires for-update reads of every row
  // the decision depends on — the documented phantom contract
  // (src/txn/Transaction.h).
  uint32_t N3 = 0;
  ASSERT_TRUE(T.queryForUpdate(H.Succ, {Value::ofInt(5)}, nullptr, &N3));
  EXPECT_EQ(N3, 4u);
  EXPECT_TRUE(T.commit());
}

//===----------------------------------------------------------------------===//
// Access paths: secondary chain directories
//===----------------------------------------------------------------------===//

TEST(Mvcc, DirectoryServedReadVisitsOnlyMatchingChains) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  constexpr int64_t Fanout = 4;
  for (int64_t D = 0; D < Fanout; ++D)
    ASSERT_TRUE(R.insert(key(Spec, 1, D), weight(Spec, D)));
  for (int64_t S = 2; S < 502; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, 0), weight(Spec, S)));

  // First successor read may pay the documented full scan once; it
  // leaves the {src} directory behind (lazy creation on fallback miss).
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Succ, {Value::ofInt(1)}));
    ASSERT_TRUE(Warm.commit());
  }

  // From now on the read is directory-served and visits exactly the
  // chains whose sub-key matches — the O(store) scan is gone. This is
  // the issue's acceptance assertion, on counters, not wall clocks.
  {
    Transaction T(R);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, 4u);
    const SnapshotQueryStats &St = T.lastSnapshotReadStats();
    EXPECT_TRUE(St.DirectoryServed);
    EXPECT_FALSE(St.FullScan);
    EXPECT_EQ(St.ChainsVisited, 4u);
    ASSERT_TRUE(T.commit());
  }

  // Growing the store by another 500 unrelated chains must not change
  // what the directory-served read visits.
  for (int64_t S = 1000; S < 1500; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, 0), weight(Spec, S)));
  {
    Transaction T(R);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, 4u);
    const SnapshotQueryStats &St = T.lastSnapshotReadStats();
    EXPECT_TRUE(St.DirectoryServed);
    EXPECT_EQ(St.ChainsVisited, 4u);
    ASSERT_TRUE(T.commit());
  }

  // Control: a point read routes through the primary directory, and a
  // read binding no key column at all still full-scans (documented).
  {
    Transaction T(R);
    ASSERT_TRUE(T.query(H.Exact, {Value::ofInt(1), Value::ofInt(0)}));
    EXPECT_FALSE(T.lastSnapshotReadStats().DirectoryServed);
    EXPECT_FALSE(T.lastSnapshotReadStats().FullScan);
    ASSERT_TRUE(T.commit());
  }
}

TEST(Mvcc, NonKeyReadSkewPreventedThroughDirectory) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  constexpr int64_t NumAccounts = 8, Initial = 100;
  for (int64_t A = 0; A < NumAccounts; ++A)
    ASSERT_TRUE(R.insert(key(Spec, A, 0), weight(Spec, Initial)));
  PreparedQuery ByDst =
      R.prepareQuery(Spec.cols({"dst"}), Spec.cols({"src", "weight"}));
  ColumnId WeightCol = Spec.col("weight");

  auto sumAll = [&](Transaction &T, int64_t &Rows) {
    int64_t Sum = 0;
    Rows = 0;
    EXPECT_TRUE(T.query(ByDst, {Value::ofInt(0)}, [&](const Tuple &Tp) {
      Sum += Tp.get(WeightCol).asInt();
      ++Rows;
    }));
    return Sum;
  };

  { // leave the {dst} directory warm
    Transaction Warm(R);
    int64_t Rows = 0;
    EXPECT_EQ(sumAll(Warm, Rows), NumAccounts * Initial);
    ASSERT_TRUE(Warm.commit());
  }

  Transaction Reader(R);
  int64_t Rows1 = 0;
  EXPECT_EQ(sumAll(Reader, Rows1), NumAccounts * Initial);
  EXPECT_EQ(Rows1, NumAccounts);
  EXPECT_TRUE(Reader.lastSnapshotReadStats().DirectoryServed);

  // A rival moves 40 from account 2 to account 6, one atomic commit.
  std::thread Writer([&] {
    EXPECT_TRUE(runTransaction(R, [&](Transaction &T) {
      int64_t A = -1, B = -1;
      if (!T.queryForUpdate(H.Exact, {Value::ofInt(2), Value::ofInt(0)},
                            [&](const Tuple &Tp) {
                              A = Tp.get(WeightCol).asInt();
                            }) ||
          !T.queryForUpdate(H.Exact, {Value::ofInt(6), Value::ofInt(0)},
                            [&](const Tuple &Tp) {
                              B = Tp.get(WeightCol).asInt();
                            }))
        return true;
      if (!T.remove(H.Rem, {Value::ofInt(2), Value::ofInt(0)}) ||
          !T.insert(H.Ins, {Value::ofInt(2), Value::ofInt(0),
                            Value::ofInt(A - 40)}) ||
          !T.remove(H.Rem, {Value::ofInt(6), Value::ofInt(0)}) ||
          !T.insert(H.Ins, {Value::ofInt(6), Value::ofInt(0),
                            Value::ofInt(B + 40)}))
        return true;
      return true;
    }));
  });
  Writer.join();

  // The open snapshot re-sums through the directory: conserved, and no
  // torn transfer (a debit without its credit) can ever show.
  int64_t Rows2 = 0;
  EXPECT_EQ(sumAll(Reader, Rows2), NumAccounts * Initial);
  EXPECT_EQ(Rows2, NumAccounts);
  EXPECT_TRUE(Reader.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(Reader.commit());

  // A fresh snapshot sees the transferred state, still conserved.
  Transaction After(R);
  int64_t Rows3 = 0;
  EXPECT_EQ(sumAll(After, Rows3), NumAccounts * Initial);
  EXPECT_EQ(Rows3, NumAccounts);
  EXPECT_TRUE(After.commit());
}

TEST(Mvcc, PhantomStableThroughDirectoryUnderMidSnapshotInsert) {
  // A rival's insert creates a brand-new chain and links it into the
  // {src} directory while this snapshot is open: the directory walk
  // sees the link immediately, but version visibility still hides the
  // row — predicate stability is a property of the snapshot, not of
  // directory membership.
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t D = 0; D < 3; ++D)
    ASSERT_TRUE(R.insert(key(Spec, 7, D), weight(Spec, D)));
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Succ, {Value::ofInt(7)}));
    ASSERT_TRUE(Warm.commit());
  }

  Transaction T(R);
  uint32_t N1 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(7)}, nullptr, &N1));
  EXPECT_EQ(N1, 3u);
  EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);

  std::thread Rival([&] {
    EXPECT_TRUE(runTransaction(R, [&](Transaction &W) {
      W.insert(H.Ins, {Value::ofInt(7), Value::ofInt(55),
                       Value::ofInt(555)});
      return true;
    }));
  });
  Rival.join();

  uint32_t N2 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(7)}, nullptr, &N2));
  EXPECT_EQ(N2, 3u); // the phantom chain is linked but not visible
  EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(T.commit());

  Transaction T2(R);
  uint32_t N3 = 0;
  ASSERT_TRUE(T2.query(H.Succ, {Value::ofInt(7)}, nullptr, &N3));
  EXPECT_EQ(N3, 4u); // a later snapshot reads it through the same link
  EXPECT_TRUE(T2.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(T2.commit());
}

TEST(Mvcc, DirectoryServesAcrossMigrateTo) {
  // migrateTo swaps the compiled representation underneath the
  // relation; the version store (and its directories) is orthogonal to
  // the representation and must keep serving the open snapshot
  // unperturbed, mid-scope.
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t D = 0; D < 5; ++D)
    ASSERT_TRUE(R.insert(key(Spec, 3, D), weight(Spec, 10 * D)));
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Succ, {Value::ofInt(3)}));
    ASSERT_TRUE(Warm.commit());
  }

  Transaction T(R);
  uint32_t N1 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(3)}, nullptr, &N1));
  EXPECT_EQ(N1, 5u);
  EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);

  ASSERT_TRUE(R.migrateTo(splitStriped(8)).Ok);

  uint32_t N2 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(3)}, nullptr, &N2));
  EXPECT_EQ(N2, 5u);
  EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(T.commit());

  // And the directory keeps serving new snapshots after the swap.
  Transaction T2(R);
  uint32_t N3 = 0;
  ASSERT_TRUE(T2.query(H.Succ, {Value::ofInt(3)}, nullptr, &N3));
  EXPECT_EQ(N3, 5u);
  EXPECT_TRUE(T2.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(T2.commit());
}

//===----------------------------------------------------------------------===//
// Mechanics: locks, aborts, reclamation
//===----------------------------------------------------------------------===//

TEST(Mvcc, SnapshotReadsAcquireZeroLocks) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t S = 0; S < 8; ++S)
    for (int64_t D = 0; D < 4; ++D)
      ASSERT_TRUE(R.insert(key(Spec, S, D), weight(Spec, S + D)));

  // Warm the plan cache, then read the lock counter and run a pile of
  // read-only scopes: the acquisition total must not move at all —
  // snapshot reads take no placement or tuple locks (the zero-lock
  // guarantee, asserted rather than assumed). Every acquisition is
  // counted, so a single lock on this path would show.
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Succ, {Value::ofInt(0)}));
    ASSERT_TRUE(Warm.commit());
  }
  uint64_t Before = lockAcquisitions(R);
  for (int Round = 0; Round < 200; ++Round) {
    Transaction T(R);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(Round % 8)}, nullptr, &N));
    EXPECT_EQ(N, 4u);
    ASSERT_TRUE(
        T.query(H.Exact, {Value::ofInt(Round % 8), Value::ofInt(0)}));
    ASSERT_TRUE(T.commit());
    EXPECT_EQ(T.restarts(), 0u);
  }
  uint64_t After = lockAcquisitions(R);
  EXPECT_EQ(After, Before);

  // Control: the same query for-update takes its exclusive locks — the
  // zero above is a property of the snapshot path, not dead
  // instrumentation. Source 0 has 4 destinations: the root's stripe
  // for src, u's stripe, and one stripe per w instance (4).
  {
    Transaction T(R);
    ASSERT_TRUE(T.queryForUpdate(H.Succ, {Value::ofInt(0)}));
    ASSERT_TRUE(T.commit());
  }
  EXPECT_EQ(lockAcquisitions(R), After + 6);
}

TEST(Mvcc, ReclamationBoundedByActiveSnapshot) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  ASSERT_TRUE(R.insert(key(Spec, 1, 1), weight(Spec, 0)));
  MvccStore &Store = R.mvccStore();
  EXPECT_EQ(Store.liveVersions(), 1u);

  // Pin a snapshot, then bury the key under K committed rewrites: every
  // superseded version outlives its replacement because the pinned
  // snapshot's watermark floors reclamation — the chain grows.
  constexpr uint64_t K = 16;
  {
    Transaction Pin(R);
    EXPECT_EQ(readWeight(Pin, H, Spec, 1, 1), 0);
    EXPECT_GE(activeSnapshots(), 1u);
    std::thread Writer([&] {
      for (uint64_t I = 1; I <= K; ++I)
        commitRewrite(R, H, 1, 1, static_cast<int64_t>(I));
    });
    Writer.join();
    EXPECT_GE(Store.liveVersions(), K);
    // The pinned snapshot still reads its original version under the
    // pile — that is what the retained versions are *for*.
    EXPECT_EQ(readWeight(Pin, H, Spec, 1, 1), 0);
    EXPECT_TRUE(Pin.commit());
  }

  // Snapshot released: the next install on the chain prunes everything
  // below the advanced watermark. Reclamation is bounded, not leaked.
  commitRewrite(R, H, 1, 1, 777);
  EXPECT_LE(Store.liveVersions(), 3u);
  EXPECT_GE(Store.retired(), K);
}

TEST(Mvcc, ReadOnlyScopesNeverAbortUnderWrites) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t S = 0; S < 8; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, 0), weight(Spec, S)));

  // N reader threads, one writer hammering every key: wait-die never
  // touches a read-only scope (it holds nothing a writer could want),
  // so the abort and restart counters stay at exact zero.
  constexpr unsigned Readers = 3, ScopesPerReader = 200;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> ReaderAborts{0}, ReaderRestarts{0};
  std::thread Writer([&] {
    int64_t W = 1000;
    while (!Stop.load(std::memory_order_acquire))
      for (int64_t S = 0; S < 8; ++S)
        commitRewrite(R, H, S, 0, ++W);
  });
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Readers; ++T)
    Pool.emplace_back([&] {
      for (unsigned I = 0; I < ScopesPerReader; ++I) {
        Transaction Txn(R);
        bool Ok = true;
        for (int64_t S = 0; S < 8 && Ok; ++S)
          Ok = Txn.query(H.Succ, {Value::ofInt(S)});
        if (!Ok || !Txn.commit())
          ReaderAborts.fetch_add(1, std::memory_order_relaxed);
        ReaderRestarts.fetch_add(Txn.restarts(),
                                 std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  Stop.store(true, std::memory_order_release);
  Writer.join();
  EXPECT_EQ(ReaderAborts.load(), 0u);
  EXPECT_EQ(ReaderRestarts.load(), 0u);
}

//===----------------------------------------------------------------------===//
// Fig5 txn-panel regression: readers track bare prepared reads
//===----------------------------------------------------------------------===//

TEST(Mvcc, ReadOnlyScopeThroughputTracksPreparedReads) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t S = 0; S < 64; ++S)
    for (int64_t D = 0; D < 4; ++D)
      ASSERT_TRUE(R.insert(key(Spec, S, D), weight(Spec, S + D)));

  const uint64_t Ops = stress::envU64("CRS_MVCC_BENCH_OPS", 8000);
  // Acceptance ratio in percent: snapshot point reads inside a scope
  // versus the same bare prepared point reads — like-for-like, both are
  // hash lookups (chain bucket vs compiled index). Release asks for 60%
  // (the fig5 panel budget, with slack for the scope overhead amortized
  // over 8 reads and the version-visibility check per hit); Debug and
  // sanitizer builds measure instrumentation more than the path, so the
  // bar drops to smoke-test levels. CRS_MVCC_READ_RATIO_PCT overrides
  // for bench experiments. Non-key snapshot reads (e.g. bind only src)
  // route through the version store's chain directories — O(matching
  // chains), asserted on visit counters by
  // Mvcc.DirectoryServedReadVisitsOnlyMatchingChains and charted by the
  // fig5 txn_nonkey panel — so only the point-read ratio is pinned
  // here.
#if defined(NDEBUG) && !defined(CRS_MVCC_SANITIZED)
  const uint64_t DefaultPct = 60;
#else
  const uint64_t DefaultPct = 20;
#endif
  const uint64_t Pct = stress::envU64("CRS_MVCC_READ_RATIO_PCT", DefaultPct);

  // Warm both paths (plan compiles out of the timed region).
  H.Exact.bind(0, Value::ofInt(0));
  H.Exact.bind(1, Value::ofInt(0));
  H.Exact.count();
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Exact, {Value::ofInt(0), Value::ofInt(0)}));
    ASSERT_TRUE(Warm.commit());
  }

  // Both loops visit the same (src, dst) sequence; every probe hits.
  // Each is timed on this thread's CPU clock, so time the thread spends
  // preempted (a loaded host, a parallel ctest) is not charged as read
  // time, and the best of several interleaved rounds of each is kept.
  auto CpuSeconds = [] {
    timespec Ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
    return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
  };
  auto BareLoop = [&] {
    double Start = CpuSeconds();
    uint64_t Rows = 0;
    for (uint64_t I = 0; I < Ops; ++I) {
      H.Exact.bind(0, Value::ofInt(static_cast<int64_t>(I % 64)));
      H.Exact.bind(1, Value::ofInt(static_cast<int64_t>(I % 4)));
      Rows += H.Exact.count();
    }
    double Sec = CpuSeconds() - Start;
    EXPECT_EQ(Rows, Ops); // every probe is a hit
    return Sec;
  };
  auto TxnLoop = [&] {
    double Start = CpuSeconds();
    uint64_t Rows = 0;
    for (uint64_t I = 0; I < Ops; I += 8) {
      Transaction T(R);
      for (uint64_t J = I; J < I + 8 && J < Ops; ++J) {
        uint32_t N = 0;
        EXPECT_TRUE(T.query(H.Exact,
                            {Value::ofInt(static_cast<int64_t>(J % 64)),
                             Value::ofInt(static_cast<int64_t>(J % 4))},
                            nullptr, &N));
        Rows += N;
      }
      EXPECT_TRUE(T.commit());
    }
    double Sec = CpuSeconds() - Start;
    EXPECT_EQ(Rows, Ops);
    return Sec;
  };
  double BareSec = BareLoop(), TxnSec = TxnLoop();
  for (int Round = 1; Round < 3; ++Round) {
    BareSec = std::min(BareSec, BareLoop());
    TxnSec = std::min(TxnSec, TxnLoop());
  }
  double BareOps = static_cast<double>(Ops) / BareSec;
  double TxnOps = static_cast<double>(Ops) / TxnSec;
  EXPECT_GE(TxnOps * 100.0, BareOps * static_cast<double>(Pct))
      << "snapshot point reads " << TxnOps << " ops/s vs bare prepared "
      << BareOps << " ops/s (need " << Pct
      << "%; override with CRS_MVCC_READ_RATIO_PCT)";
}

//===----------------------------------------------------------------------===//
// Snapshot acquisition: a scope reads its own thread's earlier commits
//===----------------------------------------------------------------------===//

TEST(Mvcc, SnapshotSeesOwnCommitWhileOtherCommitInFlight) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  // This thread's write scope opens first (its own snapshot acquisition
  // must not wait on the ticket below).
  Transaction W(R);
  ASSERT_TRUE(
      W.insert(H.Ins, {Value::ofInt(7), Value::ofInt(7), Value::ofInt(41)}));
  // Thread B opens a commit ticket below the sequence this thread is
  // about to commit at, and holds it until well after that commit.
  std::atomic<bool> Opened{false}, Committed{false};
  std::thread B([&] {
    CommitTicket T = beginCommit();
    Opened.store(true, std::memory_order_release);
    while (!Committed.load(std::memory_order_acquire))
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    endCommit(T);
  });
  while (!Opened.load(std::memory_order_acquire))
    std::this_thread::yield();
  EXPECT_TRUE(W.commit());
  Committed.store(true, std::memory_order_release);
  // B's sequence is below ours and still in flight. The new scope's
  // snapshot must still cover our acknowledged commit: it waits out B's
  // install window rather than settling below B.
  {
    Transaction T(R);
    EXPECT_GE(T.snapshotSeq(), W.commitSeq());
    EXPECT_EQ(readWeight(T, H, Spec, 7, 7), 41);
    EXPECT_TRUE(T.commit());
  }
  B.join();
}

//===----------------------------------------------------------------------===//
// Version-store growth: the hash directories follow the data
//===----------------------------------------------------------------------===//

namespace {

Tuple edge(const RelationSpec &Spec, int64_t S, int64_t D, int64_t W) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)},
                    {Spec.col("weight"), Value::ofInt(W)}});
}

Tuple srcOnly(const RelationSpec &Spec, int64_t S) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)}});
}

} // namespace

TEST(Mvcc, StoreGrowsWithoutHint) {
  RepresentationConfig C = splitStriped();
  const RelationSpec &Spec = *C.Spec;
  MvccStore Store(Spec);
  const size_t Fresh = Store.buckets();
  ASSERT_TRUE(Store.ensureDirectory(Spec.cols({"src"})));
  constexpr int64_t Fanout = 10, Srcs = 20000; // 200k chains
  for (int64_t S = 0; S < Srcs; ++S)
    for (int64_t D = 0; D < Fanout; ++D)
      Store.installInsert(edge(Spec, S, D, S + D), nextCommitSeq());
  const size_t Chains = size_t(Srcs * Fanout);
  EXPECT_EQ(Store.liveVersions(), Chains);

  // Both tables doubled from their fresh size to about two entries per
  // bucket: the primary and the {src} directory each hold 200k nodes.
  EXPECT_GE(Store.resizes(), 2u);
  EXPECT_GE(Store.buckets(), Chains);     // ≤ 2 per bucket, both tables
  EXPECT_LE(Store.buckets(), 4 * Chains); // and not oversized either
  EXPECT_GT(Store.buckets(), 100 * Fresh);
  // Longest primary bucket list. A hash spread at about two entries per
  // bucket over ~131k buckets leaves a Poisson tail: the expected
  // longest list is 9–10 and P(any list ≥ 13) is about 1e-3.
  EXPECT_LE(Store.maxBucketChainLength(), 12u);

  // Directory-served reads walk their own chains plus whatever other
  // sub-keys share the bucket — a small constant, not the store.
  uint64_t Snap = commitClockNow();
  uint64_t Scanned = 0, Visited = 0;
  EpochDomain::Guard G;
  for (int64_t S = 0; S < Srcs; S += 7) {
    SnapshotQueryStats St;
    uint32_t N = Store.snapshotQuery(srcOnly(Spec, S), Snap, nullptr,
                                     nullptr, &St);
    ASSERT_EQ(N, uint32_t(Fanout));
    ASSERT_TRUE(St.DirectoryServed);
    ASSERT_EQ(St.ChainsVisited, uint32_t(Fanout));
    EXPECT_LE(St.LinksScanned, St.ChainsVisited + 4 * Fanout);
    Scanned += St.LinksScanned;
    Visited += St.ChainsVisited;
  }
  EXPECT_LE(Scanned, Visited + Visited / 2);
}

TEST(Mvcc, ReadersNeverMissChainsWhileTablesGrow) {
  RepresentationConfig C = splitStriped();
  const RelationSpec &Spec = *C.Spec;
  MvccStore Store(Spec);
  ASSERT_TRUE(Store.ensureDirectory(Spec.cols({"src"})));
  // Pre-inserted set: src in [0, 64), 4 dsts each. Writers add chains
  // only under src ≥ 1000, so a directory read of a pre-inserted src
  // has an exact answer at any snapshot.
  constexpr int64_t PreSrcs = 64, PreFanout = 4;
  for (int64_t S = 0; S < PreSrcs; ++S)
    for (int64_t D = 0; D < PreFanout; ++D)
      Store.installInsert(edge(Spec, S, D, 1), nextCommitSeq());
  const uint64_t ResizesBefore = Store.resizes();

  const uint64_t PerWriter = 30000 * stress::opsMultiplier();
  constexpr unsigned Writers = 2, Readers = 2;
  std::atomic<unsigned> WritersLeft{Writers};
  std::atomic<uint64_t> Misses{0}, Reads{0};
  std::vector<std::thread> Pool;
  for (unsigned W = 0; W < Writers; ++W)
    Pool.emplace_back([&, W] {
      // Each writer owns its src range; it removes every other key it
      // inserted, so pruning unlinks chains while the tables double.
      const int64_t Base = 1000 + int64_t(W) * 1000000;
      for (uint64_t I = 0; I < PerWriter; ++I) {
        int64_t S = Base + int64_t(I / 8), D = int64_t(I % 8);
        Store.installInsert(edge(Spec, S, D, 2), nextCommitSeq());
        if (I % 2 == 1)
          Store.installRemove(edge(Spec, S, D - 1, 2), nextCommitSeq());
      }
      WritersLeft.fetch_sub(1, std::memory_order_release);
    });
  for (unsigned RIdx = 0; RIdx < Readers; ++RIdx)
    Pool.emplace_back([&, RIdx] {
      uint64_t Snap;
      unsigned Slot = acquireSnapshotSlot(Snap);
      uint64_t I = RIdx;
      do {
        int64_t S = int64_t(I % PreSrcs), D = int64_t(I / PreSrcs % PreFanout);
        EpochDomain::Guard G;
        if (Store.snapshotQuery(key(Spec, S, D), Snap, nullptr) != 1)
          Misses.fetch_add(1, std::memory_order_relaxed);
        if (Store.snapshotQuery(srcOnly(Spec, S), Snap, nullptr) !=
            uint32_t(PreFanout))
          Misses.fetch_add(1, std::memory_order_relaxed);
        Reads.fetch_add(2, std::memory_order_relaxed);
        ++I;
      } while (WritersLeft.load(std::memory_order_acquire) != 0);
      releaseSnapshotSlot(Slot);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Misses.load(), 0u) << "of " << Reads.load() << " reads";
  // Several doublings of both tables happened under the readers.
  EXPECT_GE(Store.resizes() - ResizesBefore, 4u);
  EXPECT_EQ(Store.removeNoops(), 0u);
}

//===----------------------------------------------------------------------===//
// Snapshot-consistency stress oracle (nightly lane scales this up)
//===----------------------------------------------------------------------===//

namespace {

/// The transfer oracle over one relation whose version store was
/// pre-sized for \p Hint tuples (0 = no hint: the store grows).
void runTransferStress(size_t Hint) {
  RepresentationConfig C = splitStriped();
  C.ExpectedCardinality = Hint;
  ConcurrentRelation R(C);
  stress::SnapshotStressOptions Opts;
  stress::SnapshotStressReport Rep = stress::runSnapshotStressWithOracle(
      R, Opts);
  EXPECT_TRUE(Rep.Errors.empty())
      << Rep.Errors.size() << " violations; first: " << Rep.Errors.front()
      << "; " << Rep.hint();
  EXPECT_GT(Rep.Checks, 0u);
  EXPECT_GE(Rep.Transfers, Opts.Transfers);
  // installRemove's idempotent-replay tolerance must never fire outside
  // recovery, and the chain lists must stay short whether the store was
  // sized up front or grew: both counters, not vibes.
  EXPECT_EQ(Rep.RemoveNoops, 0u);
  EXPECT_LE(Rep.MaxBucketChainLen, 4u);
  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
}

} // namespace

TEST(MvccStress, SnapshotSumConservationUnderTransfers) {
  runTransferStress(/*Hint=*/1024);
}

TEST(MvccStress, SnapshotSumConservationUnderTransfersNoHint) {
  runTransferStress(/*Hint=*/0);
}

TEST(MvccStress, SnapshotSumConservationAcrossShards) {
  ShardedRelation SR(splitStriped(), 3);
  stress::SnapshotStressOptions Opts;
  Opts.Transfers = 1200;
  stress::SnapshotStressReport Rep = stress::runSnapshotStressWithOracle(
      SR, Opts);
  EXPECT_TRUE(Rep.Errors.empty())
      << Rep.Errors.size() << " violations; first: " << Rep.Errors.front()
      << "; " << Rep.hint();
  EXPECT_GT(Rep.Checks, 0u);
  EXPECT_EQ(Rep.RemoveNoops, 0u);
  EXPECT_LE(Rep.MaxBucketChainLen, 8u);
}
