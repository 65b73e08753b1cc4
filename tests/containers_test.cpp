//===- tests/containers_test.cpp - Container substrate tests ------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// Unit and stress tests for the Figure 1 container taxonomy: functional
/// correctness of each from-scratch container (against std::map as the
/// model), structural invariants (AVL balance), taxonomy traits, and
/// concurrent stress for the concurrency-safe containers (linearizable
/// lookup/write, weakly-consistent or snapshot scans), growth under
/// readers, and reclamation of erased entries. The concurrent maps are
/// used inside epoch guards, their contract.
///
//===----------------------------------------------------------------------===//

#include "containers/ConcurrentHashMap.h"
#include "containers/ConcurrentSkipListMap.h"
#include "containers/ContainerTraits.h"
#include "containers/CowArrayMap.h"
#include "containers/HashMap.h"
#include "containers/SingletonCell.h"
#include "containers/TreeMap.h"
#include "runtime/AnyContainer.h"
#include "StressHarness.h"
#include "runtime/NodeInstance.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "sync/Epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

using namespace crs;

namespace {

struct IntHash {
  uint64_t operator()(int64_t V) const {
    return mix64(static_cast<uint64_t>(V));
  }
};
struct IntLess {
  bool operator()(int64_t A, int64_t B) const { return A < B; }
};

// ------------------------------------------------- generic model check

/// Randomized differential test of any map-like container against
/// std::map.
template <typename Map> void runModelCheck(Map &M, uint64_t Seed,
                                           int Steps, int64_t KeyRange) {
  std::map<int64_t, int64_t> Model;
  Xoshiro256 Rng(Seed);
  for (int I = 0; I < Steps; ++I) {
    EpochDomain::Guard G;
    int64_t K = static_cast<int64_t>(Rng.nextBounded(KeyRange));
    int64_t V = static_cast<int64_t>(Rng.nextBounded(1000));
    switch (Rng.nextBounded(4)) {
    case 0: {
      bool A = M.insertOrAssign(K, V);
      bool B = Model.insert_or_assign(K, V).second;
      ASSERT_EQ(A, B) << "insert at step " << I;
      break;
    }
    case 1: {
      bool A = M.erase(K);
      bool B = Model.erase(K) > 0;
      ASSERT_EQ(A, B) << "erase at step " << I;
      break;
    }
    case 2: {
      int64_t Out = -1;
      bool A = M.lookup(K, Out);
      auto It = Model.find(K);
      ASSERT_EQ(A, It != Model.end()) << "lookup at step " << I;
      if (A)
        ASSERT_EQ(Out, It->second);
      break;
    }
    default: {
      std::map<int64_t, int64_t> Seen;
      M.scan([&](const int64_t &Key, const int64_t &Val) {
        Seen.emplace(Key, Val);
        return true;
      });
      ASSERT_EQ(Seen, Model) << "scan at step " << I;
      break;
    }
    }
    ASSERT_EQ(M.size(), Model.size());
  }
}

TEST(HashMapModel, RandomOps) {
  HashMap<int64_t, int64_t, IntHash> M;
  runModelCheck(M, 11, 4000, 64);
}

TEST(HashMapModel, GrowsThroughResize) {
  HashMap<int64_t, int64_t, IntHash> M(2);
  for (int64_t I = 0; I < 1000; ++I)
    ASSERT_TRUE(M.insertOrAssign(I, I * 2));
  EXPECT_EQ(M.size(), 1000u);
  for (int64_t I = 0; I < 1000; ++I) {
    int64_t V = -1;
    ASSERT_TRUE(M.lookup(I, V));
    ASSERT_EQ(V, I * 2);
  }
}

TEST(TreeMapModel, RandomOps) {
  TreeMap<int64_t, int64_t, IntLess> M;
  runModelCheck(M, 12, 4000, 64);
  EXPECT_TRUE(M.checkInvariants());
}

TEST(TreeMapModel, SortedScanAndBalance) {
  TreeMap<int64_t, int64_t, IntLess> M;
  Xoshiro256 Rng(13);
  for (int I = 0; I < 2000; ++I)
    M.insertOrAssign(static_cast<int64_t>(Rng.nextBounded(100000)), I);
  EXPECT_TRUE(M.checkInvariants());
  int64_t Prev = -1;
  M.scan([&](const int64_t &K, const int64_t &) {
    EXPECT_LT(Prev, K);
    Prev = K;
    return true;
  });
  // Deletions keep the AVL balanced.
  for (int64_t K = 0; K < 100000; K += 3)
    M.erase(K);
  EXPECT_TRUE(M.checkInvariants());
}

TEST(TreeMapModel, ScanEarlyStop) {
  TreeMap<int64_t, int64_t, IntLess> M;
  for (int64_t I = 0; I < 100; ++I)
    M.insertOrAssign(I, I);
  int Count = 0;
  M.scan([&](const int64_t &, const int64_t &) { return ++Count < 10; });
  EXPECT_EQ(Count, 10);
}

TEST(ConcurrentHashMapModel, RandomOps) {
  ConcurrentHashMap<int64_t, int64_t, IntHash> M;
  runModelCheck(M, 14, 4000, 64);
}

TEST(ConcurrentHashMapModel, InsertIfAbsent) {
  ConcurrentHashMap<int64_t, int64_t, IntHash> M;
  EpochDomain::Guard G;
  EXPECT_TRUE(M.insertIfAbsent(1, 10));
  EXPECT_FALSE(M.insertIfAbsent(1, 20));
  int64_t V = -1;
  ASSERT_TRUE(M.lookup(1, V));
  EXPECT_EQ(V, 10);
}

TEST(ConcurrentSkipListModel, RandomOps) {
  ConcurrentSkipListMap<int64_t, int64_t, IntLess> M;
  runModelCheck(M, 15, 4000, 64);
}

TEST(ConcurrentSkipListModel, SortedScan) {
  ConcurrentSkipListMap<int64_t, int64_t, IntLess> M;
  EpochDomain::Guard G;
  Xoshiro256 Rng(16);
  for (int I = 0; I < 1000; ++I)
    M.insertOrAssign(static_cast<int64_t>(Rng.nextBounded(10000)), I);
  int64_t Prev = -1;
  size_t Seen = 0;
  M.scan([&](const int64_t &K, const int64_t &) {
    EXPECT_LT(Prev, K);
    Prev = K;
    ++Seen;
    return true;
  });
  EXPECT_EQ(Seen, M.size());
}

TEST(CowArrayMapModel, RandomOps) {
  CowArrayMap<int64_t, int64_t, IntLess> M;
  runModelCheck(M, 17, 2000, 32);
}

TEST(SingletonCellModel, HoldsOneEntry) {
  SingletonCell<int64_t, int64_t> C;
  EXPECT_TRUE(C.empty());
  EXPECT_TRUE(C.insertOrAssign(7, 70));
  EXPECT_FALSE(C.insertOrAssign(7, 71)); // replace, not insert
  int64_t V = -1;
  ASSERT_TRUE(C.lookup(7, V));
  EXPECT_EQ(V, 71);
  EXPECT_FALSE(C.lookup(8, V));
  EXPECT_EQ(C.size(), 1u);
  EXPECT_TRUE(C.erase(7));
  EXPECT_FALSE(C.erase(7));
  EXPECT_TRUE(C.empty());
}

// ----------------------------------------------------------- taxonomy

TEST(Taxonomy, Figure1Rows) {
  // The library's Figure 1: non-concurrent rows.
  for (ContainerKind K : {ContainerKind::HashMap, ContainerKind::TreeMap}) {
    ContainerTraits T = containerTraits(K);
    EXPECT_EQ(T.LookupLookup, PairSafety::Linearizable);
    EXPECT_EQ(T.LookupWrite, PairSafety::Unsafe);
    EXPECT_EQ(T.WriteWrite, PairSafety::Unsafe);
    EXPECT_FALSE(T.concurrencySafe());
  }
  // Concurrent rows: L/W and W/W linearizable, S/W weak.
  for (ContainerKind K : {ContainerKind::ConcurrentHashMap,
                          ContainerKind::ConcurrentSkipListMap}) {
    ContainerTraits T = containerTraits(K);
    EXPECT_TRUE(T.concurrencySafe());
    EXPECT_TRUE(T.linearizableLookup());
    EXPECT_EQ(T.ScanWrite, PairSafety::Weak);
  }
  // CopyOnWrite: snapshot iteration is fully linearizable.
  ContainerTraits Cow = containerTraits(ContainerKind::CowArrayMap);
  EXPECT_EQ(Cow.ScanWrite, PairSafety::Linearizable);
  EXPECT_TRUE(Cow.concurrencySafe());
  // SingletonCell: atomic entry pointer, so reads are linearizable even
  // against a concurrent write; racing writers merely lose updates
  // (weak), which the plans' exclusive locks prevent. Concurrency-safe
  // is what lets the dotted FD edges join the wait-free read path.
  ContainerTraits Cell = containerTraits(ContainerKind::SingletonCell);
  EXPECT_TRUE(Cell.concurrencySafe());
  EXPECT_TRUE(Cell.linearizableLookup());
  EXPECT_EQ(Cell.ScanWrite, PairSafety::Linearizable);
  EXPECT_EQ(Cell.WriteWrite, PairSafety::Weak);
  // Sorted-scan flags drive the planner's sort-elision analysis.
  EXPECT_FALSE(containerTraits(ContainerKind::HashMap).SortedScan);
  EXPECT_TRUE(containerTraits(ContainerKind::TreeMap).SortedScan);
  EXPECT_TRUE(
      containerTraits(ContainerKind::ConcurrentSkipListMap).SortedScan);
}

TEST(Taxonomy, Names) {
  EXPECT_STREQ(containerKindName(ContainerKind::ConcurrentHashMap),
               "ConcurrentHashMap");
  EXPECT_STREQ(pairSafetyName(PairSafety::Unsafe), "no");
  EXPECT_STREQ(pairSafetyName(PairSafety::Weak), "weak");
  EXPECT_STREQ(pairSafetyName(PairSafety::Linearizable), "yes");
}

// ------------------------------------------------------ concurrent use

/// Concurrent writers on disjoint key ranges plus readers; afterwards
/// the container must hold exactly the surviving keys.
template <typename Map> void runConcurrentStress(Map &M) {
  constexpr int NumWriters = 4;
  constexpr int64_t PerWriter = 400;
  std::vector<std::thread> Threads;
  for (int W = 0; W < NumWriters; ++W) {
    Threads.emplace_back([&M, W] {
      int64_t Base = W * PerWriter;
      for (int64_t I = 0; I < PerWriter; ++I) {
        EpochDomain::Guard G;
        M.insertOrAssign(Base + I, W);
      }
      for (int64_t I = 0; I < PerWriter; I += 2) {
        EpochDomain::Guard G;
        M.erase(Base + I);
      }
    });
  }
  // Concurrent readers: scans and lookups must be safe (weakly
  // consistent results are acceptable; crashes and torn reads are not).
  std::atomic<bool> Stop{false};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      EpochDomain::Guard G;
      size_t Seen = 0;
      M.scan([&](const int64_t &, const int64_t &) {
        ++Seen;
        return true;
      });
      int64_t Out;
      M.lookup(3, Out);
    }
  });
  for (auto &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_release);
  Reader.join();

  size_t Expected = NumWriters * (PerWriter / 2);
  EXPECT_EQ(M.size(), Expected);
  EpochDomain::Guard G;
  for (int W = 0; W < NumWriters; ++W)
    for (int64_t I = 0; I < PerWriter; ++I) {
      int64_t Out = -1;
      bool Present = M.lookup(W * PerWriter + I, Out);
      ASSERT_EQ(Present, I % 2 == 1);
      if (Present)
        ASSERT_EQ(Out, W);
    }
}

TEST(ConcurrentHashMapStress, WritersAndReaders) {
  ConcurrentHashMap<int64_t, int64_t, IntHash> M;
  runConcurrentStress(M);
}

TEST(ConcurrentSkipListStress, WritersAndReaders) {
  ConcurrentSkipListMap<int64_t, int64_t, IntLess> M;
  runConcurrentStress(M);
}

TEST(CowArrayMapStress, WritersAndReaders) {
  CowArrayMap<int64_t, int64_t, IntLess> M;
  runConcurrentStress(M);
}

TEST(SingletonCellStress, OneWriterManyGuardedReaders) {
  // The cell's contract: one externally serialized writer, any number
  // of readers running inside epoch guards (in the runtime both the
  // locked and wait-free paths hold one). Readers must only ever see
  // the FD key with a value some write actually published — never a
  // torn entry, never freed memory.
  SingletonCell<int64_t, int64_t> C;
  constexpr int64_t FDKey = 7;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire)) {
        EpochDomain::Guard G;
        int64_t Out = -1;
        if (C.lookup(FDKey, Out))
          EXPECT_GE(Out, 0);
        C.scan([&](const int64_t &K, const int64_t &V) {
          EXPECT_EQ(K, FDKey);
          EXPECT_GE(V, 0);
        });
        EXPECT_LE(C.size(), 1u);
      }
    });
  for (int64_t I = 0; I < 20000; ++I) {
    if (I % 3 == 2)
      C.erase(FDKey);
    else
      C.insertOrAssign(FDKey, I);
  }
  Stop.store(true, std::memory_order_release);
  for (auto &T : Readers)
    T.join();
  EpochDomain::global().synchronize();
}

TEST(ConcurrentHashMapStress, PutIfAbsentUniqueWinner) {
  // The §2 insert is a generalized put-if-absent: under contention
  // exactly one thread must win each key.
  ConcurrentHashMap<int64_t, int64_t, IntHash> M;
  constexpr int NumThreads = 8;
  std::atomic<int> Wins{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&M, &Wins, T] {
      for (int64_t K = 0; K < 200; ++K) {
        EpochDomain::Guard G;
        if (M.insertIfAbsent(K, T))
          Wins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Wins.load(), 200);
  EXPECT_EQ(M.size(), 200u);
}

TEST(ConcurrentHashMapStress, GrowsUnderGuardedReaders) {
  // Writers grow the table from its minimum size through several
  // doublings while guarded readers look up and scan a stable key set:
  // a doubling must never hide a key from a reader on either head array.
  ConcurrentHashMap<int64_t, int64_t, IntHash> M;
  const size_t MinBuckets = M.buckets();
  constexpr int64_t Stable = 256;
  for (int64_t K = 0; K < Stable; ++K) {
    EpochDomain::Guard G;
    M.insertOrAssign(-1 - K, K);
  }
  constexpr int NumWriters = 4;
  const int64_t PerWriter = 50000 * int64_t(stress::opsMultiplier());
  std::atomic<int> WritersLeft{NumWriters};
  std::atomic<uint64_t> Misses{0}, Passes{0};
  std::vector<std::thread> Threads;
  for (int R = 0; R < 2; ++R)
    Threads.emplace_back([&] {
      while (WritersLeft.load(std::memory_order_acquire) > 0) {
        {
          EpochDomain::Guard G;
          for (int64_t K = 0; K < Stable; ++K) {
            int64_t Out = -1;
            if (!M.lookup(-1 - K, Out) || Out != K)
              Misses.fetch_add(1, std::memory_order_relaxed);
          }
        }
        EpochDomain::Guard G;
        int64_t Seen = 0;
        M.scan([&](const int64_t &Key, const int64_t &) {
          Seen += Key < 0;
          return true;
        });
        if (Seen != Stable)
          Misses.fetch_add(1, std::memory_order_relaxed);
        Passes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int W = 0; W < NumWriters; ++W)
    Threads.emplace_back([&, W] {
      for (int64_t I = 0; I < PerWriter; ++I) {
        EpochDomain::Guard G;
        M.insertOrAssign(W * PerWriter + I, I);
      }
      WritersLeft.fetch_sub(1, std::memory_order_release);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Misses.load(), 0u);
  EXPECT_GT(Passes.load(), 0u);
  EXPECT_EQ(M.size(), size_t(Stable + NumWriters * PerWriter));
  EXPECT_GE(M.buckets(), 8 * MinBuckets) << "the table did not grow";
  // A doubling whose grace period the readers' guards held off (a scan
  // of the whole table is a long guard) is left to a later write: once
  // the readers have gone, one more insert completes it.
  EpochDomain::global().synchronize();
  {
    EpochDomain::Guard G;
    M.insertOrAssign(-1 - Stable, Stable);
  }
  EXPECT_GE(M.buckets(), M.size() / 2);
  EpochDomain::Guard G;
  for (int64_t K = 0; K < NumWriters * PerWriter; K += 97) {
    int64_t Out = -1;
    ASSERT_TRUE(M.lookup(K, Out)) << K;
    EXPECT_EQ(Out, K % PerWriter);
  }
}

/// A key that counts its live copies, so a test can tell whether a map
/// still holds erased entries. Default-constructed keys (the skip list's
/// sentinels) are not counted.
struct CountedKey {
  static inline std::atomic<int64_t> Live{0};
  int64_t V = 0;
  bool Counted = false;
  CountedKey() = default;
  explicit CountedKey(int64_t V) : V(V), Counted(true) { Live.fetch_add(1); }
  CountedKey(const CountedKey &O) : V(O.V), Counted(O.Counted) {
    if (Counted)
      Live.fetch_add(1);
  }
  CountedKey &operator=(const CountedKey &) = delete;
  ~CountedKey() {
    if (Counted)
      Live.fetch_sub(1);
  }
  bool operator==(const CountedKey &O) const { return V == O.V; }
};
struct CountedKeyHash {
  uint64_t operator()(const CountedKey &K) const {
    return mix64(static_cast<uint64_t>(K.V));
  }
};
struct CountedKeyLess {
  bool operator()(const CountedKey &A, const CountedKey &B) const {
    return A.V < B.V;
  }
};

/// 65,536 live keys, then 4 cycles that insert and erase a disjoint
/// 65,536-key half. Once a grace period has passed, the live keys must
/// be exactly the map's entries: an erased entry's memory comes back.
template <typename Map> void runChurnCycles(Map &M) {
  constexpr int64_t Half = 65536;
  const int64_t Before = CountedKey::Live.load();
  auto Put = [&](int64_t K) {
    EpochDomain::Guard G;
    return M.insertOrAssign(CountedKey(K), 0);
  };
  for (int64_t K = 0; K < Half; ++K)
    ASSERT_TRUE(Put(K));
  for (int Cycle = 1; Cycle <= 4; ++Cycle) {
    for (int64_t K = Cycle * Half; K < (Cycle + 1) * Half; ++K)
      ASSERT_TRUE(Put(K));
    for (int64_t K = Cycle * Half; K < (Cycle + 1) * Half; ++K) {
      EpochDomain::Guard G;
      ASSERT_TRUE(M.erase(CountedKey(K)));
    }
    EpochDomain::global().synchronize();
    EXPECT_EQ(CountedKey::Live.load() - Before, int64_t(M.size()))
        << "cycle " << Cycle;
  }
}

TEST(ConcurrentSkipListMapReclaim, ChurnFreesErasedEntries) {
  ConcurrentSkipListMap<CountedKey, int64_t, CountedKeyLess> M;
  runChurnCycles(M);
}

TEST(ConcurrentHashMapReclaim, ChurnFreesErasedEntries) {
  ConcurrentHashMap<CountedKey, int64_t, CountedKeyHash> M;
  runChurnCycles(M);
}

TEST(CowArrayMapStress, SnapshotScansAreAtomic) {
  // A writer alternates between two configurations that each hold an
  // invariant (both keys present with equal values); snapshot scans must
  // never observe a mixed state.
  CowArrayMap<int64_t, int64_t, IntLess> M;
  M.insertOrAssign(1, 0);
  M.insertOrAssign(2, 0);
  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    for (int64_t I = 1; I < 3000; ++I) {
      // Build the next snapshot in two writes; readers may see the
      // intermediate value for key 1 only in a *fresh* snapshot — but a
      // single scan must agree with itself (it reads one snapshot).
      M.insertOrAssign(1, I);
      M.insertOrAssign(2, I);
    }
    Stop.store(true, std::memory_order_release);
  });
  while (!Stop.load(std::memory_order_acquire)) {
    std::vector<std::pair<int64_t, int64_t>> Seen;
    M.scan([&](const int64_t &K, const int64_t &V) {
      Seen.push_back({K, V});
      return true;
    });
    ASSERT_EQ(Seen.size(), 2u);
    // Within one snapshot, key2's value never exceeds key1's.
    ASSERT_LE(Seen[1].second, Seen[0].second + 1);
  }
  Writer.join();
}

// ------------------------------------------------------- AnyContainer

TEST(AnyContainer, AllKindsBehaveAsMaps) {
  EpochDomain::Guard G;
  const InstanceLayout &Bare = InstanceLayout::get(0, {}, 0);
  for (ContainerKind Kind : AllContainerKinds) {
    std::unique_ptr<AnyContainer> C = AnyContainer::create(Kind, 1);
    ASSERT_EQ(C->kind(), Kind);
    Value K1 = Value::ofInt(1), K2 = Value::ofInt(2);
    NodeRef V1 = NodeInstance::create(Bare, nullptr);
    NodeRef V2 = NodeInstance::create(Bare, nullptr);

    EXPECT_TRUE(C->insertOrAssign(&K1, V1.get())) << containerKindName(Kind);
    // SingletonCell cannot hold a second distinct key; every other kind
    // can.
    if (Kind != ContainerKind::SingletonCell) {
      EXPECT_TRUE(C->insertOrAssign(&K2, V2.get()));
      EXPECT_EQ(C->size(), 2u);
    }
    EXPECT_EQ(C->lookup(&K1), V1.get());
    EXPECT_TRUE(C->erase(&K1));
    EXPECT_FALSE(C->erase(&K1));
    EXPECT_EQ(C->lookup(&K1), nullptr);
  }
}

TEST(AnyContainer, ScanVisitsEverything) {
  EpochDomain::Guard G;
  NodeRef V = NodeInstance::create(InstanceLayout::get(0, {}, 0), nullptr);
  for (ContainerKind Kind : AllContainerKinds) {
    if (Kind == ContainerKind::SingletonCell)
      continue;
    std::unique_ptr<AnyContainer> C = AnyContainer::create(Kind, 1);
    for (int64_t I = 0; I < 50; ++I) {
      Value K = Value::ofInt(I);
      C->insertOrAssign(&K, V.get());
    }
    size_t Seen = 0;
    C->scan([&](const Value *, NodeInstance *) {
      ++Seen;
      return true;
    });
    EXPECT_EQ(Seen, 50u) << containerKindName(Kind);
  }
}

} // namespace
