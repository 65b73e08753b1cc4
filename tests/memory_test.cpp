//===- tests/memory_test.cpp - Heap footprint and allocation budgets ----------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// What the runtime costs in heap: warm prepared queries allocate
/// nothing, a skip-list node is sized to its level, a physical lock is
/// one cache line, the bytes-by-layer
/// ledger (obs/MemoryLedger.h) accounts for the heap a fill allocates,
/// and a filled graph relation stays within a per-tuple budget. The
/// binary replaces the global operator new with a counting one; the
/// heap figures come from mallinfo2 and are skipped under sanitizers,
/// whose allocators glibc does not see.
///
//===----------------------------------------------------------------------===//

#include "autotune/Autotuner.h"
#include "containers/ConcurrentSkipListMap.h"
#include "runtime/PreparedOp.h"
#include "sync/Epoch.h"
#include "sync/PhysicalLock.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <malloc.h>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CRS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CRS_SANITIZED 1
#endif
#endif

namespace {
thread_local bool Counting = false;
thread_local uint64_t Allocs = 0;
thread_local uint64_t AllocBytes = 0;
} // namespace

void *operator new(std::size_t N) {
  if (Counting) {
    ++Allocs;
    AllocBytes += N;
  }
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

using namespace crs;

namespace {

/// Counts this thread's operator-new calls over its lifetime.
struct AllocCounter {
  AllocCounter() {
    Allocs = 0;
    AllocBytes = 0;
    Counting = true;
  }
  ~AllocCounter() { Counting = false; }
  uint64_t calls() const { return Allocs; }
  uint64_t bytes() const { return AllocBytes; }
};

/// The benchmark's representation: Split / Striped 1024 /
/// ConcurrentHashMap + ConcurrentSkipListMap.
RepresentationConfig benchConfig() {
  return makeGraphRepresentation(
      {GraphShape::Split, PlacementSchemeKind::Striped, 1024,
       ContainerKind::ConcurrentHashMap, ContainerKind::ConcurrentSkipListMap});
}

/// Binds (\p Src, \p Dst, \p Weight) into an insert handle.
void bindEdge(const PreparedInsert &Ins, const RelationSpec &Spec,
              int64_t Src, int64_t Dst, int64_t Weight) {
  for (unsigned I = 0; I < Ins.numSlots(); ++I) {
    ColumnId C = Ins.slotColumn(I);
    Ins.bind(I, Value::ofInt(C == Spec.col("src")   ? Src
                             : C == Spec.col("dst") ? Dst
                                                    : Weight));
  }
}

/// Inserts (s, (s + k) mod Nodes, s * 16 + k) for every s < Nodes and
/// k < Degree through one prepared handle.
void fillGraph(ConcurrentRelation &R, int64_t Nodes, int64_t Degree) {
  const RelationSpec &Spec = R.spec();
  PreparedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  for (int64_t S = 0; S < Nodes; ++S)
    for (int64_t K = 0; K < Degree; ++K) {
      bindEdge(Ins, Spec, S, (S + K) % Nodes, S * 16 + K);
      ASSERT_TRUE(Ins.execute());
    }
}

TEST(WarmOps, PreparedQueriesAllocateNothing) {
  ConcurrentRelation R(benchConfig());
  const RelationSpec &Spec = R.spec();
  constexpr int64_t Nodes = 1024, Degree = 8;
  fillGraph(R, Nodes, Degree);
  PreparedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  PreparedQuery Pred =
      R.prepareQuery(Spec.cols({"dst"}), Spec.cols({"src", "weight"}));
  ColumnId Weight = Spec.col("weight");
  int64_t Sum = 0;
  auto Visit = [&](const Tuple &T) { Sum += T.get(Weight).asInt(); };
  // First executions compile the plans and size the thread's arenas.
  Succ.bind(0, Value::ofInt(0)).forEach(Visit);
  Pred.bind(0, Value::ofInt(0)).forEach(Visit);

  uint32_t Rows = 0;
  uint64_t Calls;
  {
    AllocCounter C;
    for (int64_t N = 0; N < Nodes; ++N) {
      Rows += Succ.bind(0, Value::ofInt(N)).forEach(Visit);
      Rows += Pred.bind(0, Value::ofInt(N)).forEach(Visit);
    }
    Calls = C.calls();
  }
  EXPECT_EQ(Rows, uint32_t(2 * Nodes * Degree));
  EXPECT_EQ(Calls, 0u) << "warm prepared queries allocated " << Calls
                       << " times over " << 2 * Nodes << " calls";
}

TEST(SkipListMemory, NodesAreSizedToTheirLevel) {
  struct IntLess {
    bool operator()(int64_t A, int64_t B) const { return A < B; }
  };
  using Map = ConcurrentSkipListMap<int64_t, int64_t, IntLess>;
  Map M;
  constexpr int N = 4096;
  uint64_t Bytes;
  {
    EpochDomain::Guard G;
    AllocCounter C;
    for (int64_t K = 0; K < N; ++K)
      M.insertOrAssign(K, K);
    EXPECT_EQ(C.calls(), uint64_t(N));
    Bytes = C.bytes();
  }
  // Levels are geometric with p = 1/2: two links per node on average.
  // A node carrying all MaxLevel + 1 links would cost entryBytes(16).
  double Mean = double(Bytes) / N;
  EXPECT_GE(Mean, double(Map::entryBytes(0)));
  EXPECT_LE(Mean, double(Map::entryBytes(3)))
      << "nodes cost " << Mean << " B; a full-height node is "
      << Map::entryBytes(Map::MaxLevel) << " B";
}

/// A physical lock is the mutex plus the wait-die owner stamp, one cache
/// line (x86-64 glibc: a 56-B shared_mutex and an 8-B stamp); its
/// traffic is counted per relation, not on the lock.
TEST(LockMemory, PhysicalLockIsOneCacheLine) {
  EXPECT_EQ(sizeof(PhysicalLock), 64u);
}

#ifndef CRS_SANITIZED
/// Heap bytes glibc reports in use (arena chunks plus mmapped blocks).
size_t heapInUse() {
  struct mallinfo2 M = mallinfo2();
  return M.uordblks + M.hblkhd;
}

/// A relation with its plans compiled and 65,536 edges (8,192 nodes of
/// out-degree 8) inserted on this thread, and the heap growth and
/// ledger growth the fill caused.
struct Filled {
  ConcurrentRelation R;
  size_t HeapDelta = 0;
  uint64_t LedgerDelta = 0;
  obs::MemoryLedger Before, After;

  explicit Filled(RepresentationConfig Cfg) : R(std::move(Cfg)) {
    // Compile the insert plan on an edge outside the filled range, so
    // plan-cache allocations land before the baseline.
    const RelationSpec &Spec = R.spec();
    PreparedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
    bindEdge(Ins, Spec, 1 << 20, 1 << 20, 0);
    Ins.execute();
    EpochDomain::global().synchronize();
    Before = R.memoryLedger();
    size_t Heap0 = heapInUse();
    fillGraph(R, 8192, 8);
    HeapDelta = heapInUse() - Heap0;
    After = R.memoryLedger();
    LedgerDelta = After.total() - Before.total();
  }
};

/// One fill shared by the heap tests (it is the binary's heaviest work).
const Filled &filled() {
  static Filled F(benchConfig());
  return F;
}

TEST(MemoryLedger, AccountsForTheHeapAFillAllocates) {
  const Filled &F = filled();
  ASSERT_EQ(F.R.size(), 65537u);
  double Ratio = double(F.LedgerDelta) / double(F.HeapDelta);
  EXPECT_GE(Ratio, 0.9) << "ledger " << F.LedgerDelta << " B, heap "
                        << F.HeapDelta << " B";
  EXPECT_LE(Ratio, 1.1) << "ledger " << F.LedgerDelta << " B, heap "
                        << F.HeapDelta << " B";
  // Every layer the representation uses is populated.
  EXPECT_GT(F.After.Instances, F.Before.Instances);
  EXPECT_GT(F.After.Entries, F.Before.Entries);
  EXPECT_GT(F.After.Locks, F.Before.Locks);
  EXPECT_GT(F.After.Versions, F.Before.Versions);
  EXPECT_GT(F.After.Directories, F.Before.Directories);
}

/// The ledger reads the sequential containers' real bucket arrays too.
TEST(MemoryLedger, AccountsForACoarseHashMapAndTreeMapFill) {
  RepresentationConfig Cfg = makeGraphRepresentation(
      {GraphShape::Split, PlacementSchemeKind::Coarse, 1,
       ContainerKind::HashMap, ContainerKind::TreeMap});
  ASSERT_TRUE(Cfg.Decomp);
  Filled F(std::move(Cfg));
  double Ratio = double(F.LedgerDelta) / double(F.HeapDelta);
  EXPECT_GE(Ratio, 0.9) << "ledger " << F.LedgerDelta << " B, heap "
                        << F.HeapDelta << " B";
  EXPECT_LE(Ratio, 1.1) << "ledger " << F.LedgerDelta << " B, heap "
                        << F.HeapDelta << " B";
}

TEST(MemoryLedger, ExportsGaugesByLayer) {
  ConcurrentRelation R(benchConfig());
  fillGraph(R, 64, 4);
  obs::MetricsRegistry Reg;
  R.attachMetrics(Reg, "g");
  obs::MemoryLedger L = R.memoryLedger(); // publishes the gauges
  obs::MetricsSnapshot S = Reg.snapshot();
  uint64_t Sum = 0;
  unsigned Layers = 0;
  for (const auto &G : S.Gauges)
    if (G.Name == "relation.memory_bytes") {
      Sum += uint64_t(G.Value);
      ++Layers;
    }
  EXPECT_EQ(Layers, 5u);
  EXPECT_EQ(Sum, L.total());
  R.detachMetrics();
}

TEST(MemoryBudget, FilledGraphStaysUnderBudgetPerTuple) {
  const Filled &F = filled();
  double PerTuple = double(F.HeapDelta) / 65536.0;
  EXPECT_LE(PerTuple, 1500.0);
}
#endif

} // namespace
