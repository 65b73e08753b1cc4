//===- bench/bench_container_micro.cpp - Container micro-benchmarks -----------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// Raw operation costs of the container substrate — the numbers behind
/// the planner's cost model (plan/CostModel.h): hash vs ordered lookup,
/// insert/erase, and full scans, for each Figure 1 container kind, at
/// several sizes. Run with --benchmark_filter=... to focus.
///
//===----------------------------------------------------------------------===//

#include "containers/ConcurrentHashMap.h"
#include "containers/ConcurrentSkipListMap.h"
#include "containers/CowArrayMap.h"
#include "containers/HashMap.h"
#include "containers/TreeMap.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "sync/Epoch.h"

#include <benchmark/benchmark.h>

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

// Every operation runs in its own epoch guard, the concurrent maps'
// contract (the sequential maps ignore it), so guard entry is timed too.
template <typename Map> void fill(Map &M, int64_t N) {
  for (int64_t I = 0; I < N; ++I) {
    EpochDomain::Guard G;
    M.insertOrAssign(I, I);
  }
}

template <typename Map> void benchLookup(benchmark::State &State) {
  Map M;
  int64_t N = State.range(0);
  fill(M, N);
  Xoshiro256 Rng(7);
  int64_t Out;
  for (auto _ : State) {
    EpochDomain::Guard G;
    benchmark::DoNotOptimize(
        M.lookup(static_cast<int64_t>(Rng.nextBounded(N)), Out));
  }
}

template <typename Map> void benchInsertErase(benchmark::State &State) {
  Map M;
  int64_t N = State.range(0);
  fill(M, N);
  Xoshiro256 Rng(8);
  for (auto _ : State) {
    EpochDomain::Guard G;
    int64_t K = N + static_cast<int64_t>(Rng.nextBounded(64));
    M.insertOrAssign(K, K);
    M.erase(K);
  }
}

template <typename Map> void benchScan(benchmark::State &State) {
  Map M;
  fill(M, State.range(0));
  for (auto _ : State) {
    EpochDomain::Guard G;
    int64_t Sum = 0;
    M.scan([&](const int64_t &K, const int64_t &) {
      Sum += K;
      return true;
    });
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

using HM = HashMap<int64_t, int64_t, IntHash>;
using TM = TreeMap<int64_t, int64_t, IntLess>;
using CHM = ConcurrentHashMap<int64_t, int64_t, IntHash>;
using CSL = ConcurrentSkipListMap<int64_t, int64_t, IntLess>;
using COW = CowArrayMap<int64_t, int64_t, IntLess>;

void BM_Lookup_HashMap(benchmark::State &S) { benchLookup<HM>(S); }
void BM_Lookup_TreeMap(benchmark::State &S) { benchLookup<TM>(S); }
void BM_Lookup_ConcurrentHashMap(benchmark::State &S) { benchLookup<CHM>(S); }
void BM_Lookup_ConcurrentSkipList(benchmark::State &S) { benchLookup<CSL>(S); }
void BM_Lookup_CowArrayMap(benchmark::State &S) { benchLookup<COW>(S); }

void BM_Update_HashMap(benchmark::State &S) { benchInsertErase<HM>(S); }
void BM_Update_TreeMap(benchmark::State &S) { benchInsertErase<TM>(S); }
void BM_Update_ConcurrentHashMap(benchmark::State &S) {
  benchInsertErase<CHM>(S);
}
void BM_Update_ConcurrentSkipList(benchmark::State &S) {
  benchInsertErase<CSL>(S);
}
void BM_Update_CowArrayMap(benchmark::State &S) { benchInsertErase<COW>(S); }

void BM_Scan_HashMap(benchmark::State &S) { benchScan<HM>(S); }
void BM_Scan_TreeMap(benchmark::State &S) { benchScan<TM>(S); }
void BM_Scan_ConcurrentHashMap(benchmark::State &S) { benchScan<CHM>(S); }
void BM_Scan_ConcurrentSkipList(benchmark::State &S) { benchScan<CSL>(S); }
void BM_Scan_CowArrayMap(benchmark::State &S) { benchScan<COW>(S); }

#define CRS_SIZES RangeMultiplier(16)->Range(16, 4096)

BENCHMARK(BM_Lookup_HashMap)->CRS_SIZES;
BENCHMARK(BM_Lookup_TreeMap)->CRS_SIZES;
BENCHMARK(BM_Lookup_ConcurrentHashMap)->CRS_SIZES;
BENCHMARK(BM_Lookup_ConcurrentSkipList)->CRS_SIZES;
BENCHMARK(BM_Lookup_CowArrayMap)->CRS_SIZES;
BENCHMARK(BM_Update_HashMap)->CRS_SIZES;
BENCHMARK(BM_Update_TreeMap)->CRS_SIZES;
BENCHMARK(BM_Update_ConcurrentHashMap)->CRS_SIZES;
BENCHMARK(BM_Update_ConcurrentSkipList)->CRS_SIZES;
// CowArrayMap updates are O(n) copies — measure but cap the size.
BENCHMARK(BM_Update_CowArrayMap)->RangeMultiplier(16)->Range(16, 256);
BENCHMARK(BM_Scan_HashMap)->CRS_SIZES;
BENCHMARK(BM_Scan_TreeMap)->CRS_SIZES;
BENCHMARK(BM_Scan_ConcurrentHashMap)->CRS_SIZES;
BENCHMARK(BM_Scan_ConcurrentSkipList)->CRS_SIZES;
BENCHMARK(BM_Scan_CowArrayMap)->CRS_SIZES;

} // namespace

BENCHMARK_MAIN();
