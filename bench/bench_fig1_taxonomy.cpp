//===- bench/bench_fig1_taxonomy.cpp - Figure 1 reproduction ------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 1 — the taxonomy of container concurrency-safety
/// and consistency — from the implemented container traits, and
/// *empirically validates* the concurrent cells: for every container
/// whose L/W and W/W cells claim safety, a two-thread probe hammers the
/// pair of operations and checks the final state; for weakly-consistent
/// scans, a probe demonstrates that a scan concurrent with inserts can
/// miss updates while a snapshot scan cannot tear.
///
//===----------------------------------------------------------------------===//

#include "containers/ConcurrentHashMap.h"
#include "containers/ConcurrentSkipListMap.h"
#include "containers/ContainerTraits.h"
#include "containers/CowArrayMap.h"
#include "support/Hashing.h"
#include "support/Table.h"
#include "sync/Epoch.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
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

/// Lookup/write + write/write probe: concurrent inserts on interleaved
/// keys with a racing reader; validates the final contents. Every
/// operation runs in its own epoch guard, the concurrent maps' contract.
template <typename Map> bool probeReadWrite(Map &M) {
  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    for (int64_t I = 0; I < 20000; ++I) {
      EpochDomain::Guard G;
      M.insertOrAssign(I % 512, I);
    }
  });
  std::thread Writer2([&] {
    for (int64_t I = 0; I < 20000; ++I) {
      EpochDomain::Guard G;
      M.insertOrAssign(512 + (I % 512), I);
    }
  });
  std::thread Reader([&] {
    int64_t Out;
    while (!Stop.load(std::memory_order_acquire)) {
      EpochDomain::Guard G;
      M.lookup(7, Out);
    }
  });
  Writer.join();
  Writer2.join();
  Stop.store(true, std::memory_order_release);
  Reader.join();
  return M.size() == 1024;
}

/// Scan/write probe. A writer inserts odd keys in one ascending pass and
/// removes them in one ascending pass, over and over. Any point-in-time
/// state therefore holds a *contiguous* run of odd keys (an ascending
/// prefix during inserts, an ascending suffix during removals). A scan
/// corresponding to a single instant — snapshot iteration — can thus
/// never observe a *gap*: odd keys k1 < k2 < k3 with k1, k3 seen and k2
/// not seen within the same scan. Weakly consistent iteration can.
/// Returns the number of scans that observed a gap.
template <typename Map> uint64_t probeWeakScan(Map &M) {
  for (int64_t I = 0; I < 2048; I += 2) {
    EpochDomain::Guard G;
    M.insertOrAssign(I, I); // even keys: fixed background
  }
  std::atomic<bool> Stop{false};
  uint64_t Anomalies = 0;
  std::thread Writer([&] {
    for (int64_t Round = 0; Round < 400; ++Round) {
      for (int64_t I = 1; I < 2048; I += 2) {
        EpochDomain::Guard G;
        M.insertOrAssign(I, I);
      }
      for (int64_t I = 1; I < 2048; I += 2) {
        EpochDomain::Guard G;
        M.erase(I);
      }
    }
    Stop.store(true, std::memory_order_release);
  });
  std::vector<int64_t> Odds;
  while (!Stop.load(std::memory_order_acquire)) {
    Odds.clear();
    EpochDomain::Guard G;
    M.scan([&](const int64_t &K, const int64_t &) {
      if (K % 2 == 1)
        Odds.push_back(K);
      return true;
    });
    std::sort(Odds.begin(), Odds.end());
    for (size_t I = 1; I < Odds.size(); ++I)
      if (Odds[I] - Odds[I - 1] > 2) { // a missing odd key in between
        ++Anomalies;
        break;
      }
  }
  Writer.join();
  return Anomalies;
}

std::string cell(PairSafety S) { return pairSafetyName(S); }

} // namespace

int main() {
  std::printf("=== Figure 1: concurrency safety of the container "
              "taxonomy ===\n\n");

  Table T({"Data Structure", "L/L,L/S,S/S", "L/W", "S/W", "W/W",
           "sorted scan"});
  for (ContainerKind K : AllContainerKinds) {
    if (K == ContainerKind::SingletonCell)
      continue; // dotted edges; not part of the paper's table
    ContainerTraits Tr = containerTraits(K);
    T.addRow({containerKindName(K), cell(Tr.LookupLookup),
              cell(Tr.LookupWrite), cell(Tr.ScanWrite), cell(Tr.WriteWrite),
              Tr.SortedScan ? "yes" : "no"});
  }
  T.print(std::cout);

  std::printf("\n--- empirical validation of the concurrent rows ---\n");
  {
    ConcurrentHashMap<int64_t, int64_t, IntHash> M;
    std::printf("ConcurrentHashMap     L/W + W/W probe: %s\n",
                probeReadWrite(M) ? "consistent" : "CORRUPTED");
  }
  {
    ConcurrentSkipListMap<int64_t, int64_t, IntLess> M;
    std::printf("ConcurrentSkipListMap L/W + W/W probe: %s\n",
                probeReadWrite(M) ? "consistent" : "CORRUPTED");
  }
  {
    CowArrayMap<int64_t, int64_t, IntLess> M;
    std::printf("CowArrayMap           L/W + W/W probe: %s\n",
                probeReadWrite(M) ? "consistent" : "CORRUPTED");
  }
  {
    ConcurrentHashMap<int64_t, int64_t, IntHash> M;
    uint64_t A = probeWeakScan(M);
    std::printf("ConcurrentHashMap     scan consistency: %llu anomalies "
                "(weakly consistent: anomalies expected under load)\n",
                static_cast<unsigned long long>(A));
  }
  {
    CowArrayMap<int64_t, int64_t, IntLess> M;
    uint64_t A = probeWeakScan(M);
    std::printf("CowArrayMap           scan consistency: %llu anomalies "
                "(snapshot iteration: must be 0)\n",
                static_cast<unsigned long long>(A));
    if (A != 0)
      return 1;
  }
  return 0;
}
