//===- baseline/HandcodedGraph.cpp - Hand-written baseline --------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "baseline/HandcodedGraph.h"

using namespace crs;

bool HandcodedGraph::find(const TopLevel &Map, int64_t Key, AdjPtr &Out) {
  EpochDomain::Guard EG;
  return Map.lookup(Key, Out);
}

HandcodedGraph::AdjPtr HandcodedGraph::getOrCreate(TopLevel &Map,
                                                   int64_t Key) {
  EpochDomain::Guard EG;
  AdjPtr Adj;
  if (Map.lookup(Key, Adj))
    return Adj;
  Adj = std::make_shared<Adjacency>();
  Map.insertIfAbsent(Key, Adj);
  // Another thread may have won the race; reload the canonical value.
  AdjPtr Canonical;
  [[maybe_unused]] bool Found = Map.lookup(Key, Canonical);
  assert(Found && "adjacency vanished during creation (no removal path)");
  return Canonical;
}

bool HandcodedGraph::insertEdge(int64_t Src, int64_t Dst, int64_t Weight) {
  AdjPtr Fwd = getOrCreate(Forward, Src);
  AdjPtr Rev = getOrCreate(Reverse, Dst);
  // Fixed forward-before-reverse lock order: the two top-level maps are
  // disjoint lock namespaces, so this discipline is deadlock-free.
  std::scoped_lock Guard(Fwd->Mutex, Rev->Mutex);
  if (Fwd->Entries.contains(Dst))
    return false; // preserve src,dst -> weight
  Fwd->Entries.insertOrAssign(Dst, Weight);
  Rev->Entries.insertOrAssign(Src, Weight);
  Count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool HandcodedGraph::removeEdge(int64_t Src, int64_t Dst) {
  AdjPtr Fwd, Rev;
  if (!find(Forward, Src, Fwd) || !find(Reverse, Dst, Rev))
    return false;
  std::scoped_lock Guard(Fwd->Mutex, Rev->Mutex);
  if (!Fwd->Entries.erase(Dst))
    return false;
  Rev->Entries.erase(Src);
  Count.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::vector<std::pair<int64_t, int64_t>>
HandcodedGraph::successors(int64_t Src) const {
  std::vector<std::pair<int64_t, int64_t>> Out;
  AdjPtr Adj;
  if (!find(Forward, Src, Adj))
    return Out;
  std::lock_guard<std::mutex> Guard(Adj->Mutex);
  Adj->Entries.scan([&](const int64_t &Dst, const int64_t &Weight) {
    Out.push_back({Dst, Weight});
    return true;
  });
  return Out;
}

std::vector<std::pair<int64_t, int64_t>>
HandcodedGraph::predecessors(int64_t Dst) const {
  std::vector<std::pair<int64_t, int64_t>> Out;
  AdjPtr Adj;
  if (!find(Reverse, Dst, Adj))
    return Out;
  std::lock_guard<std::mutex> Guard(Adj->Mutex);
  Adj->Entries.scan([&](const int64_t &Src, const int64_t &Weight) {
    Out.push_back({Src, Weight});
    return true;
  });
  return Out;
}

bool HandcodedGraph::lookupWeight(int64_t Src, int64_t Dst,
                                  int64_t &Weight) const {
  AdjPtr Adj;
  if (!find(Forward, Src, Adj))
    return false;
  std::lock_guard<std::mutex> Guard(Adj->Mutex);
  return Adj->Entries.lookup(Dst, Weight);
}
