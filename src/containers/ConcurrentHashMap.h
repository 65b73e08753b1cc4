//===- containers/ConcurrentHashMap.h - Concurrent hash map ----*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch bucket-locked concurrent hash map — the analogue of
/// java.util.concurrent.ConcurrentHashMap in the Figure 1 taxonomy:
/// lookups and writes are individually linearizable with no external
/// synchronization (each bucket is guarded by its own reader-writer
/// lock, and an operation's linearization point is inside its bucket
/// critical section); iteration is safe but only *weakly consistent* —
/// it walks buckets one at a time, so it may miss updates that happen
/// in buckets it has already passed.
///
/// The bucket count is fixed at construction (a power of two). This is
/// a deliberate deviation from the JDK container, which resizes: for
/// decomposition synthesis only the taxonomy properties matter, and a
/// fixed table keeps the concurrency argument trivially sound.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_CONCURRENTHASHMAP_H
#define CRS_CONTAINERS_CONCURRENTHASHMAP_H

#include "support/Compiler.h"

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

namespace crs {

/// Bucket-locked concurrent hash map. All operations are safe to call
/// from any number of threads concurrently.
template <typename K, typename V, typename HashFn> class ConcurrentHashMap {
  struct Node {
    K Key;
    V Val;
    Node *Next;
  };

  struct alignas(64) Bucket {
    mutable std::shared_mutex Mutex;
    Node *Head = nullptr;
  };

  std::vector<std::unique_ptr<Bucket[]>> Storage;
  Bucket *Buckets;
  size_t NumBuckets;
  std::atomic<size_t> NumEntries{0};
  HashFn Hasher;

  Bucket &bucketFor(const K &Key) const {
    return Buckets[Hasher(Key) & (NumBuckets - 1)];
  }

public:
  explicit ConcurrentHashMap(size_t BucketCount = 256)
      : NumBuckets(BucketCount) {
    assert((BucketCount & (BucketCount - 1)) == 0 &&
           "bucket count must be a power of two");
    Storage.push_back(std::make_unique<Bucket[]>(NumBuckets));
    Buckets = Storage.back().get();
  }

  ~ConcurrentHashMap() { clear(); }

  ConcurrentHashMap(const ConcurrentHashMap &) = delete;
  ConcurrentHashMap &operator=(const ConcurrentHashMap &) = delete;

  /// Linearizable lookup: returns true and sets \p Out if present.
  bool lookup(const K &Key, V &Out) const {
    Bucket &B = bucketFor(Key);
    std::shared_lock<std::shared_mutex> Guard(B.Mutex);
    for (Node *N = B.Head; N; N = N->Next)
      if (N->Key == Key) {
        Out = N->Val;
        return true;
      }
    return false;
  }

  bool contains(const K &Key) const {
    V Ignored;
    return lookup(Key, Ignored);
  }

  /// Linearizable insert-or-replace; returns true if newly inserted.
  bool insertOrAssign(const K &Key, V Val) {
    Bucket &B = bucketFor(Key);
    std::unique_lock<std::shared_mutex> Guard(B.Mutex);
    for (Node *N = B.Head; N; N = N->Next)
      if (N->Key == Key) {
        N->Val = std::move(Val);
        return false;
      }
    B.Head = new Node{Key, std::move(Val), B.Head};
    NumEntries.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Linearizable conditional insert (put-if-absent): inserts only if the
  /// key is absent; returns true on insert.
  bool insertIfAbsent(const K &Key, V Val) {
    Bucket &B = bucketFor(Key);
    std::unique_lock<std::shared_mutex> Guard(B.Mutex);
    for (Node *N = B.Head; N; N = N->Next)
      if (N->Key == Key)
        return false;
    B.Head = new Node{Key, std::move(Val), B.Head};
    NumEntries.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Linearizable removal; returns true if the key was present.
  bool erase(const K &Key) {
    Bucket &B = bucketFor(Key);
    std::unique_lock<std::shared_mutex> Guard(B.Mutex);
    Node **Link = &B.Head;
    while (*Link) {
      if ((*Link)->Key == Key) {
        Node *Dead = *Link;
        *Link = Dead->Next;
        delete Dead;
        NumEntries.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      Link = &(*Link)->Next;
    }
    return false;
  }

  /// Weakly consistent scan: safe in parallel with writes, but entries
  /// inserted or removed during the scan may or may not be observed. The
  /// visitor must not call back into this map (bucket lock is held).
  template <typename Fn> void scan(Fn Visit) const {
    for (size_t I = 0; I < NumBuckets; ++I) {
      Bucket &B = Buckets[I];
      std::shared_lock<std::shared_mutex> Guard(B.Mutex);
      for (Node *N = B.Head; N; N = N->Next)
        if (!Visit(static_cast<const K &>(N->Key),
                   static_cast<const V &>(N->Val)))
          return;
    }
  }

  size_t size() const { return NumEntries.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// Not thread-safe (destruction-time helper).
  void clear() {
    for (size_t I = 0; I < NumBuckets; ++I) {
      Node *N = Buckets[I].Head;
      while (N) {
        Node *Next = N->Next;
        delete N;
        N = Next;
      }
      Buckets[I].Head = nullptr;
    }
    NumEntries.store(0, std::memory_order_relaxed);
  }
};

} // namespace crs

#endif // CRS_CONTAINERS_CONCURRENTHASHMAP_H
