//===- containers/CowArrayMap.h - Copy-on-write array map -----*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch copy-on-write associative array — the analogue of
/// java.util.concurrent.CopyOnWriteArrayList in the Figure 1 taxonomy:
/// every operation pair is safe, and — uniquely among the concurrent
/// containers — iteration is *snapshot* (fully linearizable): a scan runs
/// over an immutable array published at a single instant. Writes copy the
/// whole array, so the container suits read-mostly edges.
///
/// The snapshot array is kept sorted, so scans are in key order and
/// lookups are binary searches.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_COWARRAYMAP_H
#define CRS_CONTAINERS_COWARRAYMAP_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace crs {

/// Copy-on-write sorted array map.
template <typename K, typename V, typename LessFn> class CowArrayMap {
  using Snapshot = std::vector<std::pair<K, V>>;

  // Writers serialize on Mutex; readers atomically load the current
  // snapshot and work on it lock-free.
  mutable std::mutex WriteMutex;
  std::shared_ptr<const Snapshot> Current{std::make_shared<Snapshot>()};
  LessFn Less;

  std::shared_ptr<const Snapshot> load() const {
    return std::atomic_load_explicit(&Current, std::memory_order_acquire);
  }

  void publish(std::shared_ptr<const Snapshot> S) {
    std::atomic_store_explicit(&Current, std::move(S),
                               std::memory_order_release);
  }

  typename Snapshot::const_iterator find(const Snapshot &S,
                                         const K &Key) const {
    auto It = std::lower_bound(
        S.begin(), S.end(), Key,
        [this](const std::pair<K, V> &E, const K &Target) {
          return Less(E.first, Target);
        });
    if (It != S.end() && !Less(Key, It->first))
      return It;
    return S.end();
  }

public:
  CowArrayMap() = default;
  CowArrayMap(const CowArrayMap &) = delete;
  CowArrayMap &operator=(const CowArrayMap &) = delete;

  /// Linearizable lookup (binary search over the current snapshot).
  bool lookup(const K &Key, V &Out) const {
    auto S = load();
    auto It = find(*S, Key);
    if (It == S->end())
      return false;
    Out = It->second;
    return true;
  }

  bool contains(const K &Key) const {
    V Ignored;
    return lookup(Key, Ignored);
  }

  /// Insert-or-replace by copying the array; returns true if newly
  /// inserted.
  bool insertOrAssign(const K &Key, V Val) {
    std::lock_guard<std::mutex> Guard(WriteMutex);
    auto Old = load();
    auto New = std::make_shared<Snapshot>(*Old);
    auto It = std::lower_bound(
        New->begin(), New->end(), Key,
        [this](const std::pair<K, V> &E, const K &Target) {
          return Less(E.first, Target);
        });
    bool Inserted;
    if (It != New->end() && !Less(Key, It->first)) {
      It->second = std::move(Val);
      Inserted = false;
    } else {
      New->insert(It, {Key, std::move(Val)});
      Inserted = true;
    }
    publish(std::move(New));
    return Inserted;
  }

  /// Removal by copying the array; returns true if the key was present.
  bool erase(const K &Key) {
    std::lock_guard<std::mutex> Guard(WriteMutex);
    auto Old = load();
    auto It = find(*Old, Key);
    if (It == Old->end())
      return false;
    auto New = std::make_shared<Snapshot>();
    New->reserve(Old->size() - 1);
    for (auto I = Old->begin(); I != Old->end(); ++I)
      if (I != It)
        New->push_back(*I);
    publish(std::move(New));
    return true;
  }

  /// Snapshot scan in sorted key order: iterates an immutable snapshot,
  /// fully linearizable with respect to writes.
  template <typename Fn> void scan(Fn Visit) const {
    auto S = load();
    for (const auto &[Key, Val] : *S)
      if (!Visit(Key, Val))
        return;
  }

  size_t size() const { return load()->size(); }
  bool empty() const { return size() == 0; }
  /// Entries the current snapshot's array has room for.
  size_t capacity() const { return load()->capacity(); }

  /// Bytes of one entry in the current snapshot array.
  static constexpr size_t entryBytes() { return sizeof(std::pair<K, V>); }
};

} // namespace crs

#endif // CRS_CONTAINERS_COWARRAYMAP_H
