//===- containers/SingletonCell.h - Single-entry container ----*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The container behind the paper's dotted edges (Figures 2 and 3): when
/// the source node's key columns functionally determine an edge's columns,
/// the edge's "container" holds at most one entry — a singleton tuple.
///
/// The cell is a single-writer/multi-reader atomic: the entry lives
/// behind one atomic pointer, writes publish a freshly built entry with
/// a seq_cst store, and displaced entries are retired through the
/// global epoch domain rather than freed (sync/Epoch.h) — so unlocked
/// readers inside an epoch guard (the wait-free read fast path, and
/// every locked operation too) can race a writer without tearing and
/// without use-after-free. Lookup and scan are therefore linearizable
/// against a concurrent write, like the concurrent maps' — what stays
/// weak is write/write: racing writers lose updates, so mutations must
/// still be serialized externally (the synthesized plans' exclusive
/// locks do exactly that).
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_SINGLETONCELL_H
#define CRS_CONTAINERS_SINGLETONCELL_H

#include "support/Compiler.h"
#include "sync/Epoch.h"

#include <atomic>
#include <cassert>
#include <utility>

namespace crs {

/// A map holding at most one (key, value) entry.
template <typename K, typename V> class SingletonCell {
  struct Entry {
    K Key;
    V Val;
  };
  std::atomic<Entry *> E{nullptr};

public:
  SingletonCell() = default;
  SingletonCell(const SingletonCell &) = delete;
  SingletonCell &operator=(const SingletonCell &) = delete;

  ~SingletonCell() {
    // Destruction implies quiescence; anything already retired is owned
    // by the epoch domain.
    delete E.load(std::memory_order_relaxed);
  }

  /// The value at \p Key, or null; valid until the caller's guard exits.
  const V *find(const K &Key) const {
    const Entry *P = E.load(std::memory_order_acquire);
    return P && P->Key == Key ? &P->Val : nullptr;
  }

  bool lookup(const K &Key, V &Out) const {
    const V *P = find(Key);
    if (P)
      Out = *P;
    return P;
  }

  bool contains(const K &Key) const {
    const Entry *P = E.load(std::memory_order_acquire);
    return P && P->Key == Key;
  }

  /// Inserts or replaces. Writing a *different* key while one is present
  /// violates the functional dependency that justified the singleton edge
  /// and is rejected by assertion. Writers must be externally serialized
  /// (write/write is the one unserialized pair the cell does not handle).
  bool insertOrAssign(const K &Key, V Val) {
    Entry *Old = E.load(std::memory_order_relaxed);
    // Build fully, then publish: a concurrent reader sees the old entry,
    // the new entry, or nothing — never a half-written one. seq_cst is
    // the epoch layer's unpublish/publish contract (sync/Epoch.h).
    E.store(new Entry{Key, std::move(Val)}, std::memory_order_seq_cst);
    if (Old) {
      assert(Old->Key == Key &&
             "singleton cell already holds a different key (FD violation)");
      EpochDomain::global().retireObject(Old);
      return false;
    }
    return true;
  }

  bool erase(const K &Key) {
    Entry *Old = E.load(std::memory_order_relaxed);
    if (!Old || !(Old->Key == Key))
      return false;
    E.store(nullptr, std::memory_order_seq_cst); // unpublish, then retire
    EpochDomain::global().retireObject(Old);
    return true;
  }

  template <typename Fn> void scan(Fn Visit) const {
    if (const Entry *P = E.load(std::memory_order_acquire))
      Visit(static_cast<const K &>(P->Key), static_cast<const V &>(P->Val));
  }

  size_t size() const {
    return E.load(std::memory_order_acquire) ? 1 : 0;
  }
  bool empty() const { return !E.load(std::memory_order_acquire); }

  /// Heap bytes of the entry.
  static constexpr size_t entryBytes() { return sizeof(Entry); }
};

} // namespace crs

#endif // CRS_CONTAINERS_SINGLETONCELL_H
