//===- containers/ConcurrentHashMap.h - Concurrent hash map ----*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analogue of java.util.concurrent.ConcurrentHashMap in the
/// Figure 1 taxonomy, built on the library's one concurrent hash table
/// (containers/GrowableHashTable.h):
///
///  * **Growth.** The table starts at its minimum size and doubles
///    whenever its entries average more than two per bucket, so there
///    is no bucket count to choose and a lookup walks about two nodes.
///  * **Reads take no lock.** Lookups and scans walk the bucket lists
///    inside the caller's epoch guard. Writers take the lock stripe
///    covering the key's hash; erase unlinks the node and retires it
///    through EpochDomain::global(), and an assign of a new value links
///    a fresh node in the old one's place (one store) and retires the
///    old one, so a reader never sees a value written in place.
///  * **Figure 1 traits.** Lookups and writes are linearizable: a
///    point operation takes effect at its one store or load of the
///    bucket link. Iteration is weakly consistent: it walks one bucket
///    at a time, sees every entry present for the whole scan, and may
///    or may not see entries inserted or erased meanwhile.
///
/// **Guard contract** (SingletonCell's): every operation but size() and
/// buckets() runs inside an EpochDomain::global() guard; debug builds
/// assert it. Every plan execution already holds one.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_CONCURRENTHASHMAP_H
#define CRS_CONTAINERS_CONCURRENTHASHMAP_H

#include "containers/GrowableHashTable.h"
#include "support/Compiler.h"
#include "sync/Epoch.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>

namespace crs {

/// Growable concurrent hash map with lock-free reads. All operations
/// are safe to call from any number of threads concurrently, inside an
/// epoch guard.
template <typename K, typename V, typename HashFn> class ConcurrentHashMap {
  struct Node : GrowableHashLinks<Node> {
    uint64_t Hash;
    K Key;
    V Val; ///< immutable once linked
    Node(uint64_t Hash, const K &Key, V Val)
        : Hash(Hash), Key(Key), Val(std::move(Val)) {}
  };

  GrowableHashTable<Node> Table;
  std::atomic<size_t> NumEntries{0};
  HashFn Hasher;

  static void assertGuarded() {
    assert(EpochDomain::global().inGuard() &&
           "ConcurrentHashMap reads epoch-reclaimed nodes; pin a guard first");
  }

  const Node *findNode(const K &Key, uint64_t H) const {
    return Table.find(
        H, [&](const Node *N) { return N->Hash == H && N->Key == Key; });
  }

  /// Inserts \p Key when absent; otherwise, if \p Assign and \p Val
  /// differs from the present value, links a fresh node in the old one's
  /// place. Returns true on insert.
  bool put(const K &Key, V Val, bool Assign) {
    assertGuarded();
    uint64_t H = Hasher(Key);
    Node *Replaced = nullptr;
    bool Grow = false;
    {
      std::lock_guard<std::mutex> G(Table.stripe(H));
      if (const Node *Old = findNode(Key, H)) {
        if (!Assign || Old->Val == Val)
          return false;
        Replaced = Table.unlinkIf(
            H, [Old](const Node *N) { return N == Old; },
            new Node(H, Key, std::move(Val)));
      } else {
        Grow = Table.push(new Node(H, Key, std::move(Val)), H);
        NumEntries.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (Replaced) {
      EpochDomain::global().retireObject(Replaced);
      return false;
    }
    if (Grow) {
      size_t Moved;
      Table.grow([](const Node *N) { return N->Hash; }, Moved);
    }
    return true;
  }

public:
  ConcurrentHashMap() = default;

  ~ConcurrentHashMap() {
    // Destruction implies quiescence; anything already retired is owned
    // by the epoch domain.
    Table.forEach([](Node *N) {
      delete N;
      return true;
    });
  }

  ConcurrentHashMap(const ConcurrentHashMap &) = delete;
  ConcurrentHashMap &operator=(const ConcurrentHashMap &) = delete;

  /// Linearizable lookup: the value at \p Key, or null; valid until the
  /// caller's guard exits.
  const V *find(const K &Key) const {
    assertGuarded();
    const Node *N = findNode(Key, Hasher(Key));
    return N ? &N->Val : nullptr;
  }

  /// Linearizable lookup: returns true and sets \p Out if present.
  bool lookup(const K &Key, V &Out) const {
    const V *P = find(Key);
    if (P)
      Out = *P;
    return P;
  }

  /// Linearizable insert-or-replace; returns true if newly inserted.
  bool insertOrAssign(const K &Key, V Val) {
    return put(Key, std::move(Val), /*Assign=*/true);
  }

  /// Linearizable conditional insert (put-if-absent): inserts only if the
  /// key is absent; returns true on insert.
  bool insertIfAbsent(const K &Key, V Val) {
    return put(Key, std::move(Val), /*Assign=*/false);
  }

  /// Linearizable removal; returns true if the key was present.
  bool erase(const K &Key) {
    assertGuarded();
    uint64_t H = Hasher(Key);
    Node *Dead;
    {
      std::lock_guard<std::mutex> G(Table.stripe(H));
      Dead = Table.unlinkIf(
          H, [&](const Node *N) { return N->Hash == H && N->Key == Key; });
      if (!Dead)
        return false;
      NumEntries.fetch_sub(1, std::memory_order_relaxed);
    }
    EpochDomain::global().retireObject(Dead);
    return true;
  }

  /// Weakly consistent scan: safe in parallel with writes, but entries
  /// inserted or removed during the scan may or may not be observed.
  /// The visitor returns false to stop early.
  template <typename Fn> void scan(Fn Visit) const {
    assertGuarded();
    Table.forEach([&](const Node *N) {
      return Visit(static_cast<const K &>(N->Key),
                   static_cast<const V &>(N->Val));
    });
  }

  size_t size() const { return NumEntries.load(std::memory_order_relaxed); }
  /// Buckets in the current head array (grows with the entries).
  size_t buckets() const { return Table.buckets(); }

  /// Heap bytes of one entry's node.
  static constexpr size_t entryBytes() { return sizeof(Node); }
};

} // namespace crs

#endif // CRS_CONTAINERS_CONCURRENTHASHMAP_H
