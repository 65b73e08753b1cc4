//===- containers/ConcurrentSkipListMap.h - Lazy skip list -----*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch concurrent ordered map — the analogue of
/// java.util.concurrent.ConcurrentSkipListMap in the Figure 1 taxonomy.
/// The algorithm is the lazy lock-based skip list of Herlihy, Lev,
/// Luchangco and Shavit, "A provably correct scalable concurrent skip
/// list" (OPODIS 2006) — reference [14] of the paper, the same algorithm
/// family the paper's benchmark methodology comes from:
///
///  * nodes carry a per-node lock, a `Marked` flag (logical deletion),
///    and a `FullyLinked` flag (insertion visibility);
///  * lookups, scans and traversals take no lock; inserts lock the
///    predecessors at every level and validate; removes mark the victim
///    first (the linearization point), then unlink;
///  * lookups and writes are linearizable; iteration over level 0 is
///    safe but weakly consistent, in sorted key order;
///  * a node is allocated with the TopLevel + 1 links its level uses
///    (two on average), and the list ends at a null link rather than a
///    tail sentinel.
///
/// A linked node's value is immutable. An assign to an existing key does
/// nothing for the same value; otherwise it links a fresh node with the
/// same levels in the old one's place, top level first (where lookups
/// take effect), and marks the old one `Replaced` as well as `Marked`:
/// readers still on it report its value, so the key never reads absent.
/// Erased and displaced nodes are retired through EpochDomain::global()
/// — the JVM original relies on its garbage collector — and freed once
/// no reader can be on them.
///
/// **Guard contract** (SingletonCell's): every operation but size() runs
/// inside an EpochDomain::global() guard; debug builds assert it. Every
/// plan execution already holds one.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_CONCURRENTSKIPLISTMAP_H
#define CRS_CONTAINERS_CONCURRENTSKIPLISTMAP_H

#include "support/Compiler.h"
#include "sync/Backoff.h"
#include "sync/Epoch.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <new>
#include <utility>

namespace crs {

/// Lazy lock-based concurrent skip list map with lock-free reads.
template <typename K, typename V, typename LessFn>
class ConcurrentSkipListMap {
public:
  static constexpr int MaxLevel = 16; // levels 0..MaxLevel

private:
  /// A node and, in the same allocation, its TopLevel + 1 links. The
  /// links follow the node's fields and are addressed by pointer
  /// arithmetic, so a node costs the levels it uses, not MaxLevel + 1.
  struct Node {
    K Key;
    V Val; ///< immutable once linked
    std::mutex Lock;
    std::atomic<bool> Marked{false};
    /// Set before Marked when the node is displaced by an assign rather
    /// than erased: the key stays present through the replacement.
    std::atomic<bool> Replaced{false};
    std::atomic<bool> FullyLinked{false};
    int TopLevel;

    Node(int TopLevel, const K &Key, V Val)
        : Key(Key), Val(std::move(Val)), TopLevel(TopLevel) {}
    // Head sentinel: no key or value.
    explicit Node(int TopLevel) : Key(), Val(), TopLevel(TopLevel) {}

    std::atomic<Node *> *nexts() {
      return reinterpret_cast<std::atomic<Node *> *>(
          reinterpret_cast<char *>(this) + sizeof(Node));
    }
    const std::atomic<Node *> *nexts() const {
      return const_cast<Node *>(this)->nexts();
    }

    /// Bytes of a node with links at levels 0..\p TopLevel.
    static size_t bytes(int TopLevel) {
      return sizeof(Node) + size_t(TopLevel + 1) * sizeof(std::atomic<Node *>);
    }

    template <typename... Args> static Node *make(int TopLevel, Args &&...A) {
      void *Mem = ::operator new(bytes(TopLevel));
      Node *N;
      try {
        N = new (Mem) Node(TopLevel, std::forward<Args>(A)...);
      } catch (...) {
        ::operator delete(Mem);
        throw;
      }
      for (int L = 0; L <= TopLevel; ++L)
        new (&N->nexts()[L]) std::atomic<Node *>(nullptr);
      return N;
    }

    static void destroy(void *P) {
      Node *N = static_cast<Node *>(P);
      N->~Node();
      ::operator delete(N);
    }
  };
  static_assert(sizeof(Node) % alignof(std::atomic<Node *>) == 0,
                "links must start aligned after the node's fields");

  Node *Head; // -inf sentinel; the list ends at a null link (+inf)
  std::atomic<size_t> NumEntries{0};
  LessFn Less;

  static void assertGuarded() {
    assert(EpochDomain::global().inGuard() &&
           "ConcurrentSkipListMap reads epoch-reclaimed nodes; pin a guard "
           "first");
  }

  /// True if a reader on \p N may report its entry: linked, and either
  /// live or displaced by an assign (see the file comment).
  static bool readable(const Node *N) {
    return N->FullyLinked.load(std::memory_order_acquire) &&
           (!N->Marked.load(std::memory_order_acquire) ||
            N->Replaced.load(std::memory_order_acquire));
  }

  bool nodeLess(const Node *N, const K &Key) const {
    if (N == Head)
      return true;
    if (!N)
      return false;
    return Less(N->Key, Key);
  }

  bool keyEquals(const Node *N, const K &Key) const {
    if (N == Head || !N)
      return false;
    return !Less(N->Key, Key) && !Less(Key, N->Key);
  }

  /// Finds predecessors and successors of \p Key at every level. Returns
  /// the highest level at which a node with the key was found, or -1.
  int findNode(const K &Key, Node **Preds, Node **Succs) const {
    int Found = -1;
    Node *Pred = Head;
    for (int Level = MaxLevel; Level >= 0; --Level) {
      Node *Curr = Pred->nexts()[Level].load(std::memory_order_acquire);
      while (nodeLess(Curr, Key)) {
        Pred = Curr;
        Curr = Pred->nexts()[Level].load(std::memory_order_acquire);
      }
      if (Found == -1 && keyEquals(Curr, Key))
        Found = Level;
      Preds[Level] = Pred;
      Succs[Level] = Curr;
    }
    return Found;
  }

  static int randomLevel() {
    // Thread-local xorshift; geometric distribution with p = 1/2.
    thread_local uint64_t State = 0x9e3779b97f4a7c15ULL ^
                                  reinterpret_cast<uintptr_t>(&State);
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    int Level = __builtin_ctzll(State | (1ULL << MaxLevel));
    return Level > MaxLevel ? MaxLevel : Level;
  }

  /// Unlocks the distinct predecessors at levels 0..\p Top.
  static void unlockPreds(Node *const *Preds, int Top) {
    Node *Prev = nullptr;
    for (int L = 0; L <= Top; ++L)
      if (Preds[L] != Prev) {
        Preds[L]->Lock.unlock();
        Prev = Preds[L];
      }
  }

  /// Locks the distinct predecessors at levels 0..\p Top bottom-up,
  /// checking \p Valid(L) at each level; on a failed check unlocks them
  /// and returns false.
  template <typename F>
  static bool lockPreds(Node *const *Preds, int Top, F Valid) {
    Node *Prev = nullptr;
    for (int L = 0; L <= Top; ++L) {
      if (Preds[L] != Prev) {
        Preds[L]->Lock.lock();
        Prev = Preds[L];
      }
      if (!Valid(L)) {
        unlockPreds(Preds, L);
        return false;
      }
    }
    return true;
  }

  /// Unlinks \p Victim (a fully linked node holding \p Key) and retires
  /// it; given \p Fresh — an unpublished node with the same key and
  /// levels — links it in the victim's place. Returns false if another
  /// writer marked the victim first.
  bool unlink(const K &Key, Node *Victim, Node *Fresh) {
    Victim->Lock.lock();
    if (Victim->Marked.load(std::memory_order_relaxed)) {
      Victim->Lock.unlock();
      return false;
    }
    if (Fresh)
      Victim->Replaced.store(true, std::memory_order_relaxed);
    Victim->Marked.store(true, std::memory_order_release);
    int Top = Victim->TopLevel;
    Node *Preds[MaxLevel + 1];
    Node *Succs[MaxLevel + 1];
    do
      findNode(Key, Preds, Succs);
    while (!lockPreds(Preds, Top, [&](int L) {
      return !Preds[L]->Marked.load(std::memory_order_relaxed) &&
             Preds[L]->nexts()[L].load(std::memory_order_relaxed) == Victim;
    }));
    // The victim's links are frozen: writers next to it validate it
    // unmarked under its lock.
    if (Fresh) {
      for (int L = 0; L <= Top; ++L)
        Fresh->nexts()[L].store(
            Victim->nexts()[L].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      Fresh->FullyLinked.store(true, std::memory_order_relaxed);
    } else {
      NumEntries.fetch_sub(1, std::memory_order_relaxed);
    }
    for (int L = Top; L >= 0; --L)
      Preds[L]->nexts()[L].store(
          Fresh ? Fresh : Victim->nexts()[L].load(std::memory_order_relaxed),
          std::memory_order_release);
    Victim->Lock.unlock();
    unlockPreds(Preds, Top);
    EpochDomain::global().retire(Victim, &Node::destroy);
    return true;
  }

public:
  ConcurrentSkipListMap() {
    Head = Node::make(MaxLevel);
    Head->FullyLinked.store(true, std::memory_order_relaxed);
  }

  ~ConcurrentSkipListMap() {
    // Destruction implies quiescence; anything already retired is owned
    // by the epoch domain.
    Node *N = Head;
    while (N) {
      Node *Next = N->nexts()[0].load(std::memory_order_relaxed);
      Node::destroy(N);
      N = Next;
    }
  }

  ConcurrentSkipListMap(const ConcurrentSkipListMap &) = delete;
  ConcurrentSkipListMap &operator=(const ConcurrentSkipListMap &) = delete;

  /// Linearizable lookup: the value at \p Key, or null; valid until the
  /// caller's guard exits.
  const V *find(const K &Key) const {
    assertGuarded();
    Node *Preds[MaxLevel + 1];
    Node *Succs[MaxLevel + 1];
    int Found = findNode(Key, Preds, Succs);
    if (Found == -1 || !readable(Succs[Found]))
      return nullptr;
    return &Succs[Found]->Val;
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
    assertGuarded();
    int TopLevel = randomLevel();
    Node *Preds[MaxLevel + 1];
    Node *Succs[MaxLevel + 1];
    while (true) {
      int Found = findNode(Key, Preds, Succs);
      if (Found != -1) {
        Node *Existing = Succs[Found];
        if (Existing->Marked.load(std::memory_order_acquire))
          continue; // being erased or displaced: retry
        // Wait for a concurrent inserter to finish linking.
        for (Backoff B(WaitSite::SkipListLink);
             !Existing->FullyLinked.load(std::memory_order_acquire);)
          B.pause();
        if (Existing->Val == Val)
          return false;
        Node *Fresh = Node::make(Existing->TopLevel, Key, std::move(Val));
        if (unlink(Key, Existing, Fresh))
          return false;
        Val = std::move(Fresh->Val); // lost to another writer: retry
        Node::destroy(Fresh);
        continue;
      }

      if (!lockPreds(Preds, TopLevel, [&](int L) {
            return !Preds[L]->Marked.load(std::memory_order_relaxed) &&
                   (!Succs[L] ||
                    !Succs[L]->Marked.load(std::memory_order_relaxed)) &&
                   Preds[L]->nexts()[L].load(std::memory_order_relaxed) ==
                       Succs[L];
          }))
        continue;

      Node *NewNode = Node::make(TopLevel, Key, std::move(Val));
      for (int L = 0; L <= TopLevel; ++L)
        NewNode->nexts()[L].store(Succs[L], std::memory_order_relaxed);
      for (int L = 0; L <= TopLevel; ++L)
        Preds[L]->nexts()[L].store(NewNode, std::memory_order_release);
      NewNode->FullyLinked.store(true, std::memory_order_release);
      NumEntries.fetch_add(1, std::memory_order_relaxed);
      unlockPreds(Preds, TopLevel);
      return true;
    }
  }

  /// Linearizable removal; returns true if the key was present.
  bool erase(const K &Key) {
    assertGuarded();
    Node *Preds[MaxLevel + 1];
    Node *Succs[MaxLevel + 1];
    while (true) {
      int Found = findNode(Key, Preds, Succs);
      if (Found == -1)
        return false;
      Node *Victim = Succs[Found];
      if (!Victim->FullyLinked.load(std::memory_order_acquire) ||
          Victim->TopLevel != Found)
        return false;
      if (unlink(Key, Victim, nullptr))
        return true;
      if (!Victim->Replaced.load(std::memory_order_acquire))
        return false; // erased by another writer
      // Displaced by an assign: erase its replacement.
    }
  }

  /// Weakly consistent sorted scan over level 0: safe in parallel with
  /// writes; entries present for the whole scan are visited, entries
  /// inserted or removed during it may or may not be. Visits in
  /// ascending key order; the visitor returns false to stop early.
  template <typename Fn> void scan(Fn Visit) const {
    assertGuarded();
    for (const Node *N = Head->nexts()[0].load(std::memory_order_acquire); N;
         N = N->nexts()[0].load(std::memory_order_acquire))
      if (readable(N) && !Visit(static_cast<const K &>(N->Key),
                                static_cast<const V &>(N->Val)))
        return;
  }

  size_t size() const { return NumEntries.load(std::memory_order_relaxed); }

  /// Heap bytes of an entry whose node links levels 0..\p TopLevel
  /// (randomLevel draws TopLevel geometrically, so two links on average).
  static size_t entryBytes(int TopLevel) { return Node::bytes(TopLevel); }
};

} // namespace crs

#endif // CRS_CONTAINERS_CONCURRENTSKIPLISTMAP_H
