//===- containers/TreeMap.h - Non-concurrent AVL tree map ------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch AVL-balanced ordered map — the analogue of
/// java.util.TreeMap in the Figure 1 taxonomy: parallel lookups are safe
/// (reads never rebalance, unlike a splay tree — the paper's §3.1 example
/// of a read-unsafe structure), concurrent writes are unsafe. Scans are
/// in-order, i.e. sorted by key: the planner's sort-elision analysis
/// (§5.2) exploits this to skip sorting lock acquisition sets.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_TREEMAP_H
#define CRS_CONTAINERS_TREEMAP_H

#include "support/Compiler.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace crs {

/// AVL tree map. \p LessFn must induce a strict weak (total) order.
template <typename K, typename V, typename LessFn> class TreeMap {
  struct Node {
    K Key;
    V Val;
    Node *Left = nullptr;
    Node *Right = nullptr;
    int Height = 1;
    Node(const K &Key, V Val) : Key(Key), Val(std::move(Val)) {}
  };

  Node *Root = nullptr;
  size_t NumEntries = 0;
  LessFn Less;

  static int heightOf(Node *N) { return N ? N->Height : 0; }

  static void fix(Node *N) {
    N->Height = 1 + std::max(heightOf(N->Left), heightOf(N->Right));
  }

  static int balanceOf(Node *N) {
    return heightOf(N->Left) - heightOf(N->Right);
  }

  static Node *rotateRight(Node *Y) {
    Node *X = Y->Left;
    Y->Left = X->Right;
    X->Right = Y;
    fix(Y);
    fix(X);
    return X;
  }

  static Node *rotateLeft(Node *X) {
    Node *Y = X->Right;
    X->Right = Y->Left;
    Y->Left = X;
    fix(X);
    fix(Y);
    return Y;
  }

  static Node *rebalance(Node *N) {
    fix(N);
    int Balance = balanceOf(N);
    if (Balance > 1) {
      if (balanceOf(N->Left) < 0)
        N->Left = rotateLeft(N->Left);
      return rotateRight(N);
    }
    if (Balance < -1) {
      if (balanceOf(N->Right) > 0)
        N->Right = rotateRight(N->Right);
      return rotateLeft(N);
    }
    return N;
  }

  Node *insertRec(Node *N, const K &Key, V &Val, bool &Inserted) {
    if (!N) {
      Inserted = true;
      ++NumEntries;
      return new Node(Key, std::move(Val));
    }
    if (Less(Key, N->Key)) {
      N->Left = insertRec(N->Left, Key, Val, Inserted);
    } else if (Less(N->Key, Key)) {
      N->Right = insertRec(N->Right, Key, Val, Inserted);
    } else {
      N->Val = std::move(Val);
      Inserted = false;
      return N;
    }
    return rebalance(N);
  }

  static Node *minNode(Node *N) {
    while (N->Left)
      N = N->Left;
    return N;
  }

  Node *eraseRec(Node *N, const K &Key, bool &Erased) {
    if (!N)
      return nullptr;
    if (Less(Key, N->Key)) {
      N->Left = eraseRec(N->Left, Key, Erased);
    } else if (Less(N->Key, Key)) {
      N->Right = eraseRec(N->Right, Key, Erased);
    } else {
      Erased = true;
      --NumEntries;
      if (!N->Left || !N->Right) {
        Node *Child = N->Left ? N->Left : N->Right;
        delete N;
        return Child;
      }
      // Two children: replace with in-order successor, then remove it.
      Node *Succ = minNode(N->Right);
      N->Key = Succ->Key;
      N->Val = std::move(Succ->Val);
      bool Ignored = false;
      ++NumEntries; // compensate for the recursive decrement
      N->Right = eraseRec(N->Right, Succ->Key, Ignored);
    }
    return rebalance(N);
  }

  template <typename Fn> static bool scanRec(Node *N, Fn &Visit) {
    if (!N)
      return true;
    if (!scanRec(N->Left, Visit))
      return false;
    if (!Visit(static_cast<const K &>(N->Key), static_cast<const V &>(N->Val)))
      return false;
    return scanRec(N->Right, Visit);
  }

  static void destroyRec(Node *N) {
    if (!N)
      return;
    destroyRec(N->Left);
    destroyRec(N->Right);
    delete N;
  }

  static int checkRec(Node *N, bool &Ok) {
    if (!N)
      return 0;
    int L = checkRec(N->Left, Ok);
    int R = checkRec(N->Right, Ok);
    if (std::abs(L - R) > 1 || N->Height != 1 + std::max(L, R))
      Ok = false;
    return 1 + std::max(L, R);
  }

public:
  TreeMap() = default;
  ~TreeMap() { clear(); }
  TreeMap(const TreeMap &) = delete;
  TreeMap &operator=(const TreeMap &) = delete;

  /// The value at \p Key, or null if absent.
  const V *find(const K &Key) const {
    Node *N = Root;
    while (N) {
      if (Less(Key, N->Key))
        N = N->Left;
      else if (Less(N->Key, Key))
        N = N->Right;
      else
        return &N->Val;
    }
    return nullptr;
  }

  /// Returns true and sets \p Out if \p Key is present.
  bool lookup(const K &Key, V &Out) const {
    const V *P = find(Key);
    if (P)
      Out = *P;
    return P;
  }

  bool contains(const K &Key) const {
    V Ignored;
    return lookup(Key, Ignored);
  }

  /// Inserts or replaces; returns true if the key was newly inserted.
  bool insertOrAssign(const K &Key, V Val) {
    bool Inserted = false;
    Root = insertRec(Root, Key, Val, Inserted);
    return Inserted;
  }

  /// Removes \p Key; returns true if it was present.
  bool erase(const K &Key) {
    bool Erased = false;
    Root = eraseRec(Root, Key, Erased);
    return Erased;
  }

  /// In-order (sorted) scan; the visitor returns false to stop early.
  template <typename Fn> void scan(Fn Visit) const {
    scanRec(Root, Visit);
  }

  size_t size() const { return NumEntries; }
  bool empty() const { return NumEntries == 0; }

  /// Heap bytes of one entry's node.
  static constexpr size_t entryBytes() { return sizeof(Node); }

  void clear() {
    destroyRec(Root);
    Root = nullptr;
    NumEntries = 0;
  }

  /// Validates the AVL invariants (test hook).
  bool checkInvariants() const {
    bool Ok = true;
    checkRec(Root, Ok);
    return Ok;
  }
};

} // namespace crs

#endif // CRS_CONTAINERS_TREEMAP_H
