//===- containers/HashMap.h - Non-concurrent chained hash map --*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch separate-chaining hash map — the analogue of
/// java.util.HashMap in the Figure 1 taxonomy: parallel lookups are safe,
/// any concurrent write is unsafe (the synthesizer must serialize writes
/// with a lock placement). Scan order is unspecified (hash order), which
/// matters for the planner's lock-sort elision analysis (§5.2).
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_HASHMAP_H
#define CRS_CONTAINERS_HASHMAP_H

#include "support/Compiler.h"

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace crs {

/// Separate-chaining hash map. \p HashFn must return uint64_t and be
/// deterministic across runs.
template <typename K, typename V, typename HashFn> class HashMap {
  struct Node {
    K Key;
    V Val;
    Node *Next;
  };

  std::vector<Node *> Buckets;
  size_t NumEntries = 0;
  HashFn Hasher;

  size_t bucketFor(const K &Key) const {
    return Hasher(Key) & (Buckets.size() - 1);
  }

  void maybeGrow() {
    if (NumEntries < Buckets.size())
      return;
    std::vector<Node *> Old = std::move(Buckets);
    Buckets.assign(Old.size() * 2, nullptr);
    for (Node *Head : Old) {
      while (Head) {
        Node *Next = Head->Next;
        size_t B = bucketFor(Head->Key);
        Head->Next = Buckets[B];
        Buckets[B] = Head;
        Head = Next;
      }
    }
  }

public:
  explicit HashMap(size_t InitialBuckets = 16)
      : Buckets(InitialBuckets, nullptr) {
    assert((InitialBuckets & (InitialBuckets - 1)) == 0 &&
           "bucket count must be a power of two");
  }

  ~HashMap() { clear(); }

  HashMap(const HashMap &) = delete;
  HashMap &operator=(const HashMap &) = delete;

  /// The value at \p Key, or null if absent.
  const V *find(const K &Key) const {
    for (Node *N = Buckets[bucketFor(Key)]; N; N = N->Next)
      if (N->Key == Key)
        return &N->Val;
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
    size_t B = bucketFor(Key);
    for (Node *N = Buckets[B]; N; N = N->Next)
      if (N->Key == Key) {
        N->Val = std::move(Val);
        return false;
      }
    maybeGrow();
    B = bucketFor(Key);
    Buckets[B] = new Node{Key, std::move(Val), Buckets[B]};
    ++NumEntries;
    return true;
  }

  /// Removes \p Key; returns true if it was present.
  bool erase(const K &Key) {
    Node **Link = &Buckets[bucketFor(Key)];
    while (*Link) {
      if ((*Link)->Key == Key) {
        Node *Dead = *Link;
        *Link = Dead->Next;
        delete Dead;
        --NumEntries;
        return true;
      }
      Link = &(*Link)->Next;
    }
    return false;
  }

  /// Visits every entry in unspecified order; the visitor returns false
  /// to stop early.
  template <typename Fn> void scan(Fn Visit) const {
    for (Node *Head : Buckets)
      for (Node *N = Head; N; N = N->Next)
        if (!Visit(static_cast<const K &>(N->Key),
                   static_cast<const V &>(N->Val)))
          return;
  }

  size_t size() const { return NumEntries; }
  bool empty() const { return NumEntries == 0; }
  size_t buckets() const { return Buckets.size(); }

  /// Heap bytes of one entry's node.
  static constexpr size_t entryBytes() { return sizeof(Node); }

  void clear() {
    for (Node *&Head : Buckets) {
      while (Head) {
        Node *Next = Head->Next;
        delete Head;
        Head = Next;
      }
    }
    NumEntries = 0;
  }
};

} // namespace crs

#endif // CRS_CONTAINERS_HASHMAP_H
