//===- containers/GrowableHashTable.h - Resizable RCU hash table -*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's one concurrent hash table: intrusive nodes in a
/// power-of-two array of list heads that doubles whenever a lock
/// stripe's entries average more than two per bucket — perfbook §10.4's
/// resizable hash table, read under RCU. ConcurrentHashMap and every
/// directory of the MVCC version store are built on it.
///
/// Readers walk the current head array lock-free inside an epoch guard.
/// Writers hold the stripe covering a node's hash; bucket counts are
/// powers of two no smaller than the stripe count, so stripe
/// H % NumStripes covers bucket H & Mask in every generation. Each node
/// carries two list links, one per head-array generation: a doubling
/// holds every stripe, re-links each node into the new array through
/// its spare link while readers on the old array keep walking intact
/// lists, publishes the new array and retires the old one through
/// EpochDomain::global(). The next doubling waits for that grace period,
/// since it rewrites the link the old array's readers follow; writers
/// run inside epoch guards, so the wait is left to a later write rather
/// than a blocking synchronize(). Unlinked nodes are the caller's to
/// retire. Tables never shrink.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_GROWABLEHASHTABLE_H
#define CRS_CONTAINERS_GROWABLEHASHTABLE_H

#include "sync/Epoch.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace crs {

/// The list links a node of a GrowableHashTable<N> carries: one per
/// head-array generation. Written under the owning table's stripe, read
/// lock-free under the epoch guard.
template <typename N> struct GrowableHashLinks {
  std::atomic<N *> Next[2] = {nullptr, nullptr};
};

/// A growable table of intrusive nodes of type \p N, which derives from
/// GrowableHashLinks<N>. Callers hash; the table places, links, unlinks
/// and grows.
template <typename N> class GrowableHashTable {
public:
  static constexpr size_t NumStripes = 64;

  /// One generation of list heads.
  struct Heads {
    size_t Mask;  ///< bucket count − 1
    unsigned Gen; ///< the GrowableHashLinks::Next slot this array uses
    std::unique_ptr<std::atomic<N *>[]> H;
    Heads(size_t Buckets, unsigned Gen)
        : Mask(Buckets - 1), Gen(Gen), H(new std::atomic<N *>[Buckets]()) {}
  };

  /// A table with about two entries per bucket at \p Entries entries.
  explicit GrowableHashTable(size_t Entries = 0) {
    size_t B = NumStripes;
    while (B * 2 < Entries)
      B *= 2;
    Cur.store(new Heads(B, 0), std::memory_order_relaxed);
    NumBuckets.store(B, std::memory_order_relaxed);
  }
  ~GrowableHashTable() { delete Cur.load(std::memory_order_relaxed); }
  GrowableHashTable(const GrowableHashTable &) = delete;
  GrowableHashTable &operator=(const GrowableHashTable &) = delete;

  /// The current head array. Readers load it inside an epoch guard;
  /// writers under any stripe.
  const Heads &heads() const { return *Cur.load(std::memory_order_acquire); }
  static N *first(const Heads &A, uint64_t H) {
    return A.H[H & A.Mask].load(std::memory_order_acquire);
  }
  static N *next(const Heads &A, const N *X) {
    return X->Next[A.Gen].load(std::memory_order_acquire);
  }

  /// The first node of bucket \p H that \p Match accepts, or null.
  /// Readers call it inside an epoch guard, writers under stripe(H).
  template <typename F> N *find(uint64_t H, F Match) const {
    const Heads &A = heads();
    for (N *X = first(A, H); X; X = next(A, X))
      if (Match(X))
        return X;
    return nullptr;
  }

  std::mutex &stripe(uint64_t H) { return Stripes[H % NumStripes].M; }

  /// Links \p X at the head of bucket \p H; call with stripe(H) held.
  /// Returns true when the stripe's entries average more than two per
  /// bucket, i.e. the table should double (grow, once the stripe is
  /// released).
  bool push(N *X, uint64_t H) {
    const Heads &A = heads();
    std::atomic<N *> &Slot = A.H[H & A.Mask];
    X->Next[A.Gen].store(Slot.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    Slot.store(X, std::memory_order_release);
    Stripe &S = Stripes[H % NumStripes];
    size_t Count = S.Count.load(std::memory_order_relaxed) + 1;
    S.Count.store(Count, std::memory_order_relaxed);
    return overloaded(Count, A.Mask + 1);
  }

  /// Unlinks the first node of bucket \p H that \p Match accepts and
  /// returns it (null if none); call with stripe(H) held. Given a
  /// \p Replacement, links it in that node's place instead, in one
  /// store, so a reader finds one or the other. Readers mid-walk keep
  /// following the unlinked node's intact links until their guard
  /// exits; the caller retires it.
  template <typename F>
  N *unlinkIf(uint64_t H, F Match, N *Replacement = nullptr) {
    const Heads &A = heads();
    std::atomic<N *> *Link = &A.H[H & A.Mask];
    for (N *X = Link->load(std::memory_order_relaxed); X;
         X = Link->load(std::memory_order_relaxed)) {
      if (Match(X)) {
        N *After = X->Next[A.Gen].load(std::memory_order_relaxed);
        Stripe &S = Stripes[H % NumStripes];
        if (Replacement)
          Replacement->Next[A.Gen].store(After, std::memory_order_relaxed);
        else
          S.Count.store(S.Count.load(std::memory_order_relaxed) - 1,
                        std::memory_order_relaxed);
        Link->store(Replacement ? Replacement : After,
                    std::memory_order_release);
        return X;
      }
      Link = &X->Next[A.Gen];
    }
    return nullptr;
  }

  /// Calls \p Fn on every node until it returns false, reading each
  /// node's link before the call (\p Fn may free the node it is given
  /// when the table is dying). Readers call it inside an epoch guard.
  template <typename F> void forEach(F Fn) const {
    const Heads &A = heads();
    for (size_t B = 0; B <= A.Mask; ++B)
      for (N *X = A.H[B].load(std::memory_order_acquire); X;) {
        N *After = next(A, X);
        if (!Fn(X))
          return;
        X = After;
      }
  }

  /// Calls \p Fn on every node of stripe \p S; call with that stripe
  /// held (\p Fn may unlink the node it is given).
  template <typename F> void forEachInStripe(size_t S, F Fn) {
    const Heads &A = heads();
    std::vector<N *> Nodes;
    for (size_t B = S; B <= A.Mask; B += NumStripes)
      for (N *X = A.H[B].load(std::memory_order_relaxed); X;
           X = X->Next[A.Gen].load(std::memory_order_relaxed))
        Nodes.push_back(X);
    for (N *X : Nodes)
      Fn(X);
  }

  /// Doubles the table if a stripe is still overloaded, re-linking every
  /// node (rehashed by \p HashOf) into a new array through its spare
  /// link. Call with no stripe held. Returns the new bucket count, or 0
  /// when it did not grow: not overloaded, another writer is growing,
  /// or the last retired array may still have readers on the link this
  /// doubling would rewrite (a later write retries). Sets \p Moved to
  /// the nodes re-linked.
  template <typename F> size_t grow(F HashOf, size_t &Moved) {
    std::unique_lock<std::mutex> RG(ResizeM, std::try_to_lock);
    if (!RG.owns_lock())
      return 0;
    EpochDomain &ED = EpochDomain::global();
    if (ED.epoch() < ReuseEpoch) {
      ED.tryAdvance();
      if (ED.epoch() < ReuseEpoch)
        return 0;
    }
    for (Stripe &S : Stripes)
      S.M.lock();
    Heads *Old = Cur.load(std::memory_order_relaxed);
    size_t B = Old->Mask + 1;
    Heads *New = nullptr;
    Moved = 0;
    bool Over = false;
    for (const Stripe &S : Stripes)
      Over |= overloaded(S.Count.load(std::memory_order_relaxed), B);
    if (Over) {
      New = new Heads(2 * B, Old->Gen ^ 1);
      for (size_t I = 0; I < B; ++I)
        for (N *X = Old->H[I].load(std::memory_order_relaxed); X;
             X = X->Next[Old->Gen].load(std::memory_order_relaxed)) {
          std::atomic<N *> &Slot = New->H[HashOf(X) & New->Mask];
          X->Next[New->Gen].store(Slot.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
          Slot.store(X, std::memory_order_relaxed);
          ++Moved;
        }
      // Unpublish the old array (seq_cst, per the epoch contract).
      Cur.store(New, std::memory_order_seq_cst);
      NumBuckets.store(2 * B, std::memory_order_relaxed);
    }
    for (Stripe &S : Stripes)
      S.M.unlock();
    if (!New)
      return 0;
    ED.retireObject(Old);
    // Stamped after the retire: once the epoch reaches it, the retiree's
    // grace period has elapsed and no reader follows Old->Gen links.
    ReuseEpoch = ED.epoch() + 2;
    return 2 * B;
  }

  size_t buckets() const { return NumBuckets.load(std::memory_order_relaxed); }
  size_t entries() const {
    size_t Sum = 0;
    for (const Stripe &S : Stripes)
      Sum += S.Count.load(std::memory_order_relaxed);
    return Sum;
  }

private:
  struct alignas(64) Stripe {
    std::mutex M;
    std::atomic<size_t> Count{0}; ///< entries hashed here; written under M
  };

  /// More than two entries per bucket over the stripe's share of the
  /// table's \p Buckets.
  static bool overloaded(size_t Count, size_t Buckets) {
    return Count > 2 * (Buckets / NumStripes);
  }

  std::atomic<Heads *> Cur{nullptr};
  std::atomic<size_t> NumBuckets{0};
  Stripe Stripes[NumStripes];
  std::mutex ResizeM;      ///< one doubling at a time
  uint64_t ReuseEpoch = 0; ///< guarded by ResizeM
};

} // namespace crs

#endif // CRS_CONTAINERS_GROWABLEHASHTABLE_H
