//===- txn/MvccStore.cpp - Per-tuple version chains for MVCC -----------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "txn/MvccStore.h"

#include "sync/CommitClock.h"
#include "sync/Epoch.h"

#include <cassert>
#include <vector>

using namespace crs;

/// One committed version: immutable but for the End stamp. Newest
/// first on its chain; Next is written only under the chain's primary
/// stripe, read lock-free under the epoch guard.
struct MvccStore::Version {
  Tuple Full;
  uint64_t Begin;
  std::atomic<uint64_t> End{0};
  std::atomic<Version *> Next{nullptr};
};

/// A node of a growable table: one list link per head-array generation
/// (the file comment's Growth paragraph). Written under the owning
/// table's stripe, read lock-free under the epoch guard.
struct MvccStore::Node {
  std::atomic<Node *> Next[2] = {nullptr, nullptr};
};

/// One tuple identity's chain. Head is the newest version; the chain
/// node itself lives on the primary table and reclaims (epoch-deferred)
/// once every version is gone.
struct MvccStore::Chain : Node {
  Tuple Key;
  std::atomic<Version *> Head{nullptr};
};

/// One secondary-directory entry: a chain reachable by its projected
/// sub-key (π_dir-cols of the chain key, recomputed rather than stored).
/// Lives on its directory's table; retired with its chain.
struct MvccStore::DirLink : Node {
  Chain *C = nullptr;
};

/// A hash table of intrusive nodes that doubles as it fills: the
/// primary directory and every secondary directory. Readers walk the
/// current head array lock-free under an epoch guard; writers hold the
/// stripe covering the node's hash. Bucket counts are powers of two no
/// smaller than the stripe count, so stripe H % NumStripes covers
/// bucket H & Mask in every generation of the array.
class MvccStore::Table {
public:
  static constexpr size_t NumStripes = 64;

  /// One generation of list heads.
  struct Heads {
    size_t Mask;  ///< bucket count − 1
    unsigned Gen; ///< the Node::Next slot this array's lists use
    std::unique_ptr<std::atomic<Node *>[]> H;
    Heads(size_t Buckets, unsigned Gen)
        : Mask(Buckets - 1), Gen(Gen), H(new std::atomic<Node *>[Buckets]()) {}
  };

  /// A table with about two entries per bucket at \p Entries entries.
  explicit Table(size_t Entries) {
    size_t N = NumStripes;
    while (N * 2 < Entries)
      N *= 2;
    Cur.store(new Heads(N, 0), std::memory_order_relaxed);
    NumBuckets.store(N, std::memory_order_relaxed);
  }
  ~Table() { delete Cur.load(std::memory_order_relaxed); }

  /// The current head array. Readers load it inside an epoch guard;
  /// writers under any stripe.
  const Heads &heads() const { return *Cur.load(std::memory_order_acquire); }
  static Node *first(const Heads &A, uint64_t H) {
    return A.H[H & A.Mask].load(std::memory_order_acquire);
  }
  static Node *next(const Heads &A, const Node *N) {
    return N->Next[A.Gen].load(std::memory_order_acquire);
  }

  std::mutex &stripe(uint64_t H) { return Stripes[H % NumStripes].M; }

  /// Links \p N at the head of bucket \p H; call with stripe(H) held.
  /// Returns true when the stripe's entries average more than two per
  /// bucket, i.e. the table should double (grow, once the stripe is
  /// released).
  bool push(Node *N, uint64_t H) {
    const Heads &A = heads();
    std::atomic<Node *> &Slot = A.H[H & A.Mask];
    N->Next[A.Gen].store(Slot.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    Slot.store(N, std::memory_order_release);
    Stripe &S = Stripes[H % NumStripes];
    size_t Count = S.Count.load(std::memory_order_relaxed) + 1;
    S.Count.store(Count, std::memory_order_relaxed);
    return overloaded(Count, A.Mask + 1);
  }

  /// Unlinks the first node of bucket \p H that \p Match accepts and
  /// returns it (null if none); call with stripe(H) held. Readers
  /// mid-walk keep following the node's intact links until their guard
  /// exits; the caller retires it.
  template <typename F> Node *unlinkIf(uint64_t H, F Match) {
    const Heads &A = heads();
    std::atomic<Node *> *Link = &A.H[H & A.Mask];
    for (Node *N = Link->load(std::memory_order_relaxed); N;
         N = Link->load(std::memory_order_relaxed)) {
      if (Match(N)) {
        Link->store(N->Next[A.Gen].load(std::memory_order_relaxed),
                    std::memory_order_release);
        Stripe &S = Stripes[H % NumStripes];
        S.Count.store(S.Count.load(std::memory_order_relaxed) - 1,
                      std::memory_order_relaxed);
        return N;
      }
      Link = &N->Next[A.Gen];
    }
    return nullptr;
  }

  /// Calls \p Fn on every node, reading each node's link before the
  /// call (\p Fn may free the node it is given when the table is dying).
  /// Readers call it inside an epoch guard.
  template <typename F> void forEach(F Fn) const {
    const Heads &A = heads();
    for (size_t B = 0; B <= A.Mask; ++B)
      for (Node *N = A.H[B].load(std::memory_order_acquire); N;) {
        Node *Next = next(A, N);
        Fn(N);
        N = Next;
      }
  }

  /// Calls \p Fn on every node of stripe \p S; call with that stripe
  /// held (\p Fn may unlink the node it is given).
  template <typename F> void forEachInStripe(size_t S, F Fn) {
    const Heads &A = heads();
    std::vector<Node *> Nodes;
    for (size_t B = S; B <= A.Mask; B += NumStripes)
      for (Node *N = A.H[B].load(std::memory_order_relaxed); N;
           N = N->Next[A.Gen].load(std::memory_order_relaxed))
        Nodes.push_back(N);
    for (Node *N : Nodes)
      Fn(N);
  }

  /// Doubles the table if a stripe is still overloaded, re-linking every
  /// node (rehashed by \p HashOf) into a new array through its spare
  /// link. Call with no stripe held. Returns the new bucket count, or 0
  /// when it did not grow: not overloaded, another writer is growing,
  /// or the last retired array may still have readers on the link this
  /// doubling would rewrite (a later write retries).
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
    size_t N = Old->Mask + 1;
    Heads *New = nullptr;
    Moved = 0;
    bool Over = false;
    for (const Stripe &S : Stripes)
      Over |= overloaded(S.Count.load(std::memory_order_relaxed), N);
    if (Over) {
      New = new Heads(2 * N, Old->Gen ^ 1);
      for (size_t B = 0; B < N; ++B)
        for (Node *X = Old->H[B].load(std::memory_order_relaxed); X;
             X = X->Next[Old->Gen].load(std::memory_order_relaxed)) {
          std::atomic<Node *> &Slot = New->H[HashOf(X) & New->Mask];
          X->Next[New->Gen].store(Slot.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
          Slot.store(X, std::memory_order_relaxed);
          ++Moved;
        }
      // Unpublish the old array (seq_cst, per the epoch contract).
      Cur.store(New, std::memory_order_seq_cst);
      NumBuckets.store(2 * N, std::memory_order_relaxed);
    }
    for (Stripe &S : Stripes)
      S.M.unlock();
    if (!New)
      return 0;
    ED.retireObject(Old);
    // Stamped after the retire: once the epoch reaches it, the retiree's
    // grace period has elapsed and no reader follows Old->Gen links.
    ReuseEpoch = ED.epoch() + 2;
    return 2 * N;
  }

  size_t buckets() const { return NumBuckets.load(std::memory_order_relaxed); }
  size_t entries() const {
    size_t N = 0;
    for (const Stripe &S : Stripes)
      N += S.Count.load(std::memory_order_relaxed);
    return N;
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

/// One secondary directory: sub-key → chains, over a proper nonempty
/// subset of the identity columns. Registered on a grow-only list.
struct MvccStore::Directory {
  ColumnSet Cols;
  Table Links;
  /// Readers route through the directory only once the backfill has
  /// walked every primary stripe (before that, a lookup could miss
  /// pre-existing chains). Installs/unlinks honor it immediately.
  std::atomic<bool> Ready{false};
  std::atomic<Directory *> Next{nullptr};

  Directory(ColumnSet Cols, size_t Chains) : Cols(Cols), Links(Chains) {}

  uint64_t hashOf(const Chain *C) const {
    return C->Key.project(Cols).hash();
  }
  /// Frees every link (not the chains) and the directory.
  static void destroy(Directory *D) {
    D->Links.forEach([](Node *N) { delete static_cast<DirLink *>(N); });
    delete D;
  }
};

MvccStore::MvccStore(const RelationSpec &Spec, size_t ExpectedCardinality) {
  AllCols = Spec.allColumns();
  std::vector<ColumnSet> Keys = Spec.minimalKeys();
  KeyCols = Keys.empty() ? AllCols : Keys.front();
  Primary = std::make_unique<Table>(ExpectedCardinality);
}

MvccStore::~MvccStore() {
  // The relation is dying: no reader can hold a guard over our nodes
  // legitimately (stores must outlive every scope that reads them —
  // same contract as the relation itself). Free directly.
  Primary->forEach([](Node *N) {
    Chain *C = static_cast<Chain *>(N);
    Version *V = C->Head.load(std::memory_order_relaxed);
    while (V) {
      Version *VN = V->Next.load(std::memory_order_relaxed);
      delete V;
      V = VN;
    }
    delete C;
  });
  Directory *D = Dirs.load(std::memory_order_relaxed);
  while (D) {
    Directory *DN = D->Next.load(std::memory_order_relaxed);
    Directory::destroy(D);
    D = DN;
  }
}

MvccStore::Chain *MvccStore::findChain(const Tuple &Key, uint64_t H) const {
  const Table::Heads &A = Primary->heads();
  for (Node *N = Table::first(A, H); N; N = Table::next(A, N))
    if (static_cast<Chain *>(N)->Key == Key)
      return static_cast<Chain *>(N);
  return nullptr;
}

MvccStore::Chain *MvccStore::findOrCreateChain(const Tuple &Key, uint64_t H,
                                               bool &Grow) {
  if (Chain *C = findChain(Key, H))
    return C;
  Chain *C = new Chain;
  C->Key = Key;
  // Push at head: concurrent lock-free scans that started earlier miss
  // it, which is benign — a new chain only ever receives versions whose
  // Begin is above every extant snapshot (in-flight commit registry).
  Grow = Primary->push(C, H);
  // Link the new chain into every secondary directory. Reading the
  // registry while the primary stripe is held is what makes
  // ensureDirectory's publish-then-backfill safe: if the backfill
  // already walked this stripe, its lock/unlock ordered the registry
  // publish before this load (so we see the directory and link here);
  // if it has not yet, it will find this chain during its walk. Either
  // way the chain lands in the directory exactly once (linkChainToDir
  // dedups). The guard spans the walk *and* the link insertions: a
  // directory being retired concurrently stays allocated until we
  // exit, and any link we add to it is freed by its epoch deleter.
  EpochDomain::Guard EG;
  for (Directory *D = Dirs.load(std::memory_order_acquire); D;
       D = D->Next.load(std::memory_order_acquire))
    linkChainToDir(*D, C);
  return C;
}

void MvccStore::linkChainToDir(Directory &D, Chain *C) {
  uint64_t H = D.hashOf(C);
  bool Grow;
  {
    std::lock_guard<std::mutex> G(D.Links.stripe(H));
    const Table::Heads &A = D.Links.heads();
    for (Node *N = Table::first(A, H); N; N = Table::next(A, N))
      if (static_cast<DirLink *>(N)->C == C)
        return; // already linked (install raced the backfill)
    DirLink *L = new DirLink;
    L->C = C;
    Grow = D.Links.push(L, H);
  }
  // Still under C's primary stripe: directory stripes always come
  // after a primary stripe, never before one, so taking all of them
  // here keeps the order.
  if (Grow)
    grow(D.Links, D.Cols, [&](const Node *X) {
      return D.hashOf(static_cast<const DirLink *>(X)->C);
    });
}

template <typename F>
void MvccStore::grow(Table &T, ColumnSet Cols, F HashOf) {
  size_t Moved;
  size_t Buckets = T.grow(HashOf, Moved);
  if (!Buckets)
    return;
  Resizes.fetch_add(1, std::memory_order_relaxed);
  if (obs::TraceRing *R = Trace.load(std::memory_order_acquire))
    R->emit(obs::EventKind::VersionStoreResize, Cols.bits(), Buckets, Moved);
}

void MvccStore::installInsert(const Tuple &Full, uint64_t Seq) {
  assert(Seq != 0);
  Tuple Key = Full.project(KeyCols);
  uint64_t H = Key.hash();
  bool Grow = false;
  {
    std::lock_guard<std::mutex> G(Primary->stripe(H));
    Chain *C = findOrCreateChain(Key, H, Grow);
    assert([&] {
      Version *Top = C->Head.load(std::memory_order_relaxed);
      return !Top || Top->End.load(std::memory_order_relaxed) != 0;
    }() && "installing over a live version (put-if-absent should have lost)");
    Version *V = new Version;
    V->Full = Full.project(AllCols);
    V->Begin = Seq;
    V->Next.store(C->Head.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    C->Head.store(V, std::memory_order_release);
    Installed.fetch_add(1, std::memory_order_relaxed);
    Retired.fetch_add(pruneChainLocked(C, snapshotWatermark()),
                      std::memory_order_relaxed);
  }
  if (Grow)
    grow(*Primary, ColumnSet(), [](const Node *X) {
      return static_cast<const Chain *>(X)->Key.hash();
    });
}

void MvccStore::installRemove(const Tuple &Full, uint64_t Seq) {
  assert(Seq != 0);
  Tuple Key = Full.project(KeyCols);
  uint64_t H = Key.hash();
  std::lock_guard<std::mutex> G(Primary->stripe(H));
  Chain *C = findChain(Key, H);
  if (!C) {
    // Idempotent-replay tolerance (see header). Counted: outside
    // recovery the commit protocol (2PL + put-if-absent) makes a
    // remove of an absent or already-ended version impossible, so the
    // stress oracle asserts removeNoops() stays zero.
    RemoveNoops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Version *Top = C->Head.load(std::memory_order_relaxed);
  if (!Top || Top->End.load(std::memory_order_relaxed) != 0) {
    RemoveNoops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Top->End.store(Seq, std::memory_order_release);
  Retired.fetch_add(pruneChainLocked(C, snapshotWatermark()),
                    std::memory_order_relaxed);
}

MvccStore::Directory *MvccStore::directoryFor(ColumnSet QueryDom) const {
  Directory *Best = nullptr;
  for (Directory *D = Dirs.load(std::memory_order_acquire); D;
       D = D->Next.load(std::memory_order_acquire)) {
    if (!QueryDom.containsAll(D->Cols) ||
        !D->Ready.load(std::memory_order_acquire))
      continue;
    if (!Best || D->Cols.size() > Best->Cols.size())
      Best = D; // most bound identity columns = fewest chains per key
  }
  return Best;
}

uint32_t
MvccStore::snapshotQuery(const Tuple &S, uint64_t Snap,
                         function_ref<void(const Tuple &)> Visit,
                         function_ref<bool(const Tuple &)> SkipKey,
                         SnapshotQueryStats *Stats) const {
  assert(EpochDomain::global().inGuard() &&
         "snapshot reads walk epoch-reclaimed chains; pin a guard first");
  uint32_t N = 0;
  SnapshotQueryStats Local;
  auto VisitChain = [&](const Chain *C) {
    ++Local.ChainsVisited;
    if (SkipKey && SkipKey(C->Key))
      return;
    for (Version *V = C->Head.load(std::memory_order_acquire); V;
         V = V->Next.load(std::memory_order_acquire)) {
      if (V->Begin > Snap)
        continue; // newer than the snapshot; an older version may show
      uint64_t End = V->End.load(std::memory_order_acquire);
      if (End == 0 || End > Snap) {
        if (V->Full.extends(S)) {
          ++N;
          if (Visit)
            Visit(V->Full);
        }
      }
      // Versions below this one began (and ended) earlier still: once
      // one version with Begin ≤ Snap has been judged, older ones are
      // all terminated at or before its Begin — invisible.
      return;
    }
  };
  if (S.domain().containsAll(KeyCols)) {
    // Point read: the primary directory resolves the one chain.
    Tuple Key = S.project(KeyCols);
    const Table::Heads &A = Primary->heads();
    for (Node *X = Table::first(A, Key.hash()); X; X = Table::next(A, X)) {
      ++Local.LinksScanned;
      if (static_cast<Chain *>(X)->Key == Key) {
        VisitChain(static_cast<Chain *>(X));
        break;
      }
    }
  } else if (const Directory *D = directoryFor(S.domain())) {
    // Directory-served: only the chains extending the projected
    // sub-key, O(matching chains) + the bucket list walked.
    Local.DirectoryServed = true;
    Tuple Sub = S.project(D->Cols);
    const Table::Heads &A = D->Links.heads();
    for (Node *X = Table::first(A, Sub.hash()); X; X = Table::next(A, X)) {
      ++Local.LinksScanned;
      const Chain *C = static_cast<DirLink *>(X)->C;
      if (C->Key.extends(Sub))
        VisitChain(C);
    }
  } else {
    // No access path: the documented whole-store fallback. Callers
    // (Transaction::query) use the FullScan report to request a
    // directory for next time.
    Local.FullScan = true;
    Primary->forEach([&](Node *X) {
      ++Local.LinksScanned;
      VisitChain(static_cast<Chain *>(X));
    });
  }
  if (Stats)
    *Stats = Local;
  return N;
}

bool MvccStore::ensureDirectory(ColumnSet QueryCols) {
  ColumnSet Cols = QueryCols & KeyCols;
  if (Cols.size() == 0 || Cols == KeyCols)
    return false; // nothing to index / the primary directory serves it
  {
    // Optimistic pre-scan, guarded: a concurrent retire may be freeing
    // entries of this list after the grace period.
    EpochDomain::Guard EG;
    for (Directory *D = Dirs.load(std::memory_order_acquire); D;
         D = D->Next.load(std::memory_order_acquire))
      if (D->Cols == Cols)
        return true;
  }
  Directory *D;
  {
    std::lock_guard<std::mutex> G(DirsM);
    for (Directory *E = Dirs.load(std::memory_order_relaxed); E;
         E = E->Next.load(std::memory_order_relaxed))
      if (E->Cols == Cols)
        return true; // creation raced; the winner backfills
    // Sized for the chains the backfill is about to link.
    D = new Directory(Cols, Primary->entries());
    // Publish before backfilling: installers read the registry under
    // their primary stripe, so every chain created after the backfill
    // passes its stripe is self-linked (see findOrCreateChain).
    D->Next.store(Dirs.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    Dirs.store(D, std::memory_order_release);
  }
  uint64_t Linked = 0;
  for (size_t S = 0; S < Table::NumStripes; ++S) {
    std::lock_guard<std::mutex> G(Primary->stripe(S));
    Primary->forEachInStripe(S, [&](Node *X) {
      linkChainToDir(*D, static_cast<Chain *>(X));
      ++Linked;
    });
  }
  D->Ready.store(true, std::memory_order_release);
  if (obs::TraceRing *R = Trace.load(std::memory_order_acquire))
    R->emit(obs::EventKind::DirectoryBackfill, Cols.bits(),
            D->Links.buckets(), Linked);
  return true;
}

size_t MvccStore::directoryCount() const {
  EpochDomain::Guard EG;
  size_t N = 0;
  for (Directory *D = Dirs.load(std::memory_order_acquire); D;
       D = D->Next.load(std::memory_order_acquire))
    ++N;
  return N;
}

size_t MvccStore::buckets() const {
  EpochDomain::Guard EG;
  size_t N = Primary->buckets();
  for (Directory *D = Dirs.load(std::memory_order_acquire); D;
       D = D->Next.load(std::memory_order_acquire))
    N += D->Links.buckets();
  return N;
}

size_t
MvccStore::retireStaleDirectories(function_ref<bool(ColumnSet)> StillServed) {
  EpochDomain &ED = EpochDomain::global();
  size_t N = 0;
  std::lock_guard<std::mutex> G(DirsM);
  // Predecessor-pointer removal under DirsM (the only writer of the
  // registry list, so Next pointers of survivors are stable here).
  std::atomic<Directory *> *Link = &Dirs;
  Directory *D = Link->load(std::memory_order_relaxed);
  while (D) {
    Directory *Next = D->Next.load(std::memory_order_relaxed);
    if (!D->Ready.load(std::memory_order_acquire) || StillServed(D->Cols)) {
      Link = &D->Next;
      D = Next;
      continue;
    }
    // Unpublish (seq_cst, per the epoch contract), then retire with a
    // deleter that frees the links too: an installer whose guarded
    // registry walk began before this store may still add a link to the
    // retiring directory, and that link dies with the directory.
    Link->store(Next, std::memory_order_seq_cst);
    if (obs::TraceRing *R = Trace.load(std::memory_order_acquire))
      R->emit(obs::EventKind::DirectoryRetire, D->Cols.bits(),
              D->Links.entries());
    ED.retire(D, [](void *P) {
      Directory::destroy(static_cast<Directory *>(P));
    });
    DirsRetired.fetch_add(1, std::memory_order_relaxed);
    ++N;
    D = Next;
  }
  return N;
}

size_t MvccStore::maxBucketChainLength() const {
  EpochDomain::Guard G;
  size_t Max = 0;
  const Table::Heads &A = Primary->heads();
  for (size_t B = 0; B <= A.Mask; ++B) {
    size_t Len = 0;
    for (Node *X = A.H[B].load(std::memory_order_acquire); X;
         X = Table::next(A, X))
      ++Len;
    Max = Len > Max ? Len : Max;
  }
  return Max;
}

size_t MvccStore::pruneChainLocked(Chain *C, uint64_t Watermark) {
  EpochDomain &D = EpochDomain::global();
  size_t Freed = 0;
  // Unlink every version with 0 < End ≤ Watermark. Predecessor-pointer
  // surgery under the primary stripe; readers mid-walk keep following
  // the unlinked node's intact Next until their guard exits (RCU
  // removal).
  std::atomic<Version *> *Link = &C->Head;
  Version *V = Link->load(std::memory_order_relaxed);
  while (V) {
    uint64_t End = V->End.load(std::memory_order_relaxed);
    Version *Next = V->Next.load(std::memory_order_relaxed);
    if (End != 0 && End <= Watermark) {
      Link->store(Next, std::memory_order_release);
      D.retireObject(V);
      ++Freed;
    } else {
      Link = &V->Next;
    }
    V = Next;
  }
  if (C->Head.load(std::memory_order_relaxed))
    return Freed;
  // Chain emptied: unlink it from the primary too.
  Primary->unlinkIf(C->Key.hash(), [&](const Node *X) { return X == C; });
  // Drop the chain's directory links first. Reading the registry here
  // (still under the primary stripe) observes every directory any
  // earlier linker under this stripe saw — read-read coherence through
  // the mutex ordering — so no stale link can outlive the chain.
  // Guarded: a directory retired concurrently must stay allocated
  // across this walk (its deleter then frees any link we leave).
  EpochDomain::Guard EG;
  for (Directory *Dir = Dirs.load(std::memory_order_acquire); Dir;
       Dir = Dir->Next.load(std::memory_order_acquire)) {
    uint64_t H = Dir->hashOf(C);
    std::lock_guard<std::mutex> DG(Dir->Links.stripe(H));
    if (Node *L = Dir->Links.unlinkIf(H, [&](const Node *X) {
          return static_cast<const DirLink *>(X)->C == C;
        }))
      D.retireObject(static_cast<DirLink *>(L));
  }
  D.retireObject(C);
  return Freed;
}

size_t MvccStore::prune(uint64_t Watermark) {
  size_t Freed = 0;
  for (size_t S = 0; S < Table::NumStripes; ++S) {
    std::lock_guard<std::mutex> G(Primary->stripe(S));
    // forEachInStripe snapshots the stripe's chains first:
    // pruneChainLocked may unlink the chain under our feet.
    Primary->forEachInStripe(S, [&](Node *X) {
      Freed += pruneChainLocked(static_cast<Chain *>(X), Watermark);
    });
  }
  Retired.fetch_add(Freed, std::memory_order_relaxed);
  EpochDomain::global().tryAdvance();
  return Freed;
}
