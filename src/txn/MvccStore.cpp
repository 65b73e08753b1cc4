//===- txn/MvccStore.cpp - Per-tuple version chains for MVCC -----------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "txn/MvccStore.h"

#include "obs/MemoryLedger.h"
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

/// One tuple identity's chain. Head is the newest version; the chain
/// node itself lives on the primary table and reclaims (epoch-deferred)
/// once every version is gone.
struct MvccStore::Chain : GrowableHashLinks<Chain> {
  Tuple Key;
  std::atomic<Version *> Head{nullptr};
};

/// One secondary-directory entry: a chain reachable by its projected
/// sub-key (π_dir-cols of the chain key, recomputed rather than stored).
/// Lives on its directory's table; retired with its chain.
struct MvccStore::DirLink : GrowableHashLinks<DirLink> {
  Chain *C = nullptr;
};

/// One secondary directory: sub-key → chains, over a proper nonempty
/// subset of the identity columns. Registered on a grow-only list.
struct MvccStore::Directory {
  ColumnSet Cols;
  GrowableHashTable<DirLink> Links;
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
    D->Links.forEach([](DirLink *L) {
      delete L;
      return true;
    });
    delete D;
  }
};

MvccStore::MvccStore(const RelationSpec &Spec, size_t ExpectedCardinality) {
  AllCols = Spec.allColumns();
  std::vector<ColumnSet> Keys = Spec.minimalKeys();
  KeyCols = Keys.empty() ? AllCols : Keys.front();
  Primary = std::make_unique<GrowableHashTable<Chain>>(ExpectedCardinality);
}

MvccStore::~MvccStore() {
  // The relation is dying: no reader can hold a guard over our nodes
  // legitimately (stores must outlive every scope that reads them —
  // same contract as the relation itself). Free directly.
  Primary->forEach([](Chain *C) {
    Version *V = C->Head.load(std::memory_order_relaxed);
    while (V) {
      Version *VN = V->Next.load(std::memory_order_relaxed);
      delete V;
      V = VN;
    }
    delete C;
    return true;
  });
  Directory *D = Dirs.load(std::memory_order_relaxed);
  while (D) {
    Directory *DN = D->Next.load(std::memory_order_relaxed);
    Directory::destroy(D);
    D = DN;
  }
}

MvccStore::Chain *MvccStore::findChain(const Tuple &Key, uint64_t H) const {
  return Primary->find(H, [&](const Chain *C) { return C->Key == Key; });
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
    if (D.Links.find(H, [&](const DirLink *L) { return L->C == C; }))
      return; // already linked (install raced the backfill)
    DirLink *L = new DirLink;
    L->C = C;
    Grow = D.Links.push(L, H);
  }
  // Still under C's primary stripe: directory stripes always come
  // after a primary stripe, never before one, so taking all of them
  // here keeps the order.
  if (Grow)
    grow(D.Links, D.Cols, [&](const DirLink *L) { return D.hashOf(L->C); });
}

template <typename Table, typename F>
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
    Installed.inc();
    if (size_t Freed = pruneChainLocked(C, snapshotWatermark()))
      Retired.inc(Freed);
  }
  if (Grow)
    grow(*Primary, ColumnSet(), [](const Chain *X) { return X->Key.hash(); });
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
  if (size_t Freed = pruneChainLocked(C, snapshotWatermark()))
    Retired.inc(Freed);
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
    // Point read: the primary directory resolves the one chain. A chain
    // key binds exactly KeyCols, so S extends it iff π_KeyCols(S) equals
    // it — no projection is built.
    if (const Chain *C = Primary->find(S.hashOf(KeyCols), [&](const Chain *X) {
          ++Local.LinksScanned;
          return S.extends(X->Key);
        }))
      VisitChain(C);
  } else if (const Directory *D = directoryFor(S.domain())) {
    // Directory-served: only the chains extending the projected
    // sub-key, O(matching chains) + the bucket list walked.
    Local.DirectoryServed = true;
    Tuple Sub = S.project(D->Cols);
    const auto &A = D->Links.heads();
    for (const DirLink *L = D->Links.first(A, Sub.hash()); L;
         L = D->Links.next(A, L)) {
      ++Local.LinksScanned;
      if (L->C->Key.extends(Sub))
        VisitChain(L->C);
    }
  } else {
    // No access path: the documented whole-store fallback. Callers
    // (Transaction::query) use the FullScan report to request a
    // directory for next time.
    Local.FullScan = true;
    Primary->forEach([&](const Chain *C) {
      ++Local.LinksScanned;
      VisitChain(C);
      return true;
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
  for (size_t S = 0; S < GrowableHashTable<Chain>::NumStripes; ++S) {
    std::lock_guard<std::mutex> G(Primary->stripe(S));
    Primary->forEachInStripe(S, [&](Chain *C) {
      linkChainToDir(*D, C);
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

void MvccStore::memoryBytes(uint64_t &Versions,
                            uint64_t &Directories) const {
  using obs::heapChunkBytes;
  auto TupleBytes = [](ColumnSet C) {
    return heapChunkBytes(C.size() * sizeof(std::pair<ColumnId, Value>));
  };
  Versions = liveVersions() *
                 (heapChunkBytes(sizeof(Version)) + TupleBytes(AllCols)) +
             Primary->entries() *
                 (heapChunkBytes(sizeof(Chain)) + TupleBytes(KeyCols));
  EpochDomain::Guard EG;
  Directories = Primary->buckets() * sizeof(void *);
  for (Directory *D = Dirs.load(std::memory_order_acquire); D;
       D = D->Next.load(std::memory_order_acquire))
    Directories += heapChunkBytes(sizeof(Directory)) +
                   D->Links.buckets() * sizeof(void *) +
                   D->Links.entries() * heapChunkBytes(sizeof(DirLink));
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
  const auto &A = Primary->heads();
  for (size_t B = 0; B <= A.Mask; ++B) {
    size_t Len = 0;
    for (const Chain *X = Primary->first(A, B); X; X = Primary->next(A, X))
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
  Primary->unlinkIf(C->Key.hash(), [&](const Chain *X) { return X == C; });
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
    if (DirLink *L = Dir->Links.unlinkIf(
            H, [&](const DirLink *X) { return X->C == C; }))
      D.retireObject(L);
  }
  D.retireObject(C);
  return Freed;
}

size_t MvccStore::prune(uint64_t Watermark) {
  size_t Freed = 0;
  for (size_t S = 0; S < GrowableHashTable<Chain>::NumStripes; ++S) {
    std::lock_guard<std::mutex> G(Primary->stripe(S));
    // forEachInStripe snapshots the stripe's chains first:
    // pruneChainLocked may unlink the chain under our feet.
    Primary->forEachInStripe(S, [&](Chain *C) {
      Freed += pruneChainLocked(C, Watermark);
    });
  }
  Retired.inc(Freed);
  EpochDomain::global().tryAdvance();
  return Freed;
}
