//===- sync/Epoch.cpp - Epoch-based deferred reclamation ----------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "sync/Epoch.h"

#include "obs/Metrics.h"
#include "support/Compiler.h"
#include "sync/Backoff.h"

using namespace crs;

//===----------------------------------------------------------------------===//
// Thread-local slot cache
//===----------------------------------------------------------------------===//

namespace crs {

/// Per-thread view of the domains this thread participates in. A thread
/// acquires a slot on first guard entry into a domain and keeps it until
/// thread exit (re-entries are a nesting-depth bump). The weak alive
/// token guards the release path against a domain that was destroyed
/// first (legal for quiescent test-scoped domains).
struct EpochThreadCache {
  struct Entry {
    EpochDomain *Dom = nullptr;
    EpochDomain::Slot *S = nullptr;
    uint32_t Depth = 0;
    std::weak_ptr<char> Alive;
  };
  // Two domains per thread covers the runtime (the global domain) plus
  // one test-local domain; rare extras search the overflow vector.
  Entry Fixed[2];
  std::vector<Entry> Overflow;

  Entry *find(EpochDomain *D) {
    for (Entry &E : Fixed)
      if (E.Dom == D && !E.Alive.expired())
        return &E;
    for (Entry &E : Overflow)
      if (E.Dom == D && !E.Alive.expired())
        return &E;
    return nullptr;
  }

  Entry *add(EpochDomain *D, EpochDomain::Slot *S,
             std::weak_ptr<char> Alive) {
    for (Entry &E : Fixed)
      if (E.Dom == nullptr || E.Alive.expired()) {
        E = {D, S, 0, std::move(Alive)};
        return &E;
      }
    Overflow.push_back({D, S, 0, std::move(Alive)});
    return &Overflow.back();
  }

  ~EpochThreadCache() {
    auto Release = [](Entry &E) {
      if (!E.Dom)
        return;
      // Pinning at thread exit would wedge every future grace period;
      // a guard must not outlive its thread.
      assert(E.Depth == 0 && "thread exited inside an epoch guard");
      if (auto Token = E.Alive.lock()) {
        E.S->E.store(0, std::memory_order_release);
        E.S->InUse.store(false, std::memory_order_release);
      }
    };
    for (Entry &E : Fixed)
      Release(E);
    for (Entry &E : Overflow)
      Release(E);
  }
};

} // namespace crs

static EpochThreadCache &threadCache() {
  static thread_local EpochThreadCache Cache;
  return Cache;
}

//===----------------------------------------------------------------------===//
// EpochDomain
//===----------------------------------------------------------------------===//

EpochDomain::EpochDomain() = default;

EpochDomain::~EpochDomain() {
  // Destruction requires quiescence (no active guards, like any other
  // shared structure here). Pending retirees are still owed their
  // deleters: with no guards left, every grace period has trivially
  // elapsed.
  detachMetrics(); // registry callbacks capture `this`
  AliveToken.reset(); // detach surviving thread caches first
  for (Retiree &R : Retired)
    R.Del(R.Obj);
  Retired.clear();
  SlotBlock *B = Head.Next.load(std::memory_order_acquire);
  while (B) {
    SlotBlock *Next = B->Next.load(std::memory_order_acquire);
    delete B;
    B = Next;
  }
}

EpochDomain &EpochDomain::global() {
  // Leaked singleton: threads may unpin slots during late thread-local
  // destruction, so the domain must outlive every thread.
  static EpochDomain *D = new EpochDomain();
  return *D;
}

EpochDomain::Slot *EpochDomain::acquireSlot() {
  for (SlotBlock *B = &Head;;) {
    for (Slot &S : B->S) {
      bool Expected = false;
      if (!S.InUse.load(std::memory_order_relaxed) &&
          S.InUse.compare_exchange_strong(Expected, true,
                                          std::memory_order_acq_rel))
        return &S;
    }
    SlotBlock *Next = B->Next.load(std::memory_order_acquire);
    if (!Next) {
      std::lock_guard<std::mutex> G(GrowM);
      Next = B->Next.load(std::memory_order_acquire);
      if (!Next) {
        Next = new SlotBlock();
        B->Next.store(Next, std::memory_order_release);
      }
    }
    B = Next;
  }
}

void EpochDomain::enter() {
  EpochThreadCache &Cache = threadCache();
  EpochThreadCache::Entry *E = Cache.find(this);
  if (!E)
    E = Cache.add(this, acquireSlot(), AliveToken);
  if (E->Depth++ != 0)
    return; // nested guard: already pinned
  // Pin protocol (see Epoch.h): publish a pin, then re-validate against
  // the global epoch once. If an advance raced past the first store, the
  // re-pin lands at the advanced epoch E2 — and any object retired
  // before the advance to E2 was unpublished (seq_cst) before our
  // re-validation load, so the reads this guard protects cannot reach
  // it. A pin one epoch stale is merely conservative: it blocks the
  // *second* advance, never reclamation safety.
  uint64_t E1 = GlobalE.load(std::memory_order_seq_cst);
  E->S->E.store(E1, std::memory_order_seq_cst);
  uint64_t E2 = GlobalE.load(std::memory_order_seq_cst);
  if (E2 != E1)
    E->S->E.store(E2, std::memory_order_seq_cst);
}

void EpochDomain::exit() {
  EpochThreadCache::Entry *E = threadCache().find(this);
  assert(E && E->Depth > 0 && "guard exit without matching entry");
  if (--E->Depth == 0)
    E->S->E.store(0, std::memory_order_release);
}

bool EpochDomain::inGuard() const {
  EpochThreadCache::Entry *E =
      threadCache().find(const_cast<EpochDomain *>(this));
  return E && E->Depth > 0;
}

void EpochDomain::retire(void *Obj, void (*Del)(void *)) {
  uint64_t Stamp = GlobalE.load(std::memory_order_seq_cst);
  size_t Backlog;
  {
    std::lock_guard<std::mutex> G(RetireM);
    Retired.push_back({Obj, Del, Stamp});
    Backlog = Retired.size();
  }
  if (Backlog >= AdvanceBacklog)
    tryAdvance();
}

bool EpochDomain::tryAdvance() {
  uint64_t G = GlobalE.load(std::memory_order_seq_cst);
  // Every active slot must have entered the current epoch; a slot still
  // pinning an older epoch is a guard from before the last advance, and
  // the grace-period accounting (free at stamp + 2) needs it to exit
  // before the epoch moves twice.
  for (SlotBlock *B = &Head; B; B = B->Next.load(std::memory_order_acquire))
    for (Slot &S : B->S) {
      uint64_t E = S.E.load(std::memory_order_seq_cst);
      if (E != 0 && E != G)
        return false;
    }
  if (!GlobalE.compare_exchange_strong(G, G + 1, std::memory_order_seq_cst))
    return false; // another collector advanced first
  size_t Freed = reclaim(G + 1);
  if (obs::TraceRing *Ring = Trace.load(std::memory_order_acquire))
    Ring->emit(obs::EventKind::EpochAdvance, G + 1, pendingRetires(),
               Freed);
  return true;
}

size_t EpochDomain::reclaim(uint64_t Now) {
  // Free retirees whose grace period elapsed: stamped at R, safe once
  // the epoch reached R + 2 (both advances scanned every slot that
  // could have pinned R or earlier). Deleters run outside the mutex.
  std::vector<Retiree> Free;
  {
    std::lock_guard<std::mutex> G(RetireM);
    size_t Kept = 0;
    for (Retiree &R : Retired) {
      if (R.Epoch + 2 <= Now)
        Free.push_back(R);
      else
        Retired[Kept++] = R;
    }
    Retired.resize(Kept);
  }
  for (Retiree &R : Free)
    R.Del(R.Obj);
  if (!Free.empty())
    Reclaimed.fetch_add(Free.size(), std::memory_order_relaxed);
  return Free.size();
}

void EpochDomain::synchronize() {
  assert(!inGuard() && "synchronize would deadlock inside a guard");
  // Two completed advances: any guard active at the call pins either
  // the pre-call epoch (blocks the first advance) or one behind it
  // (blocks it too); a guard entered mid-wait pins the then-current
  // epoch and blocks at most one more. Either way, once the epoch has
  // moved twice, every pre-call guard has exited.
  uint64_t Target = GlobalE.load(std::memory_order_seq_cst) + 2;
  Backoff B(WaitSite::EpochSync);
  while (GlobalE.load(std::memory_order_seq_cst) < Target) {
    if (!tryAdvance())
      B.pause();
  }
}

size_t EpochDomain::pendingRetires() const {
  std::lock_guard<std::mutex> G(RetireM);
  return Retired.size();
}

void EpochDomain::attachMetrics(obs::MetricsRegistry &R) {
  detachMetrics();
  MetricsReg = &R;
  using CK = obs::MetricsRegistry::CallbackKind;
  MetricsCallbacks.push_back(R.addCallback("epoch.current", {}, CK::Gauge,
                                           [this] { return epoch(); }));
  MetricsCallbacks.push_back(
      R.addCallback("epoch.pending_retires", {}, CK::Gauge,
                    [this] { return uint64_t(pendingRetires()); }));
  MetricsCallbacks.push_back(R.addCallback(
      "epoch.reclaimed", {}, CK::Counter, [this] { return reclaimed(); }));
  Trace.store(&R.ring(obs::EventDomain::Epoch), std::memory_order_release);
}

void EpochDomain::detachMetrics() {
  Trace.store(nullptr, std::memory_order_release);
  if (MetricsReg) {
    MetricsReg->removeCallbacks(MetricsCallbacks);
    MetricsCallbacks.clear();
    MetricsReg = nullptr;
  }
}
