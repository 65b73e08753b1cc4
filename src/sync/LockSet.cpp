//===- sync/LockSet.cpp - Per-transaction lock bookkeeping -------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "sync/LockSet.h"

#include "support/Compiler.h"
#include "sync/Backoff.h"
#include "sync/LockOrderValidator.h"

using namespace crs;

// The per-thread cross-set order validator runs in debug builds only
// (it would be a per-acquisition map walk on the hot path otherwise).
#ifndef NDEBUG
#define CRS_VALIDATE_LOCK_ORDER 1
#else
#define CRS_VALIDATE_LOCK_ORDER 0
#endif

LockSet::~LockSet() { releaseAll(); }

LockSet::Entry *LockSet::findEntry(const PhysicalLock &Lock) {
  for (Entry &E : Held)
    if (E.Lock == &Lock)
      return &E;
  return nullptr;
}

const LockSet::Entry *LockSet::findEntry(const PhysicalLock &Lock) const {
  return const_cast<LockSet *>(this)->findEntry(Lock);
}

void LockSet::acquire(PhysicalLock &Lock, const LockOrderKey &Key,
                      LockMode Mode) {
  if (Entry *E = findEntry(Lock)) {
    // Mode upgrades would be a planning bug: plans acquire every lock in
    // its final mode (queries all-shared, mutations all-exclusive).
    assert((E->Mode == Mode || E->Mode == LockMode::Exclusive) &&
           "shared->exclusive upgrade is not allowed");
    (void)E;
    return;
  }
  assert(inOrder(Key) &&
         "blocking acquisition violates the global lock order");
#if CRS_VALIDATE_LOCK_ORDER
  assert(!LockOrderValidator::wouldViolate(this, orderDomain(), Key) &&
         "blocking acquisition violates the cross-set (chained-op / "
         "cross-shard / source-before-target) lock order");
#endif
  if (Lock.lock(Mode) && Counters)
    Counters->Contentions.inc();
  noteAcquired(Lock, Key, Mode);
}

void LockSet::noteAcquired(PhysicalLock &Lock, const LockOrderKey &Key,
                           LockMode Mode) {
  // Publish the scope's age to the owner table (wait-die): only
  // transaction scopes (non-zero stamp) holding exclusively, where a
  // loser of a future try needs to know who beat it.
  if (BirthStamp != 0 && Mode == LockMode::Exclusive)
    Lock.setOwnerStamp(BirthStamp);
  Held.push_back({&Lock, Mode});
  if (!HasMaxKey || MaxKey < Key) {
    MaxKey = Key;
    HasMaxKey = true;
  }
  if (Counters)
    Counters->Acquisitions.inc();
#if CRS_VALIDATE_LOCK_ORDER
  LockOrderValidator::noteHeld(this, orderDomain(), MaxKey);
#endif
}

AcquireResult LockSet::tryAcquire(PhysicalLock &Lock, const LockOrderKey &Key,
                                  LockMode Mode) {
  if (Entry *E = findEntry(Lock)) {
    assert((E->Mode == Mode || E->Mode == LockMode::Exclusive) &&
           "shared->exclusive upgrade is not allowed");
    (void)E;
    return AcquireResult::Ok;
  }
  if (!Lock.tryLock(Mode)) {
    // Snapshot the holder's age for the wait-die decision. Racy by
    // design (the holder may release concurrently — then this reads 0
    // or a successor's stamp); the transaction layer treats 0 as
    // "unknown" and falls back to its bounded budget.
    if (BirthStamp != 0)
      LastConflict = Lock.ownerStamp();
    return AcquireResult::WouldBlock;
  }
  noteAcquired(Lock, Key, Mode);
  return AcquireResult::Ok;
}

TxnAcquire LockSet::acquireTxn(PhysicalLock &Lock, const LockOrderKey &Key,
                               LockMode Mode, bool MayBlock) {
  if (const Entry *E = findEntry(Lock)) {
    // Transactions lock reads exclusively precisely so this branch can
    // never be reached with a shared entry wanting exclusive — but a
    // misuse must surface as a clean abort, not a silent under-lock.
    if (E->Mode == LockMode::Exclusive || Mode == LockMode::Shared)
      return TxnAcquire::Ok;
    return TxnAcquire::Upgrade;
  }
  if (MayBlock && inOrder(Key)) {
    // Wait by repeating the try, not by blocking in the mutex, so the
    // wait can end as wait-die says: an older holder kills this scope
    // (WouldBlock with its stamp). Transaction.h, "Deadlock freedom",
    // has the livelock a blocked waiter caused.
#if CRS_VALIDATE_LOCK_ORDER
    assert(!LockOrderValidator::wouldViolate(this, orderDomain(), Key) &&
           "waiting acquisition violates the cross-set (chained-op / "
           "cross-shard / source-before-target) lock order");
#endif
    Backoff B(WaitSite::LockWait);
    while (tryAcquire(Lock, Key, Mode) != AcquireResult::Ok) {
      if (LastConflict != 0 && LastConflict < BirthStamp)
        return TxnAcquire::WouldBlock;
      LastConflict = 0;
      B.pause();
    }
    return TxnAcquire::Ok;
  }
  return tryAcquire(Lock, Key, Mode) == AcquireResult::Ok
             ? TxnAcquire::Ok
             : TxnAcquire::WouldBlock;
}

bool LockSet::holds(const PhysicalLock &Lock) const {
  return findEntry(Lock) != nullptr;
}

bool LockSet::holdsAtLeast(const PhysicalLock &Lock, LockMode Mode) const {
  const Entry *E = findEntry(Lock);
  if (!E)
    return false;
  return E->Mode == LockMode::Exclusive || Mode == LockMode::Shared;
}

void LockSet::releaseAll() {
  for (auto It = Held.rbegin(); It != Held.rend(); ++It) {
    // Retract the owner stamp *before* the unlock: a contender must
    // never read this scope's age off a lock the scope no longer holds.
    if (BirthStamp != 0 && It->Mode == LockMode::Exclusive)
      It->Lock->clearOwnerStamp();
    It->Lock->unlock(It->Mode);
  }
  Held.clear();
  HasMaxKey = false;
#if CRS_VALIDATE_LOCK_ORDER
  LockOrderValidator::noteReleased(this);
#endif
}

void LockSet::releaseToMark(const Mark &M) {
  assert(M.HeldCount <= Held.size() &&
         "releaseToMark after an intervening release");
  for (size_t I = Held.size(); I > M.HeldCount; --I) {
    if (BirthStamp != 0 && Held[I - 1].Mode == LockMode::Exclusive)
      Held[I - 1].Lock->clearOwnerStamp();
    Held[I - 1].Lock->unlock(Held[I - 1].Mode);
  }
  Held.resize(M.HeldCount);
  HasMaxKey = M.HasMaxKey;
  MaxKey = M.MaxKey;
#if CRS_VALIDATE_LOCK_ORDER
  if (Held.empty())
    LockOrderValidator::noteReleased(this);
  else
    LockOrderValidator::noteRolledBack(this, orderDomain(), HasMaxKey,
                                       MaxKey);
#endif
}
