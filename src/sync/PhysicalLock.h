//===- sync/PhysicalLock.h - Shared/exclusive physical locks ----*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Physical locks (paper §4.2–4.3): pessimistic synchronization primitives
/// held in shared or exclusive mode. Logical locks — one per decomposition
/// edge instance — are *implemented* by mapping them onto these physical
/// locks via a lock placement. Physical locks live on node instances;
/// striping (§4.4) attaches several to one node.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_SYNC_PHYSICALLOCK_H
#define CRS_SYNC_PHYSICALLOCK_H

#include <atomic>
#include <cstdint>
#include <shared_mutex>

namespace crs {

/// Lock access mode. Exclusive access excludes all other holders; shared
/// access permits other shared holders (paper §4.2).
enum class LockMode : uint8_t { Shared, Exclusive };

/// A shared/exclusive lock plus the wait-die owner stamp: one cache line
/// (a 56-B std::shared_mutex and an 8-B stamp on x86-64 glibc). Lock
/// traffic is counted by the LockSet that acquires it, into its
/// relation's counters (sync/LockSet.h), not on the lock: a per-lock
/// counter would put a shared-line RMW on every shared acquisition and
/// 16 more bytes on every lock stripe.
class PhysicalLock {
public:
  PhysicalLock() = default;
  PhysicalLock(const PhysicalLock &) = delete;
  PhysicalLock &operator=(const PhysicalLock &) = delete;

  /// Blocking acquisition. Returns whether it had to wait: true when
  /// the first try failed (a contention event).
  bool lock(LockMode Mode) {
    if (Mode == LockMode::Exclusive) {
      if (Mutex.try_lock())
        return false;
      Mutex.lock();
      return true;
    }
    if (Mutex.try_lock_shared())
      return false;
    Mutex.lock_shared();
    return true;
  }

  /// Non-blocking acquisition; used for out-of-order speculative locking
  /// (§4.5) where blocking could deadlock.
  bool tryLock(LockMode Mode) {
    return Mode == LockMode::Exclusive ? Mutex.try_lock()
                                       : Mutex.try_lock_shared();
  }

  void unlock(LockMode Mode) {
    if (Mode == LockMode::Exclusive)
      Mutex.unlock();
    else
      Mutex.unlock_shared();
  }

  /// \name Wait-die owner table (txn/Transaction.h)
  /// The birth stamp of the transaction scope holding this lock
  /// exclusively — 0 for bare operations, shared holders, and the
  /// unheld state. Written by the *holder* (set after its exclusive
  /// acquisition, cleared before its unlock) and read racily by a
  /// contender whose tryLock just failed: the contender may observe 0
  /// or a successor holder's stamp, which costs it only the wait-die
  /// fast path (it falls back to the bounded try budget), never
  /// correctness. Relaxed throughout — the stamp is a hint, ordered by
  /// nothing, and must stay off the acquisition fast path's critical
  /// dependencies.
  /// @{
  void setOwnerStamp(uint64_t S) {
    OwnerStamp.store(S, std::memory_order_relaxed);
  }
  void clearOwnerStamp() { OwnerStamp.store(0, std::memory_order_relaxed); }
  uint64_t ownerStamp() const {
    return OwnerStamp.load(std::memory_order_relaxed);
  }
  /// @}

private:
  std::shared_mutex Mutex;
  std::atomic<uint64_t> OwnerStamp{0};
};

} // namespace crs

#endif // CRS_SYNC_PHYSICALLOCK_H
