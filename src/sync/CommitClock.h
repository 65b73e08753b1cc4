//===- sync/CommitClock.h - Process-global commit/birth clocks --*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two process-global monotone clocks the transaction and durability
/// layers share:
///
///  * the **commit clock** — stamped under a scope's retained locks (or
///    a bare mutation's operation locks), so conflicting mutations
///    receive sequence numbers consistent with their serialization
///    order. The stress oracle replays committed scopes in this order,
///    the WAL (src/wal) logs mutations under it, and crash recovery
///    replays records sorted by it. Hoisted out of txn/Transaction.cpp
///    so bare prepared-op mutations can stamp the same clock their
///    transactional siblings use — one total commit order for the whole
///    relation fleet, whichever path wrote.
///
///  * the **birth clock** — stamps a transaction scope once, at the
///    *logical* transaction's first attempt, and keeps that stamp across
///    runTransaction retries. Wait-die compares birth stamps: an older
///    scope outranks every younger one on any contended key
///    (sync/LockSet.h carries the stamp to the lock owner tables).
///
/// Both are padded to a cache line of their own: every commit on every
/// thread RMWs the commit clock, and as bare globals the two would
/// otherwise share a line with neighboring globals (false sharing on
/// the hottest words in the transaction layer).
///
/// **MVCC registries.** Snapshot reads (txn/MvccStore.h) add two slot
/// registries alongside the commit clock:
///
///  * the **in-flight commit registry** — a committer stamps its
///    sequence through beginCommit() and holds the slot until every
///    version it installs is in the store (endCommit). A snapshot
///    acquired meanwhile (acquireSnapshotSlot) reads the commit clock
///    and waits until no commit at or below that reading is still in
///    flight, so it sees every version of every commit it covers and
///    none of a later one — never half of a multi-key (or multi-shard)
///    commit, and always the acquiring thread's own earlier commits.
///    The wait spans other threads' install windows (microseconds; a
///    Sync-mode WAL committer also parks for its fsync inside it).
///  * the **active snapshot registry** — every open snapshot publishes
///    its sequence; snapshotWatermark() is the floor below which no
///    live (or future) snapshot can look, the bound MVCC reclamation
///    prunes against. Slots publish a conservative pin (the clock) in
///    the same seq_cst step that claims them, then settle to the final
///    snapshot, so a concurrent watermark read can never overshoot a
///    snapshot being acquired.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_SYNC_COMMITCLOCK_H
#define CRS_SYNC_COMMITCLOCK_H

#include <cstdint>

namespace crs {

/// The next commit sequence number (strictly positive, strictly
/// monotone). Stamp while holding every lock the mutation touched.
/// Mutations that install MVCC versions stamp through beginCommit()
/// instead, so concurrent snapshot acquisition excludes them until
/// their versions are fully installed.
uint64_t nextCommitSeq();

/// The highest commit sequence handed out so far (0 before the first
/// commit). Read under an operation-gate barrier this is a checkpoint
/// watermark: every mutation that stamped before the barrier is ≤ this,
/// every mutation after it is > this (src/wal/Checkpoint.h).
uint64_t commitClockNow();

/// The next transaction birth stamp (strictly positive, strictly
/// monotone; a distinct clock so hot commit traffic never delays scope
/// opens). 0 is reserved as "unstamped" throughout the lock layer.
uint64_t nextTxnBirthStamp();

/// \name In-flight commit registry (MVCC)
/// @{

/// A stamped commit held open until its versions are installed.
struct CommitTicket {
  uint64_t Seq = 0;  ///< the commit sequence (nextCommitSeq)
  unsigned Slot = 0; ///< registry slot held until endCommit
};

/// Stamps the next commit sequence *and* registers it as in-flight, as
/// one protocol: the slot publishes a conservative lower bound (clock
/// before the stamp, seq_cst) before the stamp itself, so a concurrent
/// stableSnapshotSeq() or snapshot acquisition either sees the
/// registration or draws a clock value below the new sequence — there
/// is no window in which the sequence is visible through the clock but
/// absent from the registry.
/// Call under every lock the commit holds (like nextCommitSeq); call
/// endCommit() after the last version install, before or after the
/// locks release (the locks do not protect the registry).
CommitTicket beginCommit();

/// Deregisters \p T: every version of the commit is in the store, so
/// snapshots at or above T.Seq are safe to hand out.
void endCommit(const CommitTicket &T);

/// A sequence no fresh snapshot will fall below, without waiting: min
/// over the in-flight registry of (seq − 1), or the commit clock when
/// nothing is in flight. Monotone with respect to its own past results.
/// The reclamation watermark's floor; snapshots themselves settle at
/// the drained clock (acquireSnapshotSlot).
uint64_t stableSnapshotSeq();

/// @}

/// \name Active snapshot registry (MVCC reclamation watermark)
/// @{

/// Acquires a registry slot and a snapshot sequence, returned in
/// \p Snap: the commit clock, read once every commit at or below it has
/// finished installing (waiting for those still in flight). The slot
/// pins the reclamation watermark at or below Snap until
/// releaseSnapshotSlot(). The caller must hold no relation lock and no
/// CommitTicket (asserted in debug for locks): the wait could then
/// block on itself.
unsigned acquireSnapshotSlot(uint64_t &Snap);

/// Releases a slot from acquireSnapshotSlot; the watermark may then
/// advance past its snapshot.
void releaseSnapshotSlot(unsigned Slot);

/// The reclamation floor: min(stableSnapshotSeq(), every active
/// snapshot). A version whose End sequence is ≤ this is invisible to
/// every live and future snapshot and may be retired
/// (txn/MvccStore.h::prune).
uint64_t snapshotWatermark();

/// Active snapshot slots (tests).
unsigned activeSnapshots();

/// @}

} // namespace crs

#endif // CRS_SYNC_COMMITCLOCK_H
