//===- sync/CommitClock.cpp - Process-global commit/birth clocks -------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "sync/CommitClock.h"

#include "sync/Backoff.h"
#include "sync/LockOrderValidator.h"

#include <atomic>
#include <cassert>

using namespace crs;

namespace {

/// One clock per cache line (see the header's false-sharing note).
struct alignas(64) PaddedClock {
  std::atomic<uint64_t> V{0};
};

PaddedClock CommitClock;
PaddedClock BirthClock;

/// One registry slot per cache line: committers and snapshot readers
/// CAS/store their own slot and scan the others; padding keeps a hot
/// committer from invalidating its neighbors' lines.
struct alignas(64) RegistrySlot {
  std::atomic<uint64_t> V{0}; ///< 0 = free
};

/// Enough slots for far more concurrent committers / open snapshots
/// than any realistic thread count; a claimant past the end waits for
/// a free slot (commits and snapshot acquisitions are short).
constexpr unsigned NumSlots = 128;

RegistrySlot InFlight[NumSlots];  ///< commit sequences mid-install
RegistrySlot Snapshots[NumSlots]; ///< open snapshot sequences

/// Claims the first free slot of \p Reg by CAS-publishing \p Pin.
/// The publishing store is the CAS itself (seq_cst), so the slot is
/// never observable as claimed-but-empty.
unsigned claimSlot(RegistrySlot *Reg, uint64_t Pin) {
  assert(Pin != 0 && "0 marks a free slot");
  for (Backoff B(WaitSite::CommitSlot);; B.pause()) // > NumSlots claimants
    for (unsigned I = 0; I < NumSlots; ++I) {
      uint64_t Free = 0;
      if (Reg[I].V.load(std::memory_order_relaxed) == 0 &&
          Reg[I].V.compare_exchange_strong(Free, Pin,
                                           std::memory_order_seq_cst))
        return I;
    }
}

/// The commit clock, once every commit stamped at or below it has
/// finished installing: reads the clock, then waits (sync/Backoff.h)
/// until no in-flight slot holds a sequence at or below that reading.
/// A commit with Seq ≤ the reading claimed its slot before stamping, so
/// the seq_cst clock load orders that claim before the slot scan: the
/// scan sees the claim, the settled sequence, or the release (which
/// publishes the commit's installs). A slot above the reading belongs
/// to a later commit and is not waited for.
uint64_t drainedCommitClock() {
  uint64_t C = CommitClock.V.load(std::memory_order_seq_cst);
  for (unsigned I = 0; I < NumSlots; ++I)
    for (Backoff B(WaitSite::CommitDrain);; B.pause()) {
      uint64_t V = InFlight[I].V.load(std::memory_order_seq_cst);
      if (V == 0 || V > C)
        break;
    }
  return C;
}

/// Min over the live slots of \p Reg, each reduced by \p Sub, floored
/// into \p Min.
void foldSlots(const RegistrySlot *Reg, uint64_t Sub, uint64_t &Min) {
  for (unsigned I = 0; I < NumSlots; ++I) {
    uint64_t V = Reg[I].V.load(std::memory_order_seq_cst);
    if (V != 0 && V - Sub < Min)
      Min = V - Sub;
  }
}

} // namespace

uint64_t crs::nextCommitSeq() {
  return CommitClock.V.fetch_add(1, std::memory_order_acq_rel) + 1;
}

uint64_t crs::commitClockNow() {
  return CommitClock.V.load(std::memory_order_acquire);
}

uint64_t crs::nextTxnBirthStamp() {
  return BirthClock.V.fetch_add(1, std::memory_order_acq_rel) + 1;
}

CommitTicket crs::beginCommit() {
  // Claim with a conservative pin *before* stamping: clock+1 is ≤ the
  // sequence the stamp below will draw (the clock is monotone), and the
  // claim is seq_cst — a stableSnapshotSeq() whose slot scan misses
  // this claim must have run its clock load before the stamp, so its
  // snapshot sits below the new sequence either way.
  CommitTicket T;
  T.Slot = claimSlot(InFlight, commitClockNow() + 1);
  T.Seq = nextCommitSeq();
  // Settle the slot to the real sequence (a raise: Seq ≥ the pin).
  InFlight[T.Slot].V.store(T.Seq, std::memory_order_seq_cst);
  return T;
}

void crs::endCommit(const CommitTicket &T) {
  assert(T.Seq != 0 && T.Slot < NumSlots);
  assert(InFlight[T.Slot].V.load(std::memory_order_relaxed) == T.Seq);
  InFlight[T.Slot].V.store(0, std::memory_order_seq_cst);
}

uint64_t crs::stableSnapshotSeq() {
  // Clock first, slots second (both seq_cst): see beginCommit's
  // interleaving argument. An in-flight slot holding V bounds its
  // commit's sequence from below, so V−1 is safe.
  uint64_t Min = commitClockNow();
  foldSlots(InFlight, /*Sub=*/1, Min);
  return Min;
}

unsigned crs::acquireSnapshotSlot(uint64_t &Snap) {
  // The wait below would never end if this thread held a lock some
  // in-flight committer is queued on (or a ticket of its own).
  assert(LockOrderValidator::liveSets() == 0 &&
         "snapshot acquisition waits for in-flight commits; hold no "
         "relation lock");
  // Two-step publish. The pin is a *pre-claim* stable sequence, at or
  // below the clock, so the snapshot settled on after the claim (a
  // later clock reading) sits at or above it — the slot never
  // overstates the snapshot it protects, and a concurrent
  // snapshotWatermark() folding the pin can never overshoot the
  // snapshot we settle on. Settling after the claim is what makes the
  // snapshot durable against pruning: any version retired before this
  // slot became visible had End ≤ the watermark then, which is ≤ the
  // clock we settle on — invisible at this snapshot anyway.
  uint64_t Pin = stableSnapshotSeq();
  unsigned Slot = claimSlot(Snapshots, Pin ? Pin : 1);
  Snap = drainedCommitClock();
  Snapshots[Slot].V.store(Snap ? Snap : 1, std::memory_order_seq_cst);
  return Slot;
}

void crs::releaseSnapshotSlot(unsigned Slot) {
  assert(Slot < NumSlots);
  Snapshots[Slot].V.store(0, std::memory_order_seq_cst);
}

uint64_t crs::snapshotWatermark() {
  uint64_t Min = stableSnapshotSeq();
  foldSlots(Snapshots, /*Sub=*/0, Min);
  return Min;
}

unsigned crs::activeSnapshots() {
  unsigned N = 0;
  for (unsigned I = 0; I < NumSlots; ++I)
    if (Snapshots[I].V.load(std::memory_order_relaxed) != 0)
      ++N;
  return N;
}
