//===- obs/EventRing.cpp - Bounded structured event-trace rings -----------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "obs/EventRing.h"

#include <chrono>

namespace crs {
namespace obs {

const char *domainName(EventDomain D) {
  switch (D) {
  case EventDomain::Relation:
    return "relation";
  case EventDomain::Txn:
    return "txn";
  case EventDomain::Wal:
    return "wal";
  case EventDomain::Epoch:
    return "epoch";
  case EventDomain::Migration:
    return "migration";
  case EventDomain::Tuner:
    return "tuner";
  }
  return "unknown";
}

const char *kindName(EventKind K) {
  switch (K) {
  case EventKind::MigrationDualWrite:
    return "MigrationDualWrite";
  case EventKind::MigrationSwap:
    return "MigrationSwap";
  case EventKind::MigrationRetired:
    return "MigrationRetired";
  case EventKind::TunerDecision:
    return "TunerDecision";
  case EventKind::TunerMigrated:
    return "TunerMigrated";
  case EventKind::TxnAbort:
    return "TxnAbort";
  case EventKind::WalFlushRound:
    return "WalFlushRound";
  case EventKind::WalSegmentRotate:
    return "WalSegmentRotate";
  case EventKind::CheckpointBegin:
    return "CheckpointBegin";
  case EventKind::CheckpointEnd:
    return "CheckpointEnd";
  case EventKind::EpochAdvance:
    return "EpochAdvance";
  case EventKind::DirectoryBackfill:
    return "DirectoryBackfill";
  case EventKind::DirectoryRetire:
    return "DirectoryRetire";
  case EventKind::VersionStoreResize:
    return "VersionStoreResize";
  }
  return "Unknown";
}

static uint64_t nowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void TraceRing::emit(EventKind Kind, uint64_t A, uint64_t B, uint64_t C) {
  const uint64_t Seq = Next.fetch_add(1, std::memory_order_relaxed);
  Slot &S = Slots[Seq % Capacity];
  // Invalidate first so a concurrent reader's stamp re-check rejects a
  // half-overwritten slot, then fill, then publish with the new stamp.
  S.Stamp.store(0, std::memory_order_release);
  S.Micros.store(nowMicros(), std::memory_order_relaxed);
  S.Kind.store(static_cast<uint32_t>(Kind), std::memory_order_relaxed);
  S.A.store(A, std::memory_order_relaxed);
  S.B.store(B, std::memory_order_relaxed);
  S.C.store(C, std::memory_order_relaxed);
  S.Stamp.store(Seq + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  std::vector<TraceEvent> Out;
  const uint64_t End = Next.load(std::memory_order_acquire);
  const uint64_t Begin = End > Capacity ? End - Capacity : 0;
  Out.reserve(static_cast<size_t>(End - Begin));
  for (uint64_t Seq = Begin; Seq < End; ++Seq) {
    const Slot &S = Slots[Seq % Capacity];
    if (S.Stamp.load(std::memory_order_acquire) != Seq + 1)
      continue; // still being written, or already lapped
    TraceEvent E;
    E.Seq = Seq;
    E.Micros = S.Micros.load(std::memory_order_relaxed);
    E.Kind = static_cast<EventKind>(S.Kind.load(std::memory_order_relaxed));
    E.A = S.A.load(std::memory_order_relaxed);
    E.B = S.B.load(std::memory_order_relaxed);
    E.C = S.C.load(std::memory_order_relaxed);
    // Re-check: a writer that lapped us invalidated the stamp before
    // touching the payload, so a stable stamp means a coherent event.
    if (S.Stamp.load(std::memory_order_acquire) != Seq + 1)
      continue;
    Out.push_back(E);
  }
  return Out;
}

} // namespace obs
} // namespace crs
