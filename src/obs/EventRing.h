//===- obs/EventRing.h - Bounded structured event-trace rings ---*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded MPSC-ish ring of timestamped structured events, one ring
/// per subsystem domain. Counters (obs/Metrics.h) answer "how much";
/// the rings answer "what happened, in what order" — migration phase
/// flips, tuner decisions with their scores, transaction aborts with
/// their cause, WAL flush rounds with batch sizes and fsync micros,
/// checkpoint begin/end with the watermark, epoch advances with the
/// retire backlog, directory backfills and retirements.
///
/// Emission is wait-free: one relaxed fetch_add claims a slot, plain
/// atomic stores fill it, and a release store of the slot's sequence
/// stamp publishes it. Every slot field is an atomic, so concurrent
/// overwrite is a benign logical race, never a data race (TSan-clean).
/// Draining is non-destructive — an inspector snapshots the last
/// `Capacity` events without disturbing writers; a slot whose stamp
/// changes mid-read (a writer lapped the reader) is simply dropped.
/// The ring stores fixed-width payload words, not strings: decoding
/// (kind names, cause names) happens at snapshot/export time.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_OBS_EVENTRING_H
#define CRS_OBS_EVENTRING_H

#include <atomic>
#include <cstdint>
#include <vector>

namespace crs {
namespace obs {

/// The subsystem a ring (and each of its events) belongs to. One ring
/// per domain keeps chatty subsystems (WAL flush rounds) from evicting
/// rare, precious events elsewhere (migration flips).
enum class EventDomain : uint8_t {
  Relation,  ///< plan-cache / directory lifecycle on one relation
  Txn,       ///< transaction aborts (wait-die kills, upgrades, budget)
  Wal,       ///< flush rounds, segment rotations, checkpoints
  Epoch,     ///< global-epoch advances and reclamation
  Migration, ///< live-migration phase transitions
  Tuner,     ///< tuner ticks that scored or launched a migration
};
constexpr unsigned NumEventDomains = 6;

/// What happened. Payload words A/B/C are kind-specific; the meanings
/// are documented per enumerator and decoded by the exporter.
enum class EventKind : uint32_t {
  /// Migration entered dual-write (mirroring) phase. A=plan epoch
  /// after the flip, B=relation size at the flip.
  MigrationDualWrite,
  /// Migration swapped the primary representation (flip 2). A=plan
  /// epoch after the flip, B=mirrored inserts, C=mirrored removes.
  MigrationSwap,
  /// Migration finished: old representation retired to the epoch
  /// domain. A=backfilled tuples, B=dual-write phase micros.
  MigrationRetired,
  /// A tuner tick scored candidates. A=current cost (x1000),
  /// B=best candidate cost (x1000), C=confirmation streak.
  TunerDecision,
  /// A tuner tick launched a migration. A=winning candidate ordinal,
  /// B=best cost (x1000), C=measured mean op latency in nanos (0 if
  /// no latency histograms were attached).
  TunerMigrated,
  /// A transaction aborted. A=TxnAbortCause enumerator, B=birth stamp
  /// (wait-die age) of the dying scope, C=ops executed before death.
  TxnAbort,
  /// One WAL group-commit flush round. A=bytes moved, B=fsync+write
  /// micros for the round, C=partitions that had data.
  WalFlushRound,
  /// A WAL partition rotated to a new segment file. A=partition,
  /// B=sealed segment index, C=sealed max commit seq.
  WalSegmentRotate,
  /// Checkpoint capture started. A=shard index.
  CheckpointBegin,
  /// Checkpoint capture finished. A=shard index, B=watermark (commit
  /// seq), C=tuples written.
  CheckpointEnd,
  /// The global epoch advanced. A=new epoch, B=retire backlog left
  /// after the advance's reclamation, C=objects reclaimed by it.
  EpochAdvance,
  /// A secondary chain directory finished backfilling. A=directory
  /// column bits, B=buckets, C=chains linked.
  DirectoryBackfill,
  /// A secondary chain directory was retired (its query signature left
  /// the plan cache). A=directory column bits, B=chains unlinked.
  DirectoryRetire,
  /// A version-store hash table doubled. A=directory column bits (0 for
  /// the primary directory), B=new bucket count, C=entries re-linked.
  VersionStoreResize,
};

/// Stable lowercase name for a domain ("migration", "wal", ...).
const char *domainName(EventDomain D);
/// Stable PascalCase name for an event kind ("MigrationSwap", ...).
const char *kindName(EventKind K);

/// One decoded event, as returned by TraceRing::snapshot().
struct TraceEvent {
  uint64_t Seq;    ///< ring-local sequence number (monotonic per ring)
  uint64_t Micros; ///< wall-clock unix micros at emission
  EventKind Kind;
  uint64_t A, B, C; ///< kind-specific payload words
};

/// The bounded ring itself. Fixed capacity; old events are overwritten.
class TraceRing {
public:
  static constexpr size_t Capacity = 512;

  /// Records one event. Wait-free; callable from any thread, including
  /// hot paths (one fetch_add + five relaxed stores + one release
  /// store, all to a slot only rarely contended).
  void emit(EventKind Kind, uint64_t A = 0, uint64_t B = 0, uint64_t C = 0);

  /// Non-destructively decodes the most recent events, oldest first.
  /// Slots a writer overwrote mid-read are skipped; the result is a
  /// consistent (per-slot) but possibly gappy view, which is the right
  /// contract for a diagnostic trace under live traffic.
  std::vector<TraceEvent> snapshot() const;

  /// Total events ever emitted (including overwritten ones).
  uint64_t emitted() const { return Next.load(std::memory_order_relaxed); }

private:
  struct Slot {
    /// Sequence+1 of the event the slot holds; 0 while being written.
    std::atomic<uint64_t> Stamp{0};
    std::atomic<uint64_t> Micros{0};
    std::atomic<uint32_t> Kind{0};
    std::atomic<uint64_t> A{0}, B{0}, C{0};
  };
  std::atomic<uint64_t> Next{0};
  Slot Slots[Capacity];
};

} // namespace obs
} // namespace crs

#endif // CRS_OBS_EVENTRING_H
