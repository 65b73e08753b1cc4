//===- wal/Checkpoint.h - Checkpoints and crash recovery --------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpoints bound recovery time: instead of replaying a relation's
/// whole WAL partition from the beginning of history, recovery loads
/// the newest complete snapshot and replays only the records stamped
/// after its watermark.
///
/// **Watermark correctness.** A checkpoint is taken under the
/// relation's operation-gate barrier (ConcurrentRelation::
/// checkpointSnapshot): the drain flushes every in-flight operation —
/// including its WAL append, which happens inside the gate — and the
/// commit clock is read *after* the drain. Every mutation this
/// relation logged with commitSeq ≤ watermark is therefore contained
/// in the snapshot, and every mutation with commitSeq > watermark is
/// not; replaying exactly the records above the watermark, in
/// commitSeq order, reconstructs the crashed process's committed
/// state. Replay is idempotent by the put-if-absent shape of the
/// public API (the migration mirror's machinery): re-inserting a
/// present tuple loses the put-if-absent race benignly, re-removing an
/// absent one removes zero rows.
///
/// **Atomicity on disk.** A checkpoint is written to a temp file,
/// fsynced, then renamed into place (`ckpt-<shard>-<watermark>`): a
/// kill during checkpointing leaves either the previous checkpoint
/// set intact (temp never renamed) or a complete new file. Recovery
/// additionally validates content — the file reuses the WAL's
/// CRC-per-record format with a sentinel trailer record, so a torn or
/// corrupted file (however it got there) is detected and the previous
/// checkpoint used instead; with no valid checkpoint at all, recovery
/// replays the WAL from the start, which is always correct, just
/// slower.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_WAL_CHECKPOINT_H
#define CRS_WAL_CHECKPOINT_H

#include "wal/Wal.h"

#include <cstdint>
#include <string>
#include <vector>

namespace crs {

class ConcurrentRelation;
class ShardedRelation;

/// A decoded checkpoint: the relation's full tuple set as of the
/// watermark (see the file comment for the consistency argument).
struct CheckpointData {
  uint64_t Watermark = 0;
  uint32_t Shard = 0;
  std::vector<Tuple> Tuples;
};

/// Writes a checkpoint of \p R into \p Dir (created if absent) as
/// `ckpt-<Shard>-<watermark>`, via temp file + fsync + rename. Briefly
/// closes \p R's operation gate (the snapshot barrier). Returns the
/// watermark through \p Watermark (optional). False plus \p Err on I/O
/// failure.
bool writeCheckpoint(ConcurrentRelation &R, const std::string &Dir,
                     uint32_t Shard, uint64_t *Watermark = nullptr,
                     std::string *Err = nullptr);

/// Checkpoints every shard of \p R into \p Dir, one shard at a time
/// (each shard's gate closes in turn — the same rolling discipline as
/// sharded migration). False on the first failing shard.
bool writeShardedCheckpoint(ShardedRelation &R, const std::string &Dir,
                            std::string *Err = nullptr);

/// Reads and validates one checkpoint file. False if the file is
/// missing, torn, corrupt, or lacks the completion trailer — exactly
/// the kill-during-checkpoint leftovers recovery must reject.
bool readCheckpoint(const std::string &Path, CheckpointData &Out);

/// The `ckpt-<shard>-<watermark>` path for a checkpoint in \p Dir.
std::string checkpointPath(const std::string &Dir, uint32_t Shard,
                           uint64_t Watermark);

/// Watermarks of every checkpoint file present for \p Shard in \p Dir
/// (by filename only — not validated), sorted ascending.
std::vector<uint64_t> listCheckpoints(const std::string &Dir, uint32_t Shard);

/// Applies \p Rec's mutations to \p R in order through the public
/// put-if-absent API: the one WAL replay, shared by recovery and
/// followers. Returns the anomalies — inserts that found the tuple
/// already present and removes that found nothing.
size_t replayWalRecord(ConcurrentRelation &R, const WalRecord &Rec);

/// What one recovery did (per shard).
struct RecoveryResult {
  bool Ok = false;
  std::string Error;
  uint64_t CheckpointSeq = 0;     ///< watermark restored from (0: none)
  size_t CheckpointTuples = 0;    ///< tuples loaded from the checkpoint
  size_t RecordsReplayed = 0;     ///< WAL records with seq > watermark
  size_t MutationsApplied = 0;    ///< individual mutations replayed
  bool TornTail = false;          ///< the WAL ended mid-record (truncated)
  uint64_t TruncatedBytes = 0;    ///< torn bytes cut off the partition
  size_t Anomalies = 0; ///< replays that found the state already there
                        ///< (idempotent overlaps; >0 is fine, it means
                        ///< the checkpoint and log overlapped benignly)
};

/// Rebuilds \p R — which must be freshly constructed and empty — from
/// \p Dir: loads the newest valid checkpoint for \p Shard (falling
/// back through older ones past any corrupt file), replays WAL
/// partition \p Partition's records above the watermark in commitSeq
/// order through the public put-if-absent API, and truncates a torn
/// WAL tail so the reopened log appends cleanly. The WAL and
/// checkpoints may live in the same directory (distinct file names).
RecoveryResult recoverRelation(ConcurrentRelation &R, const std::string &Dir,
                               uint32_t Shard = 0, uint32_t Partition = 0);

/// Recovers every shard of \p R (freshly constructed, same shard count
/// as the writer fleet) from \p Dir: shard i from its checkpoints plus
/// WAL partition i. Aggregates per-shard results; Ok iff every shard
/// recovered.
RecoveryResult recoverShardedRelation(ShardedRelation &R,
                                      const std::string &Dir);

} // namespace crs

#endif // CRS_WAL_CHECKPOINT_H
