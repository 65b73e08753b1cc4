//===- wal/Wal.h - Group-commit write-ahead log -----------------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durability half of the commit-log pipeline (ROADMAP item 2): a
/// partitioned redo log fed by the same commit-stamped mutation stream
/// the transaction undo log and the stress oracle already use. One
/// record per committed (scope, shard): `(commitSeq, shard, mutations)`,
/// where each mutation is the operation kind plus the *full* tuple —
/// exactly the information an undo record carries, flipped from
/// "how to erase this effect" to "how to reproduce it".
///
/// **Ordering contract.** A record is appended to its shard's partition
/// *before* the committing operation releases any lock (the relation
/// hooks sit inside the mutation plans' lock scopes, and the
/// transaction hook inside commitWithSeq before releaseScope). Two
/// conflicting mutations therefore append in their serialization order:
/// the first committer appended while still holding the key the second
/// is waiting on. Partition file order is thus per-key serialization
/// order, and commit sequence numbers (stamped under the same locks)
/// are globally consistent with it — replaying one partition in
/// commitSeq order reproduces every per-key history exactly
/// (docs/ARCHITECTURE.md, "Durability & replication").
///
/// **Group commit.** Appenders serialize a record into the partition's
/// in-memory tail under a short mutex (memcpy-scale work — the commit
/// path never performs I/O), and a dedicated flusher thread batches the
/// accumulated tail of every partition into one write(2) + fsync(2)
/// round per park window. Scopes that require durability-on-commit
/// (FsyncMode::Sync) park at the stamp point until the round covering
/// their record completes; the park is bounded by the window, so a lone
/// writer is flushed within ParkMicros instead of waiting for company.
/// FsyncMode::Batched (the default) acknowledges after the in-memory
/// append; with nobody parked on the round, the flusher stretches its
/// cadence to the larger FlushMicros (the durability-lag bound — each
/// wakeup preempts committers when cores are scarce): every byte still
/// reaches the file in order within one cadence window, so a process
/// kill loses at most that window and a recovered prefix is always
/// mutation-consistent.
///
/// Replication reads the same files: a FollowerRelation (wal/Follower.h)
/// tails the partition segments, so a replica sees exactly the records
/// recovery would replay, in the same per-partition order.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_WAL_WAL_H
#define CRS_WAL_WAL_H

#include "obs/Metrics.h"
#include "rel/Tuple.h"
#include "support/FunctionRef.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace crs {

/// A logged mutation: the redo form of a committed effect. Insert
/// reproduces the tuple (put-if-absent keyed on the full tuple — the
/// migration mirror's idempotent replay shape); Remove erases it (the
/// full tuple is trivially a key: it determines every column).
enum class WalOp : uint8_t { Insert = 0, Remove = 1 };

struct WalMutation {
  WalOp Op = WalOp::Insert;
  Tuple Full; ///< the complete tuple inserted / removed
};

/// One decoded log record: everything shard \p Shard committed under
/// commit sequence \p CommitSeq, in execution order.
struct WalRecord {
  uint64_t CommitSeq = 0;
  uint32_t Shard = 0;
  std::vector<WalMutation> Muts;
};

/// Durability discipline of the commit path.
enum class FsyncMode : uint8_t {
  None,    ///< append to the file via the flusher; never fsync (tests)
  Batched, ///< default: ack after the in-memory append; the flusher
           ///< write+fsyncs every park window (bounded durability lag)
  Sync,    ///< ack only once an fsync covers the record (group commit:
           ///< scopes park at the stamp point, one fsync per batch)
};

/// The partitioned group-commit log. One instance serves a whole
/// relation fleet: ShardedRelation::attachWal maps shard i onto
/// partition i, a standalone ConcurrentRelation uses partition 0.
class WriteAheadLog {
public:
  struct Options {
    std::string Dir;          ///< created if absent
    unsigned Partitions = 1;  ///< one file per partition: wal-<i>.log
    FsyncMode Fsync = FsyncMode::Batched;
    /// Segment rotation threshold: once a partition's active segment
    /// file reaches this many bytes, the flusher seals it and opens the
    /// next segment (`wal-<i>.<seg>.log`; segment 0 keeps the legacy
    /// `wal-<i>.log` name). Checkpoints then delete segments whose
    /// records all fall at or below the checkpoint watermark
    /// (pruneSegments), so partition storage is bounded by the
    /// checkpoint cadence instead of growing forever. 0 disables
    /// rotation (single-file behaviour).
    uint64_t SegmentBytes = 64ull << 20;
    /// Group-commit batching window: in Sync mode, how long the flusher
    /// collects parked committers before the round that acks them all —
    /// the commit-latency bound, kept small.
    unsigned ParkMicros = 200;
    /// Flusher round cadence in Batched/None mode, where nobody waits
    /// on a round: the durability-lag bound, kept much larger than
    /// ParkMicros so a busy commit path is not taxed with per-window
    /// flusher wakeups (on few cores each round preempts the
    /// committers; see the group-commit section of the file comment).
    unsigned FlushMicros = 5000;
  };

  /// Opens (creating or appending to) the partition files under
  /// Options::Dir and starts the flusher thread. Null plus \p Err on
  /// I/O failure.
  static std::unique_ptr<WriteAheadLog> open(const Options &O,
                                             std::string *Err = nullptr);
  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog &) = delete;
  WriteAheadLog &operator=(const WriteAheadLog &) = delete;

  /// The commit-path append: serializes `(CommitSeq, Shard, Muts)` into
  /// partition \p Partition's tail under the partition mutex. **Call
  /// with every lock of the committing mutation still held** — that is
  /// what makes file order the serialization order. Under
  /// FsyncMode::Sync this parks until the record is on stable storage
  /// (bounded by the park window + one fsync); otherwise it returns
  /// after the in-memory append.
  void logCommit(uint32_t Partition, uint64_t CommitSeq, uint32_t Shard,
                 const WalMutation *Muts, size_t NumMuts);

  /// Single-mutation form for the bare-operation hooks: semantically the
  /// array overload with one `(Op, Full)` mutation, but it encodes
  /// straight from the caller's tuple — no WalMutation and no tuple copy
  /// on the per-operation commit path.
  void logCommit(uint32_t Partition, uint64_t CommitSeq, uint32_t Shard,
                 WalOp Op, const Tuple &Full);

  /// Streaming form for the transaction commit hook (ROADMAP 2c):
  /// encodes the record straight from the caller's commit log.
  /// Mutation \p I is fetched by calling \p Mut(I, Full) — the callback
  /// returns the operation kind and points \p Full at the mutation's
  /// tuple — and each tuple is encoded restricted to \p Project
  /// (projection happens *during* encoding). No WalMutation vector and
  /// no projected tuple copies are materialized on the commit path;
  /// byte-identical to the array overload fed `{Op, Full.project(
  /// Project)}` mutations (tuple entries are stored in column order, so
  /// filtering while encoding writes the same bytes — wal_test asserts
  /// the equivalence).
  void logCommit(uint32_t Partition, uint64_t CommitSeq, uint32_t Shard,
                 size_t NumMuts, ColumnSet Project,
                 function_ref<WalOp(size_t, const Tuple *&)> Mut);

  /// Synchronously drains every partition tail to its file (fsync
  /// included unless FsyncMode::None). Returns once all bytes appended
  /// before the call are written. Checkpoint/recovery tests and clean
  /// shutdown use this; the destructor calls it implicitly.
  void flush();

  /// Deletes sealed segments of \p Partition whose highest commit
  /// sequence is ≤ \p Watermark — every record in them is already
  /// covered by a checkpoint at \p Watermark, so recovery will never
  /// replay them. The active segment is never deleted. Checkpoint
  /// writers call this after the checkpoint file is durably renamed in
  /// place. Returns the number of segment files removed.
  unsigned pruneSegments(uint32_t Partition, uint64_t Watermark);

  unsigned partitions() const {
    return static_cast<unsigned>(Parts.size());
  }
  const std::string &dir() const { return Dir; }
  FsyncMode fsyncMode() const { return Mode; }

  /// \name Counters (tests and the bench harness)
  /// @{
  uint64_t recordsAppended() const {
    return Records.load(std::memory_order_relaxed);
  }
  uint64_t bytesAppended() const {
    return Bytes.load(std::memory_order_relaxed);
  }
  /// write+fsync rounds the flusher completed (≥1 appended byte each).
  uint64_t syncRounds() const {
    return Rounds.load(std::memory_order_relaxed);
  }
  /// Active-segment seals (rotations to a fresh segment file).
  uint64_t segmentRotations() const {
    return Rotations.load(std::memory_order_relaxed);
  }
  /// @}

  /// \name Observability (src/obs)
  /// Registers the log's counters with \p R under \p Labels
  /// (wal.records_appended / bytes_appended / flush_rounds /
  /// segment_rotations) and points WalFlushRound / WalSegmentRotate
  /// trace events at the registry's Wal-domain ring. Attach before
  /// traffic; the destructor detaches, so destroy the registry after
  /// the log (or call detachMetrics() first).
  /// @{
  void attachMetrics(obs::MetricsRegistry &R, obs::MetricLabels Labels = {});
  void detachMetrics();
  /// @}

private:
  WriteAheadLog() = default;

  struct Partition {
    int Fd = -1;
    std::mutex M;                ///< guards Tail/Appended/TailMaxSeq
    std::vector<uint8_t> Tail;   ///< bytes appended, not yet written
    uint64_t Appended = 0;       ///< total bytes ever appended
    uint64_t TailMaxSeq = 0;     ///< max commitSeq in Tail (under M)
    std::atomic<uint64_t> Durable{0}; ///< bytes covered by write(+fsync)
    /// \name Segmentation state (guarded by RoundM: only the flusher
    /// round and pruneSegments touch it)
    /// @{
    unsigned Seg = 0;       ///< index of the active (open) segment
    uint64_t SegBytes = 0;  ///< bytes written to the active segment
    uint64_t SegMaxSeq = 0; ///< max commitSeq written to it
    /// Highest commit sequence per sealed segment — what pruneSegments
    /// compares against the checkpoint watermark. Segments sealed by a
    /// previous process life are absent here; pruneSegments recovers
    /// their max by scanning the file once and caches it.
    std::map<unsigned, uint64_t> SealedMaxSeq;
    /// @}
  };

  void flusherLoop();
  /// One write(+fsync) round over every partition; returns bytes moved.
  uint64_t flushRound();
  /// Seals \p P's active segment (records its max commit sequence for
  /// pruning) and opens the next one. Caller holds RoundM. Latches
  /// Failed on open failure.
  void rotateSegmentLocked(Partition &P, unsigned Index);

  std::string Dir;
  FsyncMode Mode = FsyncMode::Batched;
  unsigned ParkMicros = 200;
  unsigned FlushMicros = 5000;
  uint64_t SegmentBytes = 0;
  std::vector<std::unique_ptr<Partition>> Parts;

  /// Flusher coordination: appenders flip DirtyFlag (warm path: one
  /// atomic read) and signal Cv; the flusher parks for the batching
  /// window, then runs a round serialized by RoundM (flush() runs rounds
  /// from the caller's thread too). Sync-mode committers wait on
  /// CvDurable until Durable covers their record. Failed latches on the
  /// first write/fsync error so waiters never hang on a dead disk.
  std::mutex FlushM;
  std::condition_variable Cv;
  std::condition_variable CvDurable;
  bool Dirty = false;
  bool Stop = false;
  std::atomic<bool> DirtyFlag{false};
  std::atomic<bool> Failed{false};
  std::mutex RoundM;
  std::thread Flusher;

  std::atomic<uint64_t> Records{0};
  std::atomic<uint64_t> Bytes{0};
  std::atomic<uint64_t> Rounds{0};
  std::atomic<uint64_t> Rotations{0};

  /// Observability wiring (attachMetrics). Trace is read by the flusher
  /// round lock-free; the callback bookkeeping is touched only from
  /// attach/detach (caller-serialized, like open/destroy).
  std::atomic<obs::TraceRing *> Trace{nullptr};
  obs::MetricsRegistry *MetricsReg = nullptr;
  std::vector<obs::MetricsRegistry::CallbackId> MetricsCallbacks;
};

/// \name On-disk record format (shared with checkpoint/recovery)
/// Per record: u32 payload length, u32 CRC-32 of the payload, payload =
/// { u64 commitSeq, u32 shard, u32 numMuts, muts... }; each mutation is
/// { u8 op, u16 numEntries, entries... }; each entry is { u32 columnId,
/// u8 kind, i64 | (u32 len, bytes) }. String values serialize their
/// bytes — intern ids are process-local and must never reach disk.
/// @{

/// Appends the wire form of one record to \p Out.
void walEncodeRecord(std::vector<uint8_t> &Out, uint64_t CommitSeq,
                     uint32_t Shard, const WalMutation *Muts, size_t NumMuts);

/// Decodes one record at \p Data (size \p Len). Returns the bytes
/// consumed, or 0 if the prefix is incomplete or corrupt (a torn tail).
size_t walDecodeRecord(const uint8_t *Data, size_t Len, WalRecord &Out);

/// CRC-32 (IEEE, reflected) over \p Len bytes.
uint32_t walCrc32(const uint8_t *Data, size_t Len);

/// Writes all \p Len bytes at \p Data to \p Fd, resuming after short
/// writes and EINTR: the one POSIX write loop of the log and its
/// checkpoints. On failure sets \p Err (if non-null) to
/// "<Path>: <strerror>".
bool walWriteAll(int Fd, const uint8_t *Data, size_t Len,
                 const std::string &Path, std::string *Err);

/// The partition file path `Dir/wal-<i>.log`.
std::string walPartitionPath(const std::string &Dir, unsigned Partition);

/// The segment file path: segment 0 is the legacy `Dir/wal-<i>.log`
/// (a pre-segmentation log *is* its partitions' segment 0), later
/// segments are `Dir/wal-<i>.<seg>.log`.
std::string walSegmentPath(const std::string &Dir, unsigned Partition,
                           unsigned Segment);

/// The segment indices of \p Partition present under \p Dir, ascending.
/// Checkpoint-pruned segments simply don't appear — recovery reads the
/// surviving segments in index order.
std::vector<unsigned> listWalSegments(const std::string &Dir,
                                      unsigned Partition);

/// Result of scanning one partition file.
struct WalReadResult {
  std::vector<WalRecord> Records; ///< the valid prefix, in file order
  uint64_t ValidBytes = 0;        ///< length of that prefix on disk
  bool TornTail = false; ///< trailing bytes did not parse (crash tail)
  std::string Error;     ///< non-empty on I/O failure (not torn tails)

  bool ok() const { return Error.empty(); }
};

/// Reads every complete record of \p Path (a missing file is an empty
/// result, not an error — a shard may simply never have committed). A
/// torn tail — the expected remnant of a mid-append crash — stops the
/// scan cleanly at the last whole record.
WalReadResult readWalPartition(const std::string &Path);

/// The scan behind readWalPartition and the follower's tailer: reads
/// open file \p Fd from byte \p Off to its current end (pread, so the
/// file offset is untouched) and decodes the whole records there.
/// ValidBytes counts from \p Off; Error is a bare strerror.
WalReadResult readWalRecords(int Fd, uint64_t Off);

/// Truncates \p Path to \p ValidBytes — recovery calls this so a
/// reopened log appends after the last whole record instead of after
/// torn bytes. False on I/O failure.
bool truncateWalPartition(const std::string &Path, uint64_t ValidBytes);

/// @}

} // namespace crs

#endif // CRS_WAL_WAL_H
