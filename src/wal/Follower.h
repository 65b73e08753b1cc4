//===- wal/Follower.h - Follower relations over the WAL ---------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FollowerRelation is a read replica fed by the durability
/// pipeline: it tails the WAL's partition files (WalTailer) and applies
/// the `(commitSeq, mutations)` records it finds to a private replica
/// relation through the public put-if-absent API. Reads are served by
/// the replica's epoch-protected wait-free fast path. The follower sees
/// exactly what recovery would replay, because it reads the same bytes.
///
/// **Consistency contract.** The log carries only *committed*
/// mutations (records are appended at the commit stamp, under the
/// committer's locks), and each partition file is in per-key
/// serialization order (the WAL ordering argument in wal/Wal.h). The
/// follower applies records on one thread at a time, in file order per
/// partition, so a follower read observes, for every key, a prefix of
/// that key's committed history — never an uncommitted write, never two
/// mutations of one key out of order. What a follower does NOT promise
/// is cross-key simultaneity with the primary: it is an asynchronous
/// replica, lagging by the records not yet flushed or not yet polled.
///
/// **Catching up.** Commit sequence numbers are not a watermark for a
/// follower: two non-conflicting commits stamped 5 and 6 may append in
/// the order 6, 5, even within one partition, so "the follower applied
/// 6" says nothing about 5. waitCaughtUp() is defined by the log
/// instead: it returns once a poll round that started after the call
/// has been applied, so every record on disk at the call is visible.
/// A caller that needs the log's in-memory tail too calls
/// WriteAheadLog::flush() first.
///
/// **Gaps.** A checkpoint may prune sealed segments the follower has
/// not read yet (WriteAheadLog::pruneSegments). The tailer then skips
/// to the oldest surviving segment and counts a gap: the follower has
/// lost records and no longer tracks the primary. gaps() reports it,
/// and waitCaughtUp() fails from then on. Re-seeding a lagging follower
/// from the checkpoint is not implemented.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_WAL_FOLLOWER_H
#define CRS_WAL_FOLLOWER_H

#include "obs/Metrics.h"
#include "runtime/ConcurrentRelation.h"
#include "wal/Wal.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace crs {

/// File-tailing consumption of WAL partitions: each poll reads the
/// records appended to each partition since the last poll, decoding
/// only complete records (a torn or still-being-written tail is left
/// for the next poll). Each cursor keeps its segment file open, so it
/// finishes a segment even after a checkpoint unlinks it. On the clean
/// end of a sealed segment the cursor rolls to the next one; if that
/// one was pruned before the cursor reached it, the cursor jumps to the
/// oldest surviving segment and counts a gap.
class WalTailer {
public:
  WalTailer(std::string Dir, unsigned Partitions)
      : Dir(std::move(Dir)), Cursors(Partitions) {}
  ~WalTailer();
  WalTailer(const WalTailer &) = delete;
  WalTailer &operator=(const WalTailer &) = delete;

  /// Appends every newly completed record (partition by partition, file
  /// order within each) to \p Out; returns the number appended. Not
  /// thread-safe: one poller at a time.
  size_t poll(std::vector<WalRecord> &Out);

  /// Segment jumps past records this tailer never read (see the class
  /// comment). Safe to read from any thread.
  uint64_t gaps() const { return Gaps.load(std::memory_order_relaxed); }

private:
  /// Per-partition read position: byte offset Off into segment Seg,
  /// read through Fd once the segment has been opened.
  struct Cursor {
    unsigned Seg = 0;
    uint64_t Off = 0;
    int Fd = -1;
  };
  std::string Dir;
  std::vector<Cursor> Cursors;
  std::atomic<uint64_t> Gaps{0};
};

/// A read replica over a WAL. Owns the replica relation, the tailer,
/// and (in live mode) the applier thread.
class FollowerRelation {
public:
  /// Live mode: an applier thread tails \p Log's partition files,
  /// looping pollOnce(). \p Config must equal the primary's
  /// specification (asserted per mutation by the replica itself); the
  /// representation may differ — a follower can serve reads from a
  /// shape the primary would never use. Only the log's directory and
  /// partition count are kept, so the log may be destroyed first.
  FollowerRelation(RepresentationConfig Config, const WriteAheadLog &Log);

  /// Manual mode: tails the log under \p Dir (\p Partitions partition
  /// files) with no thread; the owner pumps it with pollOnce().
  FollowerRelation(RepresentationConfig Config, std::string Dir,
                   unsigned Partitions);

  ~FollowerRelation(); ///< stops and joins the applier

  FollowerRelation(const FollowerRelation &) = delete;
  FollowerRelation &operator=(const FollowerRelation &) = delete;

  /// The replica, for reads (epoch-eligible queries run wait-free).
  /// Mutating it directly breaks the replica contract.
  ConcurrentRelation &relation() { return Replica; }
  const ConcurrentRelation &relation() const { return Replica; }

  /// query r s C against the replica.
  std::vector<Tuple> query(const Tuple &S, ColumnSet C) const {
    return Replica.query(S, C);
  }

  /// One poll round: WalTailer::poll, then each record applied in file
  /// order per partition. Returns the number of records applied. The
  /// applier thread loops exactly this; in manual mode the owner calls
  /// it. Rounds are serialized, so calling it beside the thread is safe.
  size_t pollOnce();

  /// Blocks until a poll round that started after the call has been
  /// applied: every record on disk at the call is then visible to
  /// reads. Call WriteAheadLog::flush() first to include records still
  /// in the log's memory. In manual mode, or after stop(), the call
  /// runs that round itself. False on timeout, or if the tailer has
  /// ever reported a gap.
  bool waitCaughtUp(unsigned TimeoutMs = 10000);

  /// The highest commit sequence applied so far. A lag indicator only,
  /// not a watermark: a smaller sequence may still be unapplied (see
  /// the file comment).
  uint64_t appliedSeq() const {
    return AppliedSeq.load(std::memory_order_acquire);
  }
  uint64_t appliedRecords() const {
    return AppliedRecords.load(std::memory_order_relaxed);
  }
  /// Replays that found their effect already present/absent. Must stay
  /// 0: the log holds each committed mutation once, in per-key order.
  uint64_t anomalies() const {
    return Anomalies.load(std::memory_order_relaxed);
  }
  /// Pruned segments skipped unread (must stay 0; see the file comment).
  uint64_t gaps() const { return Tailer.gaps(); }
  /// Poll rounds completed.
  uint64_t pollRounds() const {
    return RoundsDone.load(std::memory_order_relaxed);
  }

  /// \name Observability (src/obs)
  /// Registers follower.applied_records / anomalies / gaps /
  /// poll_rounds with \p R under \p Labels as snapshot-time callbacks.
  /// The destructor detaches, so destroy the registry after the
  /// follower (or call detachMetrics() first).
  /// @{
  void attachMetrics(obs::MetricsRegistry &R, obs::MetricLabels Labels = {});
  void detachMetrics();
  /// @}

  /// Stops the applier after one last round that starts after the
  /// call. Idempotent; the destructor calls it.
  void stop();

private:
  void applierLoop();
  void apply(const WalRecord &Rec);

  ConcurrentRelation Replica;
  WalTailer Tailer;
  const bool Live;

  std::mutex PollM;               ///< serializes rounds
  std::mutex RoundM;              ///< guards RoundsStarted, Stop
  std::condition_variable RoundCv; ///< round completed, or stop()
  uint64_t RoundsStarted = 0;
  std::atomic<uint64_t> RoundsDone{0}; ///< written under RoundM
  bool Stop = false;

  std::atomic<uint64_t> AppliedSeq{0};
  std::atomic<uint64_t> AppliedRecords{0};
  std::atomic<uint64_t> Anomalies{0};
  std::thread Applier;

  obs::MetricsRegistry *MetricsReg = nullptr;
  std::vector<obs::MetricsRegistry::CallbackId> MetricsCallbacks;
};

} // namespace crs

#endif // CRS_WAL_FOLLOWER_H
