//===- wal/Follower.cpp - Follower relations over the WAL -----------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "wal/Follower.h"

#include "wal/Checkpoint.h"

#include <algorithm>
#include <chrono>
#include <fcntl.h>
#include <unistd.h>

using namespace crs;

//===----------------------------------------------------------------------===//
// WalTailer
//===----------------------------------------------------------------------===//

WalTailer::~WalTailer() {
  for (Cursor &C : Cursors)
    if (C.Fd >= 0)
      ::close(C.Fd);
}

size_t WalTailer::poll(std::vector<WalRecord> &Out) {
  size_t Appended = 0;
  for (unsigned P = 0; P < Cursors.size(); ++P) {
    Cursor &C = Cursors[P];
    // Keep draining segments until one ends without a successor: the
    // flusher rotates between polls, and a poll must not stall behind
    // a sealed segment it already finished.
    for (;;) {
      // List *before* reading: segment sealing happens-before the
      // successor file's creation, so a successor visible now proves
      // C.Seg is sealed and the read below sees its every byte. (A
      // post-read listing could witness a rotation that raced past the
      // read and skip its last batch.)
      std::vector<unsigned> Segs = listWalSegments(Dir, P);
      if (C.Fd < 0) {
        auto It = std::lower_bound(Segs.begin(), Segs.end(), C.Seg);
        if (It == Segs.end())
          break; // not created yet (no commit reached this segment)
        if (*It != C.Seg) {
          // C.Seg was checkpoint-pruned before this cursor opened it:
          // its records are lost to us. Resume at the oldest survivor.
          Gaps.fetch_add(1, std::memory_order_relaxed);
          C.Seg = *It;
          C.Off = 0;
        }
        C.Fd = ::open(walSegmentPath(Dir, P, C.Seg).c_str(), O_RDONLY);
        if (C.Fd < 0)
          break; // pruned since the listing: the next poll sees the gap
      }
      // An open segment that was pruned since is sealed too (pruning
      // never deletes the active segment), and its successor is listed.
      bool Sealed = std::upper_bound(Segs.begin(), Segs.end(), C.Seg) !=
                    Segs.end();
      WalReadResult R = readWalRecords(C.Fd, C.Off);
      for (WalRecord &Rec : R.Records)
        Out.push_back(std::move(Rec));
      Appended += R.Records.size();
      C.Off += R.ValidBytes;
      // Mid-append bytes only ever trail the active segment; without a
      // successor in the pre-read listing this may be the active
      // segment — wait for more bytes (or the next poll's listing). A
      // failed read is retried by the next poll.
      if (!R.ok() || R.TornTail || !Sealed)
        break;
      // Clean end of a sealed segment: roll to the next index. If that
      // one is gone too, the next iteration counts the gap.
      ::close(C.Fd);
      C.Fd = -1;
      ++C.Seg;
      C.Off = 0;
    }
  }
  return Appended;
}

//===----------------------------------------------------------------------===//
// FollowerRelation
//===----------------------------------------------------------------------===//

namespace {
/// Applier park after a round that found no new records.
constexpr std::chrono::milliseconds PollInterval{1};
} // namespace

FollowerRelation::FollowerRelation(RepresentationConfig Config,
                                   const WriteAheadLog &Log)
    : Replica(std::move(Config)), Tailer(Log.dir(), Log.partitions()),
      Live(true) {
  Applier = std::thread([this] { applierLoop(); });
}

FollowerRelation::FollowerRelation(RepresentationConfig Config,
                                   std::string Dir, unsigned Partitions)
    : Replica(std::move(Config)), Tailer(std::move(Dir), Partitions),
      Live(false) {}

FollowerRelation::~FollowerRelation() {
  detachMetrics(); // the registry callbacks capture `this`
  stop();
}

void FollowerRelation::stop() {
  if (!Applier.joinable())
    return;
  {
    std::lock_guard<std::mutex> G(RoundM);
    Stop = true;
  }
  RoundCv.notify_all();
  Applier.join();
}

void FollowerRelation::apply(const WalRecord &Rec) {
  if (size_t N = replayWalRecord(Replica, Rec))
    Anomalies.fetch_add(N, std::memory_order_relaxed);
  if (Rec.CommitSeq > AppliedSeq.load(std::memory_order_relaxed))
    AppliedSeq.store(Rec.CommitSeq, std::memory_order_release);
  AppliedRecords.fetch_add(1, std::memory_order_relaxed);
}

size_t FollowerRelation::pollOnce() {
  std::lock_guard<std::mutex> Poll(PollM);
  uint64_t Round;
  {
    std::lock_guard<std::mutex> G(RoundM);
    Round = ++RoundsStarted;
  }
  std::vector<WalRecord> Batch;
  size_t N = Tailer.poll(Batch);
  for (const WalRecord &Rec : Batch)
    apply(Rec);
  {
    std::lock_guard<std::mutex> G(RoundM);
    RoundsDone.store(Round, std::memory_order_relaxed);
  }
  RoundCv.notify_all();
  return N;
}

bool FollowerRelation::waitCaughtUp(unsigned TimeoutMs) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  std::unique_lock<std::mutex> L(RoundM);
  // Any round numbered past the current count starts after this point.
  const uint64_t Target = RoundsStarted + 1;
  while (RoundsDone.load(std::memory_order_relaxed) < Target) {
    if (!Live || Stop) {
      // No applier will start that round: run it here.
      L.unlock();
      pollOnce();
      L.lock();
      continue;
    }
    if (RoundCv.wait_until(L, Deadline) == std::cv_status::timeout &&
        RoundsDone.load(std::memory_order_relaxed) < Target)
      return false;
  }
  return gaps() == 0;
}

void FollowerRelation::applierLoop() {
  for (;;) {
    bool Stopping;
    {
      std::lock_guard<std::mutex> G(RoundM);
      Stopping = Stop;
    }
    size_t N = pollOnce();
    if (Stopping)
      return; // that round started after stop() was called
    if (N)
      continue;
    std::unique_lock<std::mutex> L(RoundM);
    RoundCv.wait_for(L, PollInterval, [&] { return Stop; });
  }
}

void FollowerRelation::attachMetrics(obs::MetricsRegistry &R,
                                     obs::MetricLabels Labels) {
  detachMetrics();
  MetricsReg = &R;
  using CK = obs::MetricsRegistry::CallbackKind;
  auto Add = [&](const char *N, std::function<uint64_t()> Fn) {
    MetricsCallbacks.push_back(
        R.addCallback(N, Labels, CK::Counter, std::move(Fn)));
  };
  Add("follower.applied_records", [this] { return appliedRecords(); });
  Add("follower.anomalies", [this] { return anomalies(); });
  Add("follower.gaps", [this] { return gaps(); });
  Add("follower.poll_rounds", [this] { return pollRounds(); });
}

void FollowerRelation::detachMetrics() {
  if (MetricsReg) {
    MetricsReg->removeCallbacks(MetricsCallbacks);
    MetricsCallbacks.clear();
    MetricsReg = nullptr;
  }
}
