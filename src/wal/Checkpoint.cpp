//===- wal/Checkpoint.cpp - Checkpoints and crash recovery -------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "wal/Checkpoint.h"

#include "runtime/ConcurrentRelation.h"
#include "runtime/ShardedRelation.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace crs;

namespace {

/// The checkpoint file is a sequence of WAL-format records (CRC per
/// record, same tuple encoding): a header record with zero mutations
/// whose CommitSeq is the watermark and Shard the owning shard, data
/// records carrying the snapshot as Insert mutations, and a trailer
/// record (zero mutations, Shard = TrailerShard) marking completion.
/// A file whose last record is not the trailer — or with torn bytes
/// after it — is an incomplete checkpoint and is rejected whole.
constexpr uint32_t TrailerShard = 0xffffffffu;

/// Snapshot tuples per data record: bounds the encode buffer without
/// paying per-tuple record overhead.
constexpr size_t TuplesPerRecord = 256;

} // namespace

std::string crs::checkpointPath(const std::string &Dir, uint32_t Shard,
                                uint64_t Watermark) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "/ckpt-%u-%llu", Shard,
                static_cast<unsigned long long>(Watermark));
  return Dir + Buf;
}

std::vector<uint64_t> crs::listCheckpoints(const std::string &Dir,
                                           uint32_t Shard) {
  std::vector<uint64_t> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Out;
  char Prefix[32];
  std::snprintf(Prefix, sizeof(Prefix), "ckpt-%u-", Shard);
  size_t PrefixLen = std::strlen(Prefix);
  while (struct dirent *E = ::readdir(D)) {
    if (std::strncmp(E->d_name, Prefix, PrefixLen) != 0)
      continue;
    char *End = nullptr;
    unsigned long long W = std::strtoull(E->d_name + PrefixLen, &End, 10);
    if (End && *End == '\0' && W > 0)
      Out.push_back(W);
  }
  ::closedir(D);
  std::sort(Out.begin(), Out.end());
  return Out;
}

bool crs::readCheckpoint(const std::string &Path, CheckpointData &Out) {
  WalReadResult R = readWalPartition(Path);
  if (!R.ok() || R.TornTail || R.Records.size() < 2)
    return false;
  const WalRecord &Header = R.Records.front();
  const WalRecord &Trailer = R.Records.back();
  if (!Header.Muts.empty() || Header.CommitSeq == 0)
    return false;
  if (!Trailer.Muts.empty() || Trailer.Shard != TrailerShard ||
      Trailer.CommitSeq != Header.CommitSeq)
    return false;
  Out.Watermark = Header.CommitSeq;
  Out.Shard = Header.Shard;
  Out.Tuples.clear();
  for (size_t I = 1; I + 1 < R.Records.size(); ++I) {
    const WalRecord &Rec = R.Records[I];
    if (Rec.CommitSeq != Header.CommitSeq)
      return false;
    for (const WalMutation &M : Rec.Muts) {
      if (M.Op != WalOp::Insert)
        return false;
      Out.Tuples.push_back(M.Full);
    }
  }
  return true;
}

bool crs::writeCheckpoint(ConcurrentRelation &R, const std::string &Dir,
                          uint32_t Shard, uint64_t *WatermarkOut,
                          std::string *Err) {
  // One level of mkdir suffices here — attachWal/WriteAheadLog::open
  // usually created the directory; tolerate EEXIST.
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (Err)
      *Err = Dir + ": " + std::strerror(errno);
    return false;
  }

  // Trace via the relation's observability wiring when attached: begin
  // before the gate-draining snapshot, end after the durable rename.
  const detail::RelationObs *OS = R.observability();
  if (OS)
    OS->WalRing->emit(obs::EventKind::CheckpointBegin, Shard);

  uint64_t Watermark = 0;
  std::vector<Tuple> Snapshot = R.checkpointSnapshot(Watermark);
  // Watermark 0 means "nothing ever committed anywhere" — the clock is
  // global, so 0 also means no record can precede this checkpoint.
  // Encode outside any gate or lock: the snapshot is ours alone.
  std::vector<uint8_t> Buf;
  walEncodeRecord(Buf, Watermark, Shard, nullptr, 0); // header
  std::vector<WalMutation> Chunk;
  for (size_t I = 0; I < Snapshot.size(); I += TuplesPerRecord) {
    Chunk.clear();
    size_t N = std::min(TuplesPerRecord, Snapshot.size() - I);
    for (size_t J = 0; J < N; ++J)
      Chunk.push_back({WalOp::Insert, std::move(Snapshot[I + J])});
    walEncodeRecord(Buf, Watermark, Shard, Chunk.data(), Chunk.size());
  }
  walEncodeRecord(Buf, Watermark, TrailerShard, nullptr, 0); // trailer

  std::string Final = checkpointPath(Dir, Shard, Watermark);
  std::string Tmp = Final + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (Fd < 0) {
    if (Err)
      *Err = Tmp + ": " + std::strerror(errno);
    return false;
  }
  bool Ok = walWriteAll(Fd, Buf.data(), Buf.size(), Tmp, Err) &&
            ::fsync(Fd) == 0;
  ::close(Fd);
  if (!Ok) {
    ::unlink(Tmp.c_str());
    return false;
  }
  if (::rename(Tmp.c_str(), Final.c_str()) != 0) {
    if (Err)
      *Err = Final + ": " + std::strerror(errno);
    ::unlink(Tmp.c_str());
    return false;
  }
  // The checkpoint durably covers every record at or below Watermark:
  // sealed WAL segments wholly beneath it will never be replayed again,
  // so reclaim them (ROADMAP 2a — the log no longer grows unboundedly).
  if (WriteAheadLog *W = R.walLog())
    W->pruneSegments(R.walPartition(), Watermark);
  if (OS)
    OS->WalRing->emit(obs::EventKind::CheckpointEnd, Shard, Watermark,
                      Snapshot.size());
  if (WatermarkOut)
    *WatermarkOut = Watermark;
  return true;
}

bool crs::writeShardedCheckpoint(ShardedRelation &R, const std::string &Dir,
                                 std::string *Err) {
  for (unsigned I = 0; I < R.numShards(); ++I)
    if (!writeCheckpoint(R.shard(I), Dir, I, nullptr, Err))
      return false;
  return true;
}

RecoveryResult crs::recoverRelation(ConcurrentRelation &R,
                                    const std::string &Dir, uint32_t Shard,
                                    uint32_t Partition) {
  RecoveryResult Res;
  assert(R.size() == 0 && "recovery target must be freshly constructed");

  // Newest valid checkpoint, falling back through older ones past any
  // corrupt/incomplete file (the kill-during-checkpoint leftovers).
  CheckpointData Ckpt;
  bool HaveCkpt = false;
  std::vector<uint64_t> Marks = listCheckpoints(Dir, Shard);
  for (auto It = Marks.rbegin(); It != Marks.rend(); ++It) {
    if (readCheckpoint(checkpointPath(Dir, Shard, *It), Ckpt) &&
        Ckpt.Shard == Shard) {
      HaveCkpt = true;
      break;
    }
  }
  if (HaveCkpt) {
    Res.CheckpointSeq = Ckpt.Watermark;
    Res.CheckpointTuples = Ckpt.Tuples.size();
    for (const Tuple &T : Ckpt.Tuples)
      if (!R.insert(T, Tuple()))
        ++Res.Anomalies; // duplicate inside a checkpoint: impossible
                         // unless hand-edited, but never fatal
  }

  // The WAL partition: every surviving segment in index order (indices
  // pruned by past checkpoints are simply absent — their records were
  // all at or below some checkpoint watermark), every complete record,
  // torn tail cut off. A torn tail is only the expected mid-append
  // crash shape on the *last* segment; a torn earlier segment means the
  // later ones postdate a corruption, so replay stops at the tear to
  // keep the recovered prefix mutation-consistent.
  std::vector<WalRecord> Records;
  std::vector<unsigned> Segs = listWalSegments(Dir, Partition);
  if (Segs.empty())
    Segs.push_back(0); // legacy/fresh dir: readWalPartition(ENOENT) = empty
  for (size_t SI = 0; SI < Segs.size(); ++SI) {
    std::string SegPath = walSegmentPath(Dir, Partition, Segs[SI]);
    WalReadResult Log = readWalPartition(SegPath);
    if (!Log.ok()) {
      Res.Error = Log.Error;
      return Res;
    }
    for (WalRecord &Rec : Log.Records)
      Records.push_back(std::move(Rec));
    if (Log.TornTail) {
      Res.TornTail = true;
      struct stat St;
      if (::stat(SegPath.c_str(), &St) == 0)
        Res.TruncatedBytes +=
            static_cast<uint64_t>(St.st_size) - Log.ValidBytes;
      if (!truncateWalPartition(SegPath, Log.ValidBytes)) {
        Res.Error = SegPath + ": truncate: " + std::strerror(errno);
        return Res;
      }
      break; // anything after a tear is not a consistent suffix
    }
  }

  // Replay above the watermark in commit order. stable_sort: a bare
  // operation and a transactional scope never share a sequence number,
  // but keep byte order authoritative among equals anyway.
  std::stable_sort(Records.begin(), Records.end(),
                   [](const WalRecord &A, const WalRecord &B) {
                     return A.CommitSeq < B.CommitSeq;
                   });
  for (const WalRecord &Rec : Records) {
    if (Rec.Shard != Shard || Rec.CommitSeq <= Res.CheckpointSeq)
      continue;
    ++Res.RecordsReplayed;
    Res.MutationsApplied += Rec.Muts.size();
    Res.Anomalies += replayWalRecord(R, Rec);
  }
  Res.Ok = true;
  return Res;
}

size_t crs::replayWalRecord(ConcurrentRelation &R, const WalRecord &Rec) {
  size_t Anomalies = 0;
  for (const WalMutation &M : Rec.Muts) {
    bool Changed = M.Op == WalOp::Insert ? R.insert(M.Full, Tuple())
                                         : R.remove(M.Full) != 0;
    Anomalies += !Changed;
  }
  return Anomalies;
}

RecoveryResult crs::recoverShardedRelation(ShardedRelation &R,
                                           const std::string &Dir) {
  RecoveryResult Total;
  Total.Ok = true;
  for (unsigned I = 0; I < R.numShards(); ++I) {
    RecoveryResult S = recoverRelation(R.shard(I), Dir, I, I);
    if (!S.Ok) {
      Total.Ok = false;
      if (Total.Error.empty())
        Total.Error = S.Error;
    }
    Total.CheckpointSeq = std::max(Total.CheckpointSeq, S.CheckpointSeq);
    Total.CheckpointTuples += S.CheckpointTuples;
    Total.RecordsReplayed += S.RecordsReplayed;
    Total.MutationsApplied += S.MutationsApplied;
    Total.TornTail |= S.TornTail;
    Total.TruncatedBytes += S.TruncatedBytes;
    Total.Anomalies += S.Anomalies;
  }
  return Total;
}
