//===- wal/Wal.cpp - Group-commit write-ahead log ----------------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "wal/Wal.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace crs;

//===----------------------------------------------------------------------===//
// Wire format
//===----------------------------------------------------------------------===//

namespace {

/// Appends \p V little-endian in sizeof(T) bytes: the wire format's one
/// integer encoding (Reader::get is its inverse).
template <typename T> void put(std::vector<uint8_t> &Out, T V) {
  for (size_t I = 0; I < sizeof(T); ++I)
    Out.push_back(static_cast<uint8_t>(static_cast<uint64_t>(V) >> (8 * I)));
}

/// Bounds-checked little-endian reader over one record payload.
struct Reader {
  const uint8_t *D;
  size_t Len;
  size_t Off = 0;
  bool Bad = false;

  bool need(size_t N) {
    if (Off + N > Len) {
      Bad = true;
      return false;
    }
    return true;
  }
  template <typename T> T get() {
    if (!need(sizeof(T)))
      return 0;
    uint64_t V = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      V |= static_cast<uint64_t>(D[Off + I]) << (8 * I);
    Off += sizeof(T);
    return static_cast<T>(V);
  }
};

void encodeEntry(std::vector<uint8_t> &Out, ColumnId Col, const Value &Val) {
  put<uint32_t>(Out, Col);
  if (Val.isInt()) {
    put<uint8_t>(Out, 0);
    put<uint64_t>(Out, static_cast<uint64_t>(Val.asInt()));
  } else {
    // Interned string ids are process-local: serialize the bytes.
    std::string_view S = Val.asString();
    put<uint8_t>(Out, 1);
    put<uint32_t>(Out, static_cast<uint32_t>(S.size()));
    Out.insert(Out.end(), S.begin(), S.end());
  }
}

/// Encodes π_Cols(T) without building the projected tuple: entries
/// are stored sorted by column id, so filtering while encoding writes
/// exactly the bytes T.project(Cols) would encode to.
void encodeTupleProjected(std::vector<uint8_t> &Out, const Tuple &T,
                          ColumnSet Cols) {
  const auto &Entries = T.entries();
  uint16_t N = 0;
  for (const auto &[Col, Val] : Entries)
    if (Cols.contains(Col))
      ++N;
  put<uint16_t>(Out, N);
  for (const auto &[Col, Val] : Entries)
    if (Cols.contains(Col))
      encodeEntry(Out, Col, Val);
}

/// Every column: the projection that encodes a tuple whole.
const ColumnSet AllColumns = ColumnSet::fromBits(~uint64_t(0));

/// The one record encoder: appends a record of \p NumMuts mutations to
/// \p Out. Mutation \p I comes from \p Mut(I, Full), which returns its
/// kind and points \p Full at its tuple; each tuple is encoded
/// restricted to \p Project.
void encodeRecord(std::vector<uint8_t> &Out, uint64_t CommitSeq,
                  uint32_t Shard, size_t NumMuts, ColumnSet Project,
                  function_ref<WalOp(size_t, const Tuple *&)> Mut) {
  size_t Header = Out.size();
  put<uint32_t>(Out, 0); // payload length, patched below
  put<uint32_t>(Out, 0); // CRC, patched below
  size_t Payload = Out.size();
  put<uint64_t>(Out, CommitSeq);
  put<uint32_t>(Out, Shard);
  put<uint32_t>(Out, static_cast<uint32_t>(NumMuts));
  for (size_t I = 0; I < NumMuts; ++I) {
    const Tuple *Full = nullptr;
    WalOp Op = Mut(I, Full);
    assert(Full && "mutation source must point Full at its tuple");
    put<uint8_t>(Out, static_cast<uint8_t>(Op));
    encodeTupleProjected(Out, *Full, Project);
  }
  uint32_t Len = static_cast<uint32_t>(Out.size() - Payload);
  uint32_t Crc = walCrc32(Out.data() + Payload, Len);
  for (int I = 0; I < 4; ++I) {
    Out[Header + I] = static_cast<uint8_t>(Len >> (8 * I));
    Out[Header + 4 + I] = static_cast<uint8_t>(Crc >> (8 * I));
  }
}

/// encodeRecord's mutation source over a WalMutation array.
auto arraySource(const WalMutation *Muts) {
  return [Muts](size_t I, const Tuple *&Full) {
    Full = &Muts[I].Full;
    return Muts[I].Op;
  };
}

bool decodeTuple(Reader &R, Tuple &Out) {
  Out = Tuple();
  uint16_t N = R.get<uint16_t>();
  for (uint16_t I = 0; I < N && !R.Bad; ++I) {
    uint32_t Col = R.get<uint32_t>();
    uint8_t Kind = R.get<uint8_t>();
    if (Kind == 0) {
      Out.set(Col, Value::ofInt(static_cast<int64_t>(R.get<uint64_t>())));
    } else if (Kind == 1) {
      uint32_t Len = R.get<uint32_t>();
      if (!R.need(Len))
        return false;
      Out.set(Col, Value::ofString(std::string_view(
                       reinterpret_cast<const char *>(R.D + R.Off), Len)));
      R.Off += Len;
    } else {
      R.Bad = true;
    }
  }
  return !R.Bad;
}

} // namespace

uint32_t crs::walCrc32(const uint8_t *Data, size_t Len) {
  // IEEE reflected CRC-32, table generated once (no dependencies).
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xffffffffu;
  for (size_t I = 0; I < Len; ++I)
    C = Table[(C ^ Data[I]) & 0xffu] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

void crs::walEncodeRecord(std::vector<uint8_t> &Out, uint64_t CommitSeq,
                          uint32_t Shard, const WalMutation *Muts,
                          size_t NumMuts) {
  encodeRecord(Out, CommitSeq, Shard, NumMuts, AllColumns, arraySource(Muts));
}

size_t crs::walDecodeRecord(const uint8_t *Data, size_t Len, WalRecord &Out) {
  if (Len < 8)
    return 0;
  Reader H{Data, 8};
  uint32_t PayloadLen = H.get<uint32_t>(), Crc = H.get<uint32_t>();
  if (Len < 8 + static_cast<size_t>(PayloadLen))
    return 0;
  if (walCrc32(Data + 8, PayloadLen) != Crc)
    return 0;
  Reader R{Data + 8, PayloadLen};
  Out.CommitSeq = R.get<uint64_t>();
  Out.Shard = R.get<uint32_t>();
  uint32_t N = R.get<uint32_t>();
  Out.Muts.clear();
  Out.Muts.reserve(N);
  for (uint32_t I = 0; I < N && !R.Bad; ++I) {
    WalMutation M;
    uint8_t Op = R.get<uint8_t>();
    if (Op > 1) {
      R.Bad = true;
      break;
    }
    M.Op = static_cast<WalOp>(Op);
    if (!decodeTuple(R, M.Full))
      break;
    Out.Muts.push_back(std::move(M));
  }
  if (R.Bad || R.Off != PayloadLen)
    return 0;
  return 8 + PayloadLen;
}

std::string crs::walPartitionPath(const std::string &Dir, unsigned Partition) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "/wal-%03u.log", Partition);
  return Dir + Buf;
}

std::string crs::walSegmentPath(const std::string &Dir, unsigned Partition,
                                unsigned Segment) {
  // Segment 0 keeps the legacy single-file name: a pre-segmentation log
  // is read back as its partitions' segment 0 with no migration step.
  if (Segment == 0)
    return walPartitionPath(Dir, Partition);
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "/wal-%03u.%04u.log", Partition, Segment);
  return Dir + Buf;
}

std::vector<unsigned> crs::listWalSegments(const std::string &Dir,
                                           unsigned Partition) {
  std::vector<unsigned> Segs;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Segs;
  char Prefix[32];
  std::snprintf(Prefix, sizeof(Prefix), "wal-%03u", Partition);
  while (struct dirent *E = ::readdir(D)) {
    const char *Name = E->d_name;
    if (std::strncmp(Name, Prefix, std::strlen(Prefix)) != 0)
      continue;
    const char *Rest = Name + std::strlen(Prefix);
    if (std::strcmp(Rest, ".log") == 0) {
      Segs.push_back(0);
      continue;
    }
    // "wal-NNN.SSSS.log": parse the segment index between the dots.
    if (*Rest != '.')
      continue;
    char *End = nullptr;
    unsigned long Seg = std::strtoul(Rest + 1, &End, 10);
    if (End == Rest + 1 || std::strcmp(End, ".log") != 0)
      continue;
    Segs.push_back(static_cast<unsigned>(Seg));
  }
  ::closedir(D);
  std::sort(Segs.begin(), Segs.end());
  return Segs;
}

//===----------------------------------------------------------------------===//
// Partition scan (recovery / file-tailing)
//===----------------------------------------------------------------------===//

WalReadResult crs::readWalPartition(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    WalReadResult Res;
    if (errno != ENOENT) // a shard that never committed: empty, no error
      Res.Error = Path + ": " + std::strerror(errno);
    return Res;
  }
  WalReadResult Res = readWalRecords(Fd, 0);
  ::close(Fd);
  if (!Res.ok())
    Res.Error = Path + ": " + Res.Error;
  return Res;
}

WalReadResult crs::readWalRecords(int Fd, uint64_t Off) {
  WalReadResult Res;
  std::vector<uint8_t> Buf;
  uint8_t Chunk[1 << 16];
  for (;;) {
    ssize_t N = ::pread(Fd, Chunk, sizeof(Chunk),
                        static_cast<off_t>(Off + Buf.size()));
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0) {
      Res.Error = std::strerror(errno);
      return Res;
    }
    if (N == 0)
      break;
    Buf.insert(Buf.end(), Chunk, Chunk + N);
  }
  size_t At = 0;
  WalRecord Rec;
  while (At < Buf.size()) {
    size_t Used = walDecodeRecord(Buf.data() + At, Buf.size() - At, Rec);
    if (Used == 0) {
      Res.TornTail = true; // mid-append remnant: stop cleanly
      break;
    }
    Res.Records.push_back(std::move(Rec));
    Rec = WalRecord();
    At += Used;
  }
  Res.ValidBytes = At;
  return Res;
}

bool crs::walWriteAll(int Fd, const uint8_t *Data, size_t Len,
                      const std::string &Path, std::string *Err) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t W = ::write(Fd, Data + Off, Len - Off);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (Err)
        *Err = Path + ": " + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(W);
  }
  return true;
}

bool crs::truncateWalPartition(const std::string &Path, uint64_t ValidBytes) {
  return ::truncate(Path.c_str(), static_cast<off_t>(ValidBytes)) == 0;
}

//===----------------------------------------------------------------------===//
// WriteAheadLog
//===----------------------------------------------------------------------===//

namespace {

/// mkdir -p (each component; EEXIST is success).
bool makeDirs(const std::string &Path, std::string *Err) {
  std::string Cur;
  for (size_t I = 0; I <= Path.size(); ++I) {
    if (I < Path.size() && Path[I] != '/') {
      Cur.push_back(Path[I]);
      continue;
    }
    if (!Cur.empty() && ::mkdir(Cur.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      if (Err)
        *Err = Cur + ": " + std::strerror(errno);
      return false;
    }
    if (I < Path.size())
      Cur.push_back('/');
  }
  return true;
}

} // namespace

std::unique_ptr<WriteAheadLog> WriteAheadLog::open(const Options &O,
                                                   std::string *Err) {
  assert(O.Partitions >= 1 && "a WAL needs at least one partition");
  if (!makeDirs(O.Dir, Err))
    return nullptr;
  std::unique_ptr<WriteAheadLog> W(new WriteAheadLog());
  W->Dir = O.Dir;
  W->Mode = O.Fsync;
  W->ParkMicros = O.ParkMicros;
  W->FlushMicros = O.FlushMicros;
  W->SegmentBytes = O.SegmentBytes;
  for (unsigned I = 0; I < O.Partitions; ++I) {
    auto P = std::make_unique<Partition>();
    // Resume appending to the highest existing segment — earlier ones
    // are sealed history (recovery reads them; checkpoints prune them).
    std::vector<unsigned> Segs = listWalSegments(O.Dir, I);
    P->Seg = Segs.empty() ? 0 : Segs.back();
    std::string Path = walSegmentPath(O.Dir, I, P->Seg);
    P->Fd = ::open(Path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (P->Fd < 0) {
      if (Err)
        *Err = Path + ": " + std::strerror(errno);
      return nullptr;
    }
    struct stat St;
    if (::fstat(P->Fd, &St) == 0)
      P->SegBytes = static_cast<uint64_t>(St.st_size);
    W->Parts.push_back(std::move(P));
  }
  W->Flusher = std::thread([Wp = W.get()] { Wp->flusherLoop(); });
  return W;
}

WriteAheadLog::~WriteAheadLog() {
  detachMetrics(); // the registry callbacks capture `this`
  {
    std::lock_guard<std::mutex> G(FlushM);
    Stop = true;
  }
  Cv.notify_all();
  if (Flusher.joinable())
    Flusher.join();
  flushRound(); // the tail appended after the flusher's last round
  for (auto &P : Parts)
    if (P->Fd >= 0)
      ::close(P->Fd);
}

namespace {
/// Per-thread serialization buffer: records are encoded outside the
/// partition mutex, and the commit path stays allocation-free once each
/// thread's buffer is warm.
thread_local std::vector<uint8_t> CommitScratch;
} // namespace

void WriteAheadLog::logCommit(uint32_t Partition, uint64_t CommitSeq,
                              uint32_t Shard, const WalMutation *Muts,
                              size_t NumMuts) {
  logCommit(Partition, CommitSeq, Shard, NumMuts, AllColumns,
            arraySource(Muts));
}

void WriteAheadLog::logCommit(uint32_t Partition, uint64_t CommitSeq,
                              uint32_t Shard, WalOp Op, const Tuple &Full) {
  logCommit(Partition, CommitSeq, Shard, 1, AllColumns,
            [&](size_t, const Tuple *&F) {
              F = &Full;
              return Op;
            });
}

void WriteAheadLog::logCommit(uint32_t Partition, uint64_t CommitSeq,
                              uint32_t Shard, size_t NumMuts,
                              ColumnSet Project,
                              function_ref<WalOp(size_t, const Tuple *&)> Mut) {
  assert(Partition < Parts.size() && "partition out of range");
  if (NumMuts == 0)
    return; // read-only scopes leave no redo record
  CommitScratch.clear();
  encodeRecord(CommitScratch, CommitSeq, Shard, NumMuts, Project, Mut);
  struct Partition &P = *Parts[Partition];
  uint64_t MyEnd;
  {
    std::lock_guard<std::mutex> G(P.M);
    P.Tail.insert(P.Tail.end(), CommitScratch.begin(), CommitScratch.end());
    P.Appended += CommitScratch.size();
    P.TailMaxSeq = std::max(P.TailMaxSeq, CommitSeq);
    MyEnd = P.Appended;
  }
  Records.fetch_add(1, std::memory_order_relaxed);
  Bytes.fetch_add(CommitScratch.size(), std::memory_order_relaxed);

  // Wake the flusher once per batch window (an atomic read on the warm
  // path; the mutex+notify only when the flag flips).
  if (!DirtyFlag.load(std::memory_order_seq_cst)) {
    DirtyFlag.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> G(FlushM);
      Dirty = true;
    }
    Cv.notify_all();
  }

  if (Mode != FsyncMode::Sync)
    return;
  // Group commit: park at the stamp point until a flusher round covers
  // this record. The flusher's batching window bounds the park — a lone
  // writer is flushed within ParkMicros, not stranded waiting for
  // company.
  std::unique_lock<std::mutex> L(FlushM);
  while (P.Durable.load(std::memory_order_acquire) < MyEnd &&
         !Failed.load(std::memory_order_acquire))
    CvDurable.wait_for(L, std::chrono::microseconds(ParkMicros * 4 + 100));
}

void WriteAheadLog::flusherLoop() {
  std::unique_lock<std::mutex> L(FlushM);
  while (!Stop) {
    Cv.wait(L, [&] { return Dirty || Stop; });
    if (Stop)
      break;
    Dirty = false;
    L.unlock();
    // The batching window: let concurrently committing scopes land in
    // this round's batch before paying one write+fsync for all of them.
    // In Sync mode committers are parked on the round, so the window is
    // the short commit-latency bound; otherwise nobody waits and the
    // round cadence stretches to the durability-lag bound instead —
    // each wakeup preempts committers when cores are scarce, so rounds
    // should be as rare as the lag budget allows.
    unsigned Window = Mode == FsyncMode::Sync ? ParkMicros : FlushMicros;
    if (Window)
      std::this_thread::sleep_for(std::chrono::microseconds(Window));
    DirtyFlag.store(false, std::memory_order_seq_cst);
    flushRound();
    L.lock();
  }
}

uint64_t WriteAheadLog::flushRound() {
  std::lock_guard<std::mutex> RG(RoundM);
  obs::TraceRing *Ring = Trace.load(std::memory_order_acquire);
  const uint64_t T0 = Ring ? obs::MetricsRegistry::nowNanos() : 0;
  uint64_t Moved = 0;
  unsigned PartsWithData = 0;
  for (unsigned I = 0; I < Parts.size(); ++I) {
    Partition &P = *Parts[I];
    std::vector<uint8_t> Local;
    uint64_t Target, BatchMaxSeq;
    {
      std::lock_guard<std::mutex> G(P.M);
      if (P.Tail.empty())
        continue;
      Local.swap(P.Tail);
      Target = P.Appended;
      BatchMaxSeq = P.TailMaxSeq;
      P.TailMaxSeq = 0;
    }
    bool Ok = walWriteAll(P.Fd, Local.data(), Local.size(), Dir, nullptr);
    if (Ok && Mode != FsyncMode::None)
      Ok = ::fsync(P.Fd) == 0;
    if (!Ok) {
      if (!Failed.exchange(true, std::memory_order_acq_rel))
        std::fprintf(stderr, "wal: write/fsync failed on %s: %s\n",
                     Dir.c_str(), std::strerror(errno));
      continue;
    }
    Moved += Local.size();
    ++PartsWithData;
    P.SegBytes += Local.size();
    P.SegMaxSeq = std::max(P.SegMaxSeq, BatchMaxSeq);
    P.Durable.store(Target, std::memory_order_release);
    // Seal and rotate once the active segment crosses the threshold.
    // Records never straddle segments: a whole flush batch lands in one
    // file, so every segment is a clean sequence of complete records
    // (plus at most one torn tail after a crash).
    if (SegmentBytes && P.SegBytes >= SegmentBytes)
      rotateSegmentLocked(P, I);
    {
      // Recycle the drained buffer's capacity when no append raced in.
      std::lock_guard<std::mutex> G(P.M);
      if (P.Tail.empty()) {
        Local.clear();
        P.Tail.swap(Local);
      }
    }
  }
  if (Moved) {
    Rounds.fetch_add(1, std::memory_order_relaxed);
    if (Ring)
      Ring->emit(obs::EventKind::WalFlushRound, Moved,
                 (obs::MetricsRegistry::nowNanos() - T0) / 1000,
                 PartsWithData);
    std::lock_guard<std::mutex> G(FlushM);
    CvDurable.notify_all();
  }
  return Moved;
}

void WriteAheadLog::rotateSegmentLocked(Partition &P, unsigned Index) {
  std::string Next = walSegmentPath(Dir, Index, P.Seg + 1);
  int Fd = ::open(Next.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (Fd < 0) {
    // Keep appending to the full segment rather than losing records;
    // latch Failed so Sync committers and tests see the sick disk.
    if (!Failed.exchange(true, std::memory_order_acq_rel))
      std::fprintf(stderr, "wal: segment rotation failed on %s: %s\n",
                   Next.c_str(), std::strerror(errno));
    return;
  }
  P.SealedMaxSeq[P.Seg] = P.SegMaxSeq;
  ::close(P.Fd);
  P.Fd = Fd;
  Rotations.fetch_add(1, std::memory_order_relaxed);
  if (obs::TraceRing *Ring = Trace.load(std::memory_order_acquire))
    Ring->emit(obs::EventKind::WalSegmentRotate, Index, P.Seg, P.SegMaxSeq);
  ++P.Seg;
  P.SegBytes = 0;
  P.SegMaxSeq = 0;
}

void WriteAheadLog::attachMetrics(obs::MetricsRegistry &R,
                                  obs::MetricLabels Labels) {
  detachMetrics();
  MetricsReg = &R;
  using CK = obs::MetricsRegistry::CallbackKind;
  auto Add = [&](const char *N, std::function<uint64_t()> Fn) {
    MetricsCallbacks.push_back(
        R.addCallback(N, Labels, CK::Counter, std::move(Fn)));
  };
  Add("wal.records_appended", [this] { return recordsAppended(); });
  Add("wal.bytes_appended", [this] { return bytesAppended(); });
  Add("wal.flush_rounds", [this] { return syncRounds(); });
  Add("wal.segment_rotations", [this] { return segmentRotations(); });
  Trace.store(&R.ring(obs::EventDomain::Wal), std::memory_order_release);
}

void WriteAheadLog::detachMetrics() {
  Trace.store(nullptr, std::memory_order_release);
  if (MetricsReg) {
    MetricsReg->removeCallbacks(MetricsCallbacks);
    MetricsCallbacks.clear();
    MetricsReg = nullptr;
  }
}

unsigned WriteAheadLog::pruneSegments(uint32_t Partition,
                                      uint64_t Watermark) {
  assert(Partition < Parts.size() && "partition out of range");
  struct Partition &P = *Parts[Partition];
  std::lock_guard<std::mutex> RG(RoundM);
  unsigned Removed = 0;
  for (unsigned Seg : listWalSegments(Dir, Partition)) {
    if (Seg >= P.Seg)
      continue; // never the active segment
    uint64_t MaxSeq;
    auto It = P.SealedMaxSeq.find(Seg);
    if (It != P.SealedMaxSeq.end()) {
      MaxSeq = It->second;
    } else {
      // Sealed by a previous process life: recover the max with one
      // scan and cache it. A torn or unreadable segment is left alone —
      // recovery decides what to do with it, not the pruner.
      WalReadResult R = readWalPartition(walSegmentPath(Dir, Partition, Seg));
      if (!R.ok() || R.TornTail || R.Records.empty())
        continue;
      MaxSeq = 0;
      for (const WalRecord &Rec : R.Records)
        MaxSeq = std::max(MaxSeq, Rec.CommitSeq);
      P.SealedMaxSeq[Seg] = MaxSeq;
    }
    if (MaxSeq > Watermark)
      continue; // still holds records a recovery would replay
    if (::unlink(walSegmentPath(Dir, Partition, Seg).c_str()) == 0) {
      P.SealedMaxSeq.erase(Seg);
      ++Removed;
    }
  }
  return Removed;
}

void WriteAheadLog::flush() {
  std::vector<uint64_t> Targets(Parts.size());
  for (size_t I = 0; I < Parts.size(); ++I) {
    std::lock_guard<std::mutex> G(Parts[I]->M);
    Targets[I] = Parts[I]->Appended;
  }
  for (;;) {
    flushRound();
    bool Done = true;
    for (size_t I = 0; I < Parts.size(); ++I)
      if (Parts[I]->Durable.load(std::memory_order_acquire) < Targets[I] &&
          !Failed.load(std::memory_order_acquire))
        Done = false;
    if (Done)
      return;
  }
}
