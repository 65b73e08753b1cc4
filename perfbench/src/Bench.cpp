//===- perfbench/src/Bench.cpp - The relation benchmark's workloads -------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "autotune/Autotuner.h"
#include "support/Compiler.h"
#include "txn/Transaction.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

using namespace crs;

namespace perfbench {

namespace {

/// A runTransaction call that needs more attempts than this counts as a
/// failed scope instead of spinning forever.
constexpr unsigned MaxScopeAttempts = 1000;

/// The edge no generated operation touches (k == MaxOffset): set-up
/// inserts and removes it to execute the write handles once.
constexpr int64_t ScratchSrc = 0;
constexpr int64_t ScratchDst = MaxOffset;

uint64_t streamSeed(Workload W, uint64_t Seed, unsigned Client) {
  SplitMix64 Mix(Seed);
  return Mix.next() ^ (uint64_t(Client) + 1) * 0x9e3779b97f4a7c15ULL ^
         uint64_t(W) << 56;
}

double secondsSince(uint64_t StartNs) { return (nowNs() - StartNs) * 1e-9; }

} // namespace

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::Lookup:
    return "lookup";
  case Workload::Churn:
    return "churn";
  case Workload::TxnDurable:
    return "txn-durable";
  }
  return "?";
}

bool parseWorkload(const std::string &Name, Workload &Out) {
  for (Workload W : {Workload::Lookup, Workload::Churn, Workload::TxnDurable})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

const char *spanName(SpanName N) {
  static const char *Names[] = {"runtime.succ_query", "runtime.pred_query",
                                "runtime.insert",     "runtime.remove",
                                "txn.scope",          "txn.query",
                                "txn.insert",         "txn.remove",
                                "txn.commit"};
  return Names[unsigned(N)];
}

// ---- input generation -------------------------------------------------------

OpStream::OpStream(Workload W, uint64_t Seed, unsigned Client)
    : W(W), Client(Client), Rng(streamSeed(W, Seed, Client)) {}

Op OpStream::read(OpKind K) {
  Op O;
  O.Kind = K;
  O.Node = int64_t(Rng.nextBounded(NumNodes));
  return O;
}

Op OpStream::mutation(OpKind K) {
  Op O;
  O.Kind = K;
  int64_t Begin = srcBegin(Client);
  O.Node = Begin + int64_t(Rng.nextBounded(uint64_t(srcBegin(Client + 1) - Begin)));
  O.Dst = (O.Node + int64_t(Rng.nextBounded(MaxOffset))) % NumNodes;
  if (K == OpKind::Insert)
    O.Weight = int64_t(Rng.nextBounded(WeightRange));
  return O;
}

Op OpStream::next() {
  if (W == Workload::Lookup)
    return read(Rng.nextBounded(2) ? OpKind::Pred : OpKind::Succ);
  // churn: 20-20-30-30
  uint64_t R = Rng.nextBounded(100);
  if (R < 20)
    return read(OpKind::Succ);
  if (R < 40)
    return read(OpKind::Pred);
  return mutation(R < 70 ? OpKind::Insert : OpKind::Remove);
}

Scope OpStream::nextScope() {
  // Sequenced statements: the draws happen in this order.
  Scope S;
  S[0] = read(OpKind::Succ);
  S[1] = read(OpKind::Succ);
  S[2] = mutation(OpKind::Insert);
  S[3] = mutation(OpKind::Remove);
  return S;
}

std::vector<MutationLog> prefillPlan(uint64_t Seed) {
  Xoshiro256 Rng(SplitMix64(Seed ^ 0x70726566696c6cULL).next());
  std::vector<uint32_t> Keys(KeySpace);
  for (size_t K = 0; K < KeySpace; ++K)
    Keys[K] = uint32_t(K);
  for (size_t I = KeySpace - 1; I > 0; --I)
    std::swap(Keys[I], Keys[size_t(Rng.nextBounded(I + 1))]);
  auto Edge = [](uint32_t Key, bool IsInsert) {
    LoggedMutation M;
    M.IsInsert = IsInsert;
    M.Src = Key / MaxOffset;
    M.Dst = (M.Src + Key % MaxOffset) % NumNodes;
    M.Outcome = 1;
    return M;
  };
  std::vector<MutationLog> Plan(PrefillThreads);
  for (uint32_t Key : Keys) {
    LoggedMutation M = Edge(Key, true);
    M.Weight = int64_t(Rng.nextBounded(WeightRange));
    Plan[prefillSliceOf(M.Src)].push_back(M);
  }
  // The first PrefillEdges keys of the order stay; the rest go again.
  for (size_t K = PrefillEdges; K < KeySpace; ++K) {
    LoggedMutation M = Edge(Keys[K], false);
    Plan[prefillSliceOf(M.Src)].push_back(M);
  }
  return Plan;
}

// ---- the relation -----------------------------------------------------------

RepresentationConfig benchRepresentation() {
  return makeGraphRepresentation(
      {GraphShape::Split, PlacementSchemeKind::Striped, 1024,
       ContainerKind::ConcurrentHashMap, ContainerKind::ConcurrentSkipListMap});
}

namespace {
template <typename Handle> unsigned slotOf(const Handle &H, ColumnId C) {
  for (unsigned I = 0; I < H.numSlots(); ++I)
    if (H.slotColumn(I) == C)
      return I;
  throw std::runtime_error("prepared handle does not bind a graph column");
}
} // namespace

GraphHandles::GraphHandles(ConcurrentRelation &R) {
  const RelationSpec &Spec = R.spec();
  SrcCol = Spec.col("src");
  DstCol = Spec.col("dst");
  WeightCol = Spec.col("weight");
  ColumnSet Key = ColumnSet::of(SrcCol) | ColumnSet::of(DstCol);
  Succ = R.prepareQuery(ColumnSet::of(SrcCol),
                        ColumnSet::of(DstCol) | ColumnSet::of(WeightCol));
  Pred = R.prepareQuery(ColumnSet::of(DstCol),
                        ColumnSet::of(SrcCol) | ColumnSet::of(WeightCol));
  Ins = R.prepareInsert(Key);
  Rem = R.prepareRemove(Key);
  if (Succ.numSlots() != 1 || Pred.numSlots() != 1 || Ins.numSlots() != 3 ||
      Rem.numSlots() != 2)
    throw std::runtime_error("unexpected bind layout");
  InsSlot[0] = slotOf(Ins, SrcCol);
  InsSlot[1] = slotOf(Ins, DstCol);
  InsSlot[2] = slotOf(Ins, WeightCol);
  RemSlot[0] = slotOf(Rem, SrcCol);
  RemSlot[1] = slotOf(Rem, DstCol);
}

uint32_t GraphHandles::succ(int64_t Src) const {
  int64_t Sum = 0;
  Succ.bind(0, Value::ofInt(Src));
  uint32_t N =
      Succ.forEach([&](const Tuple &T) { Sum += T.get(WeightCol).asInt(); });
  doNotOptimize(Sum);
  return N;
}

uint32_t GraphHandles::pred(int64_t Dst) const {
  int64_t Sum = 0;
  Pred.bind(0, Value::ofInt(Dst));
  uint32_t N =
      Pred.forEach([&](const Tuple &T) { Sum += T.get(WeightCol).asInt(); });
  doNotOptimize(Sum);
  return N;
}

bool GraphHandles::insert(int64_t Src, int64_t Dst, int64_t Weight) const {
  Ins.bind(InsSlot[0], Value::ofInt(Src));
  Ins.bind(InsSlot[1], Value::ofInt(Dst));
  Ins.bind(InsSlot[2], Value::ofInt(Weight));
  return Ins.execute();
}

unsigned GraphHandles::remove(int64_t Src, int64_t Dst) const {
  Rem.bind(RemSlot[0], Value::ofInt(Src));
  Rem.bind(RemSlot[1], Value::ofInt(Dst));
  return Rem.execute();
}

std::array<Value, 3> GraphHandles::insertArgs(int64_t Src, int64_t Dst,
                                              int64_t Weight) const {
  std::array<Value, 3> A;
  A[InsSlot[0]] = Value::ofInt(Src);
  A[InsSlot[1]] = Value::ofInt(Dst);
  A[InsSlot[2]] = Value::ofInt(Weight);
  return A;
}

std::array<Value, 2> GraphHandles::removeArgs(int64_t Src, int64_t Dst) const {
  std::array<Value, 2> A;
  A[RemSlot[0]] = Value::ofInt(Src);
  A[RemSlot[1]] = Value::ofInt(Dst);
  return A;
}

Instance::~Instance() {
  H.reset();
  if (Rel && Wal)
    Rel->detachWal();
  Wal.reset();
  Rel.reset();
  if (!WalDir.empty()) {
    std::error_code Ec;
    std::filesystem::remove_all(WalDir, Ec);
  }
}

void Instance::closeWal() {
  if (Rel && Wal)
    Rel->detachWal();
  Wal.reset(); // the destructor drains the tail to the files
}

std::unique_ptr<Instance> setUp(Workload W, uint64_t Seed,
                                const std::string &WalDir) {
  std::vector<MutationLog> Plan = prefillPlan(Seed);
  uint64_t Start = nowNs();
  auto I = std::make_unique<Instance>();
  I->W = W;
  I->Rel = std::make_unique<ConcurrentRelation>(benchRepresentation());
  if (!WalDir.empty()) {
    std::error_code Ec;
    std::filesystem::remove_all(WalDir, Ec);
    I->WalDir = WalDir;
    WriteAheadLog::Options O;
    O.Dir = WalDir;
    O.Fsync = FsyncMode::Batched;
    std::string Err;
    I->Wal = WriteAheadLog::open(O, &Err);
    if (!I->Wal)
      throw std::runtime_error("cannot open the write-ahead log: " + Err);
    I->Rel->attachWal(*I->Wal);
  }
  I->H = std::make_unique<GraphHandles>(*I->Rel);
  GraphHandles &H = *I->H;
  SetupTimes &T = I->Times;

  // The write handles' first executions (plan compile) run on the
  // empty relation; the scratch edge leaves no trace in the state.
  uint64_t WarmStart = nowNs();
  uint64_t T0 = nowNs();
  bool ScratchWon = H.insert(ScratchSrc, ScratchDst, 0);
  T.FirstExecMs[2] = (nowNs() - T0) * 1e-6;
  T0 = nowNs();
  unsigned ScratchRemoved = H.remove(ScratchSrc, ScratchDst);
  T.FirstExecMs[3] = (nowNs() - T0) * 1e-6;
  if (!ScratchWon || ScratchRemoved != 1)
    throw std::runtime_error("scratch insert/remove failed");
  double WarmS = secondsSince(WarmStart);

  // Prefill: each client's thread writes the edges of its own slice.
  uint64_t PrefillStart = nowNs();
  I->Logs.assign(NumClients, {});
  I->Degree.assign(size_t(NumNodes), 0);
  I->PastDegrees.assign(size_t(NumNodes), {UINT32_MAX, UINT32_MAX,
                                           UINT32_MAX, UINT32_MAX});
  std::vector<MutationLog> SliceLogs(PrefillThreads);
  std::vector<std::thread> Threads;
  for (unsigned P = 0; P < PrefillThreads; ++P)
    Threads.emplace_back([&, P] {
      MutationLog &Log = SliceLogs[P];
      Log.reserve(Plan[P].size());
      for (LoggedMutation M : Plan[P]) {
        uint32_t &D = I->Degree[size_t(M.Src)];
        if (M.IsInsert) {
          M.Outcome = H.insert(M.Src, M.Dst, M.Weight) ? 1 : 0;
          D += uint32_t(M.Outcome);
        } else {
          M.Outcome = H.remove(M.Src, M.Dst);
          D -= uint32_t(M.Outcome);
        }
        Log.push_back(M);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  // Slices hold disjoint keys, so appending them keeps each key's order.
  for (unsigned P = 0; P < PrefillThreads; ++P) {
    MutationLog &Log = I->Logs[P * NumClients / PrefillThreads];
    Log.insert(Log.end(), SliceLogs[P].begin(), SliceLogs[P].end());
  }
  T.PrefillS = secondsSince(PrefillStart);
  if (I->Rel->size() != PrefillEdges)
    throw std::runtime_error("prefill left " +
                             std::to_string(I->Rel->size()) + " edges, not " +
                             std::to_string(PrefillEdges));
  I->InDegree.assign(size_t(NumNodes), 0);
  for (const MutationLog &Log : I->Logs)
    for (const LoggedMutation &M : Log)
      I->InDegree[size_t(M.Dst)] += M.IsInsert ? 1 : -1;

  // The read handles' first executions, on the full relation.
  WarmStart = nowNs();
  T0 = nowNs();
  H.succ(0);
  T.FirstExecMs[0] = (nowNs() - T0) * 1e-6;
  T0 = nowNs();
  H.pred(0);
  T.FirstExecMs[1] = (nowNs() - T0) * 1e-6;
  if (W == Workload::TxnDurable) {
    // The first snapshot read of the successor signature backfills the
    // version store's secondary directory; a user pays it once.
    bool Ok = runTransaction(*I->Rel, [&](Transaction &Txn) {
      return Txn.query(H.Succ, {Value::ofInt(0)});
    });
    if (!Ok)
      throw std::runtime_error("warm-up transaction did not commit");
  }
  T.WarmupS = WarmS + secondsSince(WarmStart);
  T.TotalS = secondsSince(Start);
  return I;
}

// ---- the closed-loop client -------------------------------------------------

namespace {

/// One client's loop state, shared by the bare and transactional paths.
struct ClientLoop {
  Instance &I;
  GraphHandles &H;
  ClientState &S;
  MutationLog &Log;

  bool Measured = false;
  bool Traced = false;
  uint64_t OpId = 0;

  /// Calls \p F, recording a span named \p N when tracing.
  template <typename Fn>
  auto timed(SpanName N, uint32_t Parent, Fn &&F) -> decltype(F()) {
    if (!Traced)
      return F();
    uint64_t A = nowNs();
    auto R = F();
    uint64_t B = nowNs();
    S.Spans.push_back({OpId, A, B, Parent, N});
    return R;
  }

  bool ownsSrc(int64_t Src) const { return ownerOf(Src) == S.Client; }

  /// The oracle for a successor read: the owning client's view of the
  /// node is exact (nobody else mutates it; on lookup nobody does).
  void checkSucc(int64_t Src, uint32_t Matches) {
    if ((I.W == Workload::Lookup || ownsSrc(Src)) &&
        Matches != I.Degree[size_t(Src)])
      ++S.Violations;
  }

  /// A snapshot read of an own node: the latest state, or (counted
  /// apart) one of the node's recent past states. A scope's snapshot
  /// sits below every commit still in flight (sync/CommitClock.h), so
  /// it can miss this client's own last commit while the other
  /// client's commit is open.
  void checkSnapshotSucc(int64_t Src, uint32_t Matches) {
    if (!ownsSrc(Src) || Matches == I.Degree[size_t(Src)])
      return;
    const auto &Past = I.PastDegrees[size_t(Src)];
    if (std::find(Past.begin(), Past.end(), Matches) != Past.end())
      ++S.StaleReads;
    else
      ++S.Violations;
  }

  void setDegree(int64_t Src, uint32_t D) {
    uint32_t &Cur = I.Degree[size_t(Src)];
    if (D == Cur)
      return;
    auto &Past = I.PastDegrees[size_t(Src)];
    std::rotate(Past.rbegin(), Past.rbegin() + 1, Past.rend());
    Past[0] = Cur;
    Cur = D;
  }

  void applyInsert(const Op &O, bool Won) {
    Log.push_back({true, O.Node, O.Dst, O.Weight, Won ? 1 : 0});
    setDegree(O.Node, I.Degree[size_t(O.Node)] + (Won ? 1 : 0));
  }
  void applyRemove(const Op &O, unsigned Removed) {
    Log.push_back({false, O.Node, O.Dst, 0, int64_t(Removed)});
    setDegree(O.Node, I.Degree[size_t(O.Node)] - Removed);
  }

  void record(std::vector<uint32_t> &V, uint64_t Ns) {
    if (Measured && !Traced)
      V.push_back(uint32_t(std::min<uint64_t>(Ns, UINT32_MAX)));
  }

  void bareOp(const Op &O) {
    uint64_t T0 = 0, T1 = 0;
    ++S.Attempted;
    switch (O.Kind) {
    case OpKind::Succ:
    case OpKind::Pred: {
      bool IsSucc = O.Kind == OpKind::Succ;
      T0 = nowNs();
      uint32_t N = IsSucc ? H.succ(O.Node) : H.pred(O.Node);
      T1 = nowNs();
      if (IsSucc)
        checkSucc(O.Node, N);
      else if (I.W == Workload::Lookup && N != I.InDegree[size_t(O.Node)])
        ++S.Violations;
      record(S.ReadNs, T1 - T0);
      if (Measured) {
        ++S.Queries;
        S.Rows += N;
      }
      break;
    }
    case OpKind::Insert: {
      T0 = nowNs();
      bool Won = H.insert(O.Node, O.Dst, O.Weight);
      T1 = nowNs();
      applyInsert(O, Won);
      record(S.WriteNs, T1 - T0);
      if (Measured) {
        ++S.Inserts;
        S.InsertsWon += Won;
      }
      break;
    }
    case OpKind::Remove: {
      T0 = nowNs();
      unsigned Removed = H.remove(O.Node, O.Dst);
      T1 = nowNs();
      applyRemove(O, Removed);
      record(S.WriteNs, T1 - T0);
      if (Measured) {
        ++S.Removes;
        S.RemovesHit += Removed;
      }
      break;
    }
    }
    if (Traced) {
      static const SpanName Names[] = {SpanName::SuccQuery, SpanName::PredQuery,
                                       SpanName::Insert, SpanName::Remove};
      S.Spans.push_back({OpId, T0, T1, NoParent, Names[unsigned(O.Kind)]});
    }
    if (Measured) {
      ++S.MeasuredOps[Traced];
      S.OpsDone.store(S.OpsDone.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    }
  }

  void noteAbort(TxnAbortCause C) {
    if (!Measured)
      return;
    switch (C) {
    case TxnAbortCause::Conflict:
      ++S.AbortConflict;
      break;
    case TxnAbortCause::EpochChange:
      ++S.AbortEpochChange;
      break;
    case TxnAbortCause::GateBusy:
      ++S.AbortGateBusy;
      break;
    default:
      ++S.AbortOther;
      break;
    }
  }

  void scope(const Scope &Sc) {
    uint32_t Parent = NoParent;
    if (Traced) {
      Parent = uint32_t(S.Spans.size());
      S.Spans.push_back({OpId, 0, 0, NoParent, SpanName::TxnScope});
    }
    uint32_t Matches[2] = {0, 0};
    SnapshotQueryStats Stats[2];
    bool Won = false;
    unsigned Removed = 0;
    uint64_t Attempts = 0;
    std::array<Value, 3> InsArgs =
        H.insertArgs(Sc[2].Node, Sc[2].Dst, Sc[2].Weight);
    std::array<Value, 2> RemArgs = H.removeArgs(Sc[3].Node, Sc[3].Dst);
    auto Visit = [&](const Tuple &T) { doNotOptimize(T.get(H.WeightCol)); };

    uint64_t T0 = nowNs();
    bool Committed = runTransaction(
        *I.Rel,
        [&](Transaction &Txn) {
          ++Attempts;
          for (unsigned R = 0; R < 2; ++R) {
            if (!timed(SpanName::TxnQuery, Parent, [&] {
                  return Txn.query(H.Succ, {Value::ofInt(Sc[R].Node)}, Visit,
                                   &Matches[R]);
                }))
              return true;
            Stats[R] = Txn.lastSnapshotReadStats();
          }
          if (!timed(SpanName::TxnInsert, Parent, [&] {
                return Txn.insert(H.Ins, {InsArgs[0], InsArgs[1], InsArgs[2]},
                                  &Won);
              }) ||
              !timed(SpanName::TxnRemove, Parent, [&] {
                return Txn.remove(H.Rem, {RemArgs[0], RemArgs[1]}, &Removed);
              }) ||
              !timed(SpanName::TxnCommit, Parent, [&] { return Txn.commit(); }))
            noteAbort(Txn.abortCause());
          return true; // a dead scope is retried by runTransaction
        },
        MaxScopeAttempts);
    uint64_t T1 = nowNs();

    S.Attempted += Sc.size();
    if (Committed) {
      // The reads precede the scope's own writes, so they see the
      // client's view before this scope.
      checkSnapshotSucc(Sc[0].Node, Matches[0]);
      checkSnapshotSucc(Sc[1].Node, Matches[1]);
      applyInsert(Sc[2], Won);
      applyRemove(Sc[3], Removed);
    } else {
      ++S.FailedScopes;
    }
    if (Traced) {
      S.Spans[Parent].Start = T0;
      S.Spans[Parent].End = T1;
    }
    record(S.ScopeNs, T1 - T0);
    if (!Measured)
      return;
    S.Attempts += Attempts;
    if (!Committed)
      return;
    S.MeasuredOps[Traced] += Sc.size();
    S.OpsDone.store(S.OpsDone.load(std::memory_order_relaxed) + Sc.size(),
                    std::memory_order_relaxed);
    ++S.Commits;
    ++S.Inserts;
    S.InsertsWon += Won;
    ++S.Removes;
    S.RemovesHit += Removed;
    for (unsigned R = 0; R < 2; ++R) {
      ++S.SnapReads;
      S.SnapMatches += Matches[R];
      S.ChainsVisited += Stats[R].ChainsVisited;
      S.DirectoryServed += Stats[R].DirectoryServed;
      S.FullScans += Stats[R].FullScan;
    }
  }
};

} // namespace

void runClient(Instance &I, uint64_t Seed, ClientState &S,
               const std::atomic<int> &Ctl, uint64_t MaxCalls) {
  OpStream Stream(I.W, Seed, S.Client);
  ClientLoop L{I, *I.H, S, I.Logs[S.Client]};
  for (uint64_t Seq = 0; MaxCalls == 0 || Seq < MaxCalls; ++Seq) {
    int P = Ctl.load(std::memory_order_relaxed);
    if (P == int(Phase::Stop))
      break;
    L.Measured = P == int(Phase::Untraced) || P == int(Phase::Traced);
    L.Traced = P == int(Phase::Traced);
    L.OpId = uint64_t(S.Client) << 48 | Seq;
    if (I.W == Workload::TxnDurable)
      L.scope(Stream.nextScope());
    else
      L.bareOp(Stream.next());
  }
}

// ---- the oracle -------------------------------------------------------------

std::vector<std::array<int64_t, 3>> edgeSet(const std::vector<Tuple> &Ts,
                                            const GraphHandles &H) {
  std::vector<std::array<int64_t, 3>> E;
  E.reserve(Ts.size());
  for (const Tuple &T : Ts)
    E.push_back({T.get(H.SrcCol).asInt(), T.get(H.DstCol).asInt(),
                 T.get(H.WeightCol).asInt()});
  std::sort(E.begin(), E.end());
  return E;
}

OracleReport checkState(const std::vector<MutationLog> &Logs,
                        const std::vector<Tuple> &Actual,
                        const GraphHandles &H) {
  OracleReport R;
  std::vector<std::string> Errors;
  auto Expected = replayMutationLogs(Logs, &Errors);
  R.Violations = Errors.size();
  size_t Matched = 0;
  for (const auto &E : edgeSet(Actual, H)) {
    auto It = Expected.find({E[0], E[1]});
    if (It != Expected.end() && It->second == E[2]) {
      ++Matched;
      continue;
    }
    ++R.Violations;
    Errors.push_back("unexpected edge (" + std::to_string(E[0]) + ", " +
                     std::to_string(E[1]) + ")");
  }
  if (Expected.size() > Matched) {
    R.Violations += Expected.size() - Matched;
    Errors.push_back(std::to_string(Expected.size() - Matched) +
                     " expected edges missing");
  }
  for (size_t K = 0; K < Errors.size() && K < 5; ++K)
    R.Errors.push_back(Errors[K]);
  return R;
}

} // namespace perfbench
