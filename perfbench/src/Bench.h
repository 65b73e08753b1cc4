//===- perfbench/src/Bench.h - The relation benchmark's workloads -*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the relation benchmark that its program (main.cpp) and
/// the benchmark's own tests share: the seeded input generator, set-up
/// of the prefilled sparse-graph relation, the closed-loop client, and
/// the oracle. Everything here goes through the public API of
/// src/runtime, src/txn and src/wal; spans are recorded around those
/// calls from this file, never inside the library.
///
/// The graph has NumNodes nodes; an edge is (s, (s + k) mod NumNodes)
/// with k uniform in [0, MaxOffset), so every node has about
/// MaxOffset / 2 successors and predecessors at the half-full steady
/// size. Client i mutates only src values in its own slice of the
/// nodes (reads range over all of them), so the final state is a
/// deterministic replay of each client's mutation log.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "runtime/ConcurrentRelation.h"
#include "runtime/PreparedOp.h"
#include "support/Rng.h"
#include "wal/Wal.h"
#include "workload/GraphWorkload.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr int64_t NumNodes = 8192;
inline constexpr int64_t MaxOffset = 16;
inline constexpr size_t KeySpace = size_t(NumNodes * MaxOffset);
/// Half the key space: the steady size when inserts and removes have
/// equal shares, so the timed phase stays stationary.
inline constexpr size_t PrefillEdges = KeySpace / 2;
inline constexpr unsigned NumClients = 2;
inline constexpr int64_t WeightRange = 1 << 20;
/// Bytes of user payload per logged mutation: src, dst, weight as int64.
inline constexpr uint64_t UserBytesPerMutation = 24;

enum class Workload { Lookup, Churn, TxnDurable };

const char *workloadName(Workload W);
bool parseWorkload(const std::string &Name, Workload &Out);

/// First src value client \p Client may mutate; its slice is
/// [srcBegin(C), srcBegin(C + 1)).
inline int64_t srcBegin(unsigned Client) {
  return int64_t(Client) * NumNodes / NumClients;
}
inline unsigned ownerOf(int64_t Src) {
  return unsigned(Src * NumClients / NumNodes);
}

enum class OpKind : uint8_t { Succ, Pred, Insert, Remove };

/// One generated relation operation. Succ reads the successors of Node,
/// Pred the predecessors of Node; Insert and Remove act on the edge
/// (Node, Dst).
struct Op {
  OpKind Kind = OpKind::Succ;
  int64_t Node = 0;
  int64_t Dst = 0;
  int64_t Weight = 0;

  bool operator==(const Op &O) const {
    return Kind == O.Kind && Node == O.Node && Dst == O.Dst &&
           Weight == O.Weight;
  }
};

/// A transaction scope of txn-durable: two snapshot successor reads, one
/// insert and one remove, in that order.
using Scope = std::array<Op, 4>;

/// The seeded operation stream of one client. The same (workload, seed,
/// client) always yields the same stream.
class OpStream {
public:
  OpStream(Workload W, uint64_t Seed, unsigned Client);
  /// The next bare operation (lookup: 50-50-0-0, churn: 20-20-30-30).
  Op next();
  /// The next txn-durable scope.
  Scope nextScope();

private:
  Workload W;
  unsigned Client;
  crs::Xoshiro256 Rng;

  Op mutation(OpKind K);
  Op read(OpKind K);
};

/// Threads that run the prefill; each writes one slice of the src
/// range, and a client's slice is the union of PrefillThreads /
/// NumClients consecutive prefill slices.
inline constexpr unsigned PrefillThreads = 4;
static_assert(PrefillThreads % NumClients == 0);
inline unsigned prefillSliceOf(int64_t Src) {
  return unsigned(Src * PrefillThreads / NumNodes);
}

/// The prefill, as one mutation list per prefill slice (each holds the
/// edges whose src falls in that slice): insert every key of the key space in a
/// seeded order, then remove all but PrefillEdges of them. Every
/// mutation succeeds, so Outcome is 1 throughout. Writing every key
/// once leaves the version store in the state a long churn reaches (it
/// keeps a chain per key ever written), so the timed phase starts out
/// stationary instead of drifting while the chains accumulate.
std::vector<crs::MutationLog> prefillPlan(uint64_t Seed);

/// Prepared handles over one graph relation, plus the calls the clients
/// make through them.
class GraphHandles {
public:
  explicit GraphHandles(crs::ConcurrentRelation &R);

  crs::PreparedQuery Succ, Pred;
  crs::PreparedInsert Ins;
  crs::PreparedRemove Rem;

  /// Streams the matches, summing their weights; returns the count.
  uint32_t succ(int64_t Src) const;
  uint32_t pred(int64_t Dst) const;
  bool insert(int64_t Src, int64_t Dst, int64_t Weight) const;
  unsigned remove(int64_t Src, int64_t Dst) const;
  /// Transactional calls bind positionally: the values in slot order.
  std::array<crs::Value, 3> insertArgs(int64_t Src, int64_t Dst,
                                       int64_t Weight) const;
  std::array<crs::Value, 2> removeArgs(int64_t Src, int64_t Dst) const;

  crs::ColumnId SrcCol, DstCol, WeightCol;

private:
  unsigned InsSlot[3];
  unsigned RemSlot[2];
};

/// Timings of one set-up.
struct SetupTimes {
  double TotalS = 0;
  double PrefillS = 0;
  double WarmupS = 0;
  /// First execution of each prepared handle (compile, plus any
  /// directory backfill), in ms: succ, pred, insert, remove.
  double FirstExecMs[4] = {0, 0, 0, 0};
};

/// One prefilled relation ready for the timed phase. txn-durable
/// attaches a WriteAheadLog (FsyncMode::Batched, default cadence)
/// before the prefill, so the log holds every acknowledged write.
struct Instance {
  Instance() = default;
  Instance(const Instance &) = delete;
  Instance &operator=(const Instance &) = delete;
  ~Instance();

  Workload W = Workload::Lookup;
  std::unique_ptr<crs::ConcurrentRelation> Rel;
  std::unique_ptr<crs::WriteAheadLog> Wal;
  std::string WalDir;
  std::unique_ptr<GraphHandles> H;
  /// Per-client mutation logs, starting with the client's prefill.
  std::vector<crs::MutationLog> Logs;
  /// Per-node successor count, as each owning client knows it.
  std::vector<uint32_t> Degree;
  /// The node's successor counts before its last few changes: the
  /// states a snapshot that lags the client's own commits may show.
  std::vector<std::array<uint32_t, 4>> PastDegrees;
  /// Per-node predecessor count after the prefill (exact on lookup,
  /// where nothing mutates).
  std::vector<uint32_t> InDegree;
  SetupTimes Times;

  /// Flushes and closes the log, leaving its files for recovery.
  void closeWal();
};

/// The representation every workload uses: Split / Striped 1024 /
/// ConcurrentHashMap + ConcurrentSkipListMap with library defaults.
crs::RepresentationConfig benchRepresentation();

/// Builds, prefills (NumClients threads) and warms one relation. A
/// non-empty \p WalDir attaches a write-ahead log there. Throws
/// std::runtime_error if the prefill or the log fails.
std::unique_ptr<Instance> setUp(Workload W, uint64_t Seed,
                                const std::string &WalDir);

// ---- the closed-loop clients ----------------------------------------------

/// Phases main.cpp moves the clients through. Warm operations run and
/// are logged but not measured; a traced phase also records spans.
enum class Phase : int { Warm, Untraced, Traced, Stop };

/// Span names: one per layer call the benchmark times.
enum class SpanName : uint8_t {
  SuccQuery,
  PredQuery,
  Insert,
  Remove,
  TxnScope,
  TxnQuery,
  TxnInsert,
  TxnRemove,
  TxnCommit,
  Count
};
const char *spanName(SpanName N);

inline constexpr uint32_t NoParent = UINT32_MAX;

/// A timed layer call. Parent indexes the same client's span vector.
struct Span {
  uint64_t OpId = 0;
  uint64_t Start = 0;
  uint64_t End = 0;
  uint32_t Parent = NoParent;
  SpanName Name = SpanName::SuccQuery;
};

/// Everything one client records.
struct ClientState {
  unsigned Client = 0;
  /// Operations completed in the untraced and the traced slices.
  uint64_t MeasuredOps[2] = {0, 0};
  /// Measured operations so far, for the per-slice rates.
  std::atomic<uint64_t> OpsDone{0};
  /// Untraced-phase call latencies (ns): reads, writes, scopes.
  std::vector<uint32_t> ReadNs, WriteNs, ScopeNs;
  std::vector<Span> Spans;

  uint64_t Attempted = 0; ///< operations attempted, every phase
  uint64_t Violations = 0; ///< reads the oracle rejects
  /// txn-durable snapshot reads of an own node that showed one of its
  /// past states instead of the client's latest commit (see README).
  uint64_t StaleReads = 0;
  uint64_t FailedScopes = 0;
  /// Measured-phase tallies.
  uint64_t Queries = 0, Rows = 0;
  uint64_t Inserts = 0, InsertsWon = 0, Removes = 0, RemovesHit = 0;
  uint64_t Attempts = 0, Commits = 0;
  uint64_t AbortConflict = 0, AbortEpochChange = 0, AbortGateBusy = 0,
           AbortOther = 0;
  uint64_t SnapReads = 0, SnapMatches = 0, ChainsVisited = 0,
           DirectoryServed = 0, FullScans = 0;
};

/// Runs client \p S.Client against \p I in a closed loop: while
/// \p Ctl is not Stop, and at most \p MaxCalls calls (0: unbounded).
void runClient(Instance &I, uint64_t Seed, ClientState &S,
               const std::atomic<int> &Ctl, uint64_t MaxCalls = 0);

// ---- the oracle -----------------------------------------------------------

struct OracleReport {
  uint64_t Violations = 0;
  std::vector<std::string> Errors; ///< the first few, for stderr
};

/// Replays \p Logs with crs::replayMutationLogs and compares the
/// expected edge set with \p Actual (a scanAll()).
OracleReport checkState(const std::vector<crs::MutationLog> &Logs,
                        const std::vector<crs::Tuple> &Actual,
                        const GraphHandles &H);

/// Both sides' tuples as sorted (src, dst, weight) triples; equal iff
/// the relations hold the same edges.
std::vector<std::array<int64_t, 3>> edgeSet(const std::vector<crs::Tuple> &Ts,
                                            const GraphHandles &H);

/// Monotonic nanoseconds.
uint64_t nowNs();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
