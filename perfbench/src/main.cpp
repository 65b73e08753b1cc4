//===- perfbench/src/main.cpp - The relation benchmark program ------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark run: set up the prefilled relation several times (the
/// last instance is kept), drive NumClients closed-loop clients through
/// a warm window and then a measured window of --seconds, check the
/// result against the oracle, and print one JSON object as the last
/// line of standard output.
///
///   relbench --workload lookup|churn|txn-durable --seed N
///                    --seconds S --trace 0|1 [--workdir DIR]
///                    [--trace-out FILE]
///
/// --trace 0 prints the end-to-end metrics; --trace 1 alternates
/// untraced and traced slices of the measured window and prints the
/// per-layer metrics (spans around every layer call, counters read
/// before and after). The exit code is 0 iff the oracle found nothing.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Metrics.h"
#include "sync/Epoch.h"
#include "txn/MvccStore.h"
#include "wal/Checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

using namespace crs;
using namespace perfbench;

namespace {

struct Args {
  Workload W = Workload::Lookup;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Workdir = ".bench_build/run";
  std::string TraceOut;
};

/// Set-ups per run (setup_s is their median) and the warm window before
/// the measured one. The set-ups already run the CPUs for several
/// seconds, so a short warm window suffices.
constexpr unsigned Setups = 2;
constexpr double WarmSeconds = 3;

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "relbench: %s\nusage: relbench --workload "
               "lookup|churn|txn-durable --seed N --seconds S --trace 0|1 "
               "[--workdir DIR] [--trace-out FILE]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    auto Num = [&] {
      double D = std::strtod(V.c_str(), &End);
      if (End == V.c_str() || *End != '\0' || !(D >= 0))
        usage(("bad number for " + Flag).c_str());
      return D;
    };
    if (Flag == "--workload") {
      if (!parseWorkload(V, A.W))
        usage(("unknown workload " + V).c_str());
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      if (End == V.c_str() || *End != '\0')
        usage("bad seed");
    } else if (Flag == "--seconds") {
      A.Seconds = Num();
    } else if (Flag == "--trace") {
      A.Trace = Num() != 0;
    } else if (Flag == "--workdir") {
      A.Workdir = V;
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  if (A.Seconds <= 0)
    usage("--seconds must be positive");
  return A;
}

size_t rssBytes() {
  std::ifstream F("/proc/self/statm");
  size_t Pages = 0, Resident = 0;
  F >> Pages >> Resident;
  return Resident * size_t(::sysconf(_SC_PAGESIZE));
}

/// Length of one measured slice.
constexpr double SliceSeconds = 0.5;

void sleepFor(double Seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile of \p Ns in microseconds (0 when empty).
double percentileUs(std::vector<uint32_t> &Ns, double P) {
  if (Ns.empty())
    return 0;
  size_t Rank = size_t(std::ceil(P * double(Ns.size())));
  size_t K = std::min(Ns.size() - 1, Rank ? Rank - 1 : 0);
  std::nth_element(Ns.begin(), Ns.begin() + std::ptrdiff_t(K), Ns.end());
  return Ns[K] * 1e-3;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Metrics in print order, each with its unit.
struct MetricList {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> M;
  void add(const std::string &Name, double V, const std::string &Unit) {
    M.push_back({Name, {V, Unit}});
  }
};

/// Counters read from outside the relation, before and after the
/// measured window.
struct Counters {
  uint64_t Restarts = 0, PlanMisses = 0, Installs = 0;
  uint64_t WalRecords = 0, WalBytes = 0, WalRounds = 0;
  int64_t EpochCurrent = 0, EpochPending = 0;
  uint64_t EpochReclaimed = 0;

  static Counters read(const Instance &I, const obs::MetricsRegistry *Reg) {
    Counters C;
    C.Restarts = I.Rel->restarts();
    C.PlanMisses = I.Rel->planCacheMisses();
    C.Installs = I.Rel->mvccStore().installed();
    if (I.Wal) {
      C.WalRecords = I.Wal->recordsAppended();
      C.WalBytes = I.Wal->bytesAppended();
      C.WalRounds = I.Wal->syncRounds();
    }
    if (Reg) {
      obs::MetricsSnapshot S = Reg->snapshot();
      for (const auto &G : S.Gauges) {
        if (G.Name == "epoch.current")
          C.EpochCurrent = G.Value;
        else if (G.Name == "epoch.pending_retires")
          C.EpochPending = G.Value;
      }
      for (const auto &K : S.Counters)
        if (K.Name == "epoch.reclaimed")
          C.EpochReclaimed = K.Value;
    }
    return C;
  }
};

void writeSpans(const std::string &Path,
                const std::vector<ClientState> &Clients) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write spans to %s\n", Path.c_str());
    return;
  }
  std::fprintf(F, "client,op_id,name,start_ns,end_ns,parent\n");
  for (const ClientState &S : Clients)
    for (const Span &Sp : S.Spans)
      std::fprintf(F, "%u,%llu,%s,%llu,%llu,%lld\n", S.Client,
                   (unsigned long long)(Sp.OpId & ((1ull << 48) - 1)),
                   spanName(Sp.Name), (unsigned long long)Sp.Start,
                   (unsigned long long)Sp.End,
                   Sp.Parent == NoParent ? -1LL : (long long)Sp.Parent);
  std::fclose(F);
}

/// Per-layer metrics from the traced slices' spans: p50/p99 of each
/// layer call, and the scope's self time (its duration minus the child
/// spans it covers).
void addSpanMetrics(MetricList &Out, const std::vector<ClientState> &Clients) {
  std::vector<uint32_t> Dur[unsigned(SpanName::Count)];
  std::vector<uint32_t> ScopeSelf;
  for (const ClientState &S : Clients) {
    std::vector<uint64_t> ChildNs(S.Spans.size(), 0);
    for (const Span &Sp : S.Spans) {
      Dur[unsigned(Sp.Name)].push_back(uint32_t(Sp.End - Sp.Start));
      if (Sp.Parent != NoParent)
        ChildNs[Sp.Parent] += Sp.End - Sp.Start;
    }
    for (size_t K = 0; K < S.Spans.size(); ++K)
      if (S.Spans[K].Name == SpanName::TxnScope)
        ScopeSelf.push_back(
            uint32_t(S.Spans[K].End - S.Spans[K].Start - ChildNs[K]));
  }
  auto Pcts = [&](const std::string &Name, std::vector<uint32_t> &V) {
    Out.add(Name + ".p50", percentileUs(V, 0.50), "us");
    Out.add(Name + ".p99", percentileUs(V, 0.99), "us");
    Out.add(Name + ".samples", double(V.size()), "count");
  };
  Pcts("runtime.succ_query_us", Dur[unsigned(SpanName::SuccQuery)]);
  Pcts("runtime.pred_query_us", Dur[unsigned(SpanName::PredQuery)]);
  Pcts("runtime.insert_us", Dur[unsigned(SpanName::Insert)]);
  Pcts("runtime.remove_us", Dur[unsigned(SpanName::Remove)]);
  Pcts("txn.query_us", Dur[unsigned(SpanName::TxnQuery)]);
  Pcts("txn.insert_us", Dur[unsigned(SpanName::TxnInsert)]);
  Pcts("txn.remove_us", Dur[unsigned(SpanName::TxnRemove)]);
  Pcts("txn.commit_us", Dur[unsigned(SpanName::TxnCommit)]);
  Pcts("txn.scope_self_us", ScopeSelf);
}

int runBenchmark(const Args &A) {
  std::filesystem::create_directories(A.Workdir);
  std::string WalDir;
  if (A.W == Workload::TxnDurable)
    WalDir = A.Workdir + "/wal";

  // ---- set-up, several times; the last instance is kept -------------------
  std::vector<double> SetupS, PrefillS, WarmupS, FirstExec[4];
  double RssPerTuple = 0;
  std::unique_ptr<Instance> I;
  for (unsigned K = 0; K < Setups; ++K) {
    I.reset();
    size_t RssBefore = rssBytes();
    I = setUp(A.W, A.Seed, WalDir);
    size_t RssAfter = rssBytes();
    if (K == 0)
      RssPerTuple = double(RssAfter - std::min(RssAfter, RssBefore)) /
                    double(I->Rel->size());
    SetupS.push_back(I->Times.TotalS);
    std::fprintf(stderr, "setup %u: %.3f s (prefill %.3f s, warm-up %.3f s)\n",
                 K, I->Times.TotalS, I->Times.PrefillS, I->Times.WarmupS);
    PrefillS.push_back(I->Times.PrefillS);
    WarmupS.push_back(I->Times.WarmupS);
    for (unsigned H = 0; H < 4; ++H)
      FirstExec[H].push_back(I->Times.FirstExecMs[H]);
  }

  // ---- the clients ----------------------------------------------------------
  obs::MetricsRegistry Reg;
  if (A.Trace)
    EpochDomain::global().attachMetrics(Reg);
  std::vector<ClientState> Clients(NumClients);
  for (unsigned C = 0; C < NumClients; ++C) {
    Clients[C].Client = C;
    size_t Expect = size_t(A.Seconds * 100000);
    Clients[C].ReadNs.reserve(Expect);
    Clients[C].WriteNs.reserve(A.W == Workload::Churn ? Expect : 0);
    Clients[C].ScopeNs.reserve(A.W == Workload::TxnDurable ? Expect / 4 : 0);
    if (A.Trace)
      Clients[C].Spans.reserve(Expect);
  }
  std::atomic<int> Ctl{int(Phase::Warm)};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < NumClients; ++C)
    Threads.emplace_back(
        [&, C] { runClient(*I, A.Seed, Clients[C], Ctl, 0); });

  sleepFor(WarmSeconds);
  Counters Before = Counters::read(*I, A.Trace ? &Reg : nullptr);
  // The window is cut into slices; throughput is the median of the
  // slices' rates, so a short stall on a shared host moves one slice,
  // not the result. Traced runs alternate untraced and traced slices,
  // so both see the same stretch of the run and the overhead compares
  // like with like.
  auto OpsSoFar = [&] {
    uint64_t N = 0;
    for (const ClientState &S : Clients)
      N += S.OpsDone.load(std::memory_order_relaxed);
    return N;
  };
  std::vector<double> SliceRates[2];
  double PhaseS[2] = {0, 0};
  uint64_t WindowStart = nowNs();
  double Left = A.Seconds;
  for (unsigned K = 0; Left > 1e-9; ++K) {
    unsigned P = A.Trace ? K % 2 : 0;
    double D = std::min(SliceSeconds, Left);
    uint64_t N0 = OpsSoFar(), T0 = nowNs();
    Ctl.store(int(P ? Phase::Traced : Phase::Untraced),
              std::memory_order_relaxed);
    sleepFor(D);
    double Took = (nowNs() - T0) * 1e-9;
    SliceRates[P].push_back(double(OpsSoFar() - N0) / Took);
    PhaseS[P] += Took;
    Left -= D;
  }
  Ctl.store(int(Phase::Stop), std::memory_order_relaxed);
  for (std::thread &Th : Threads)
    Th.join();
  double WindowS = (nowNs() - WindowStart) * 1e-9;
  Counters After = Counters::read(*I, A.Trace ? &Reg : nullptr);
  if (A.Trace)
    EpochDomain::global().detachMetrics();

  // ---- the oracle ---------------------------------------------------------
  uint64_t Attempted = 0, Failed = 0, StaleReads = 0;
  for (const ClientState &S : Clients) {
    Attempted += S.Attempted;
    StaleReads += S.StaleReads;
    Failed += S.Violations + S.FailedScopes * Scope().size();
  }
  double FinalFlushMs = 0;
  if (I->Wal) {
    uint64_t T0 = nowNs();
    I->Wal->flush();
    FinalFlushMs = (nowNs() - T0) * 1e-6;
    I->closeWal();
  }
  std::vector<Tuple> Final = I->Rel->scanAll();
  OracleReport Report = checkState(I->Logs, Final, *I->H);
  Failed += Report.Violations;
  for (const std::string &E : Report.Errors)
    std::fprintf(stderr, "oracle: %s\n", E.c_str());
  bool RecoveredOk = true;
  if (!WalDir.empty()) {
    // Every acknowledged write must be readable from the flushed bytes.
    // The recovered copy is only compared, never measured: sizing its
    // version store up front keeps the replay from dominating the run.
    RepresentationConfig Sized = benchRepresentation();
    Sized.ExpectedCardinality = perfbench::KeySpace;
    ConcurrentRelation Recovered(Sized);
    RecoveryResult RR = recoverRelation(Recovered, WalDir);
    RecoveredOk = RR.Ok && edgeSet(Recovered.scanAll(), *I->H) ==
                               edgeSet(Final, *I->H);
    if (!RecoveredOk) {
      ++Failed;
      std::fprintf(stderr, "recovery: %s\n",
                   RR.Ok ? "recovered relation differs from the primary"
                         : RR.Error.c_str());
    }
  }
  bool Correct = Failed == 0 && RecoveredOk;

  // ---- metrics ------------------------------------------------------------
  uint64_t Ops[2] = {0, 0};
  std::vector<uint32_t> ReadNs, WriteNs, ScopeNs;
  for (const ClientState &S : Clients) {
    Ops[0] += S.MeasuredOps[0];
    Ops[1] += S.MeasuredOps[1];
    ReadNs.insert(ReadNs.end(), S.ReadNs.begin(), S.ReadNs.end());
    WriteNs.insert(WriteNs.end(), S.WriteNs.begin(), S.WriteNs.end());
    ScopeNs.insert(ScopeNs.end(), S.ScopeNs.begin(), S.ScopeNs.end());
  }
  std::vector<uint32_t> CallNs = ReadNs;
  CallNs.insert(CallNs.end(), WriteNs.begin(), WriteNs.end());
  CallNs.insert(CallNs.end(), ScopeNs.begin(), ScopeNs.end());
  double Throughput = median(SliceRates[0]);
  std::fprintf(stderr, "slice rates (ops/s):");
  for (double R : SliceRates[0])
    std::fprintf(stderr, " %.0f", R);
  std::fprintf(stderr, "\n");

  std::printf("workload %s, seed %llu: %u clients, closed loop; %.1f s "
              "warm, %.2f s measured; %llu ops untraced",
              workloadName(A.W), (unsigned long long)A.Seed, NumClients,
              WarmSeconds, WindowS, (unsigned long long)Ops[0]);
  if (A.Trace)
    std::printf(", %llu traced", (unsigned long long)Ops[1]);
  std::printf("\nsamples: %zu calls (%zu reads, %zu writes, %zu scopes); "
              "%u set-ups\n",
              CallNs.size(), ReadNs.size(), WriteNs.size(), ScopeNs.size(),
              Setups);
  std::printf("oracle: %llu failed of %llu attempted; %llu lagging "
              "snapshot reads%s\n",
              (unsigned long long)Failed, (unsigned long long)Attempted,
              (unsigned long long)StaleReads,
              WalDir.empty() ? ""
                             : (RecoveredOk ? "; recovered relation equals "
                                              "the primary"
                                            : "; RECOVERY MISMATCH"));

  MetricList Out;
  if (!A.Trace) {
    Out.add("throughput_ops_s", Throughput, "ops/s");
    Out.add("call_p50_us", percentileUs(CallNs, 0.50), "us");
    Out.add("setup_s", median(SetupS), "s");
    Out.add("rss_bytes_per_tuple", RssPerTuple, "B/tuple");
  } else {
    uint64_t AllOps = Ops[0] + Ops[1];
    uint64_t Queries = 0, Rows = 0, Inserts = 0, Won = 0, Removes = 0,
             Hit = 0, Attempts = 0, Commits = 0, Conflict = 0, Epoch = 0,
             Gate = 0, SnapReads = 0, SnapMatches = 0, Chains = 0,
             DirServed = 0, FullScans = 0;
    for (const ClientState &S : Clients) {
      Queries += S.Queries;
      Rows += S.Rows;
      Inserts += S.Inserts;
      Won += S.InsertsWon;
      Removes += S.Removes;
      Hit += S.RemovesHit;
      Attempts += S.Attempts;
      Commits += S.Commits;
      Conflict += S.AbortConflict;
      Epoch += S.AbortEpochChange;
      Gate += S.AbortGateBusy;
      SnapReads += S.SnapReads;
      SnapMatches += S.SnapMatches;
      Chains += S.ChainsVisited;
      DirServed += S.DirectoryServed;
      FullScans += S.FullScans;
    }
    double MeasuredS = PhaseS[0] + PhaseS[1];
    // The call p99 repeats less well than a tenth across runs, so it is
    // reported here rather than as an end-to-end metric.
    Out.add("call_p99_us", percentileUs(CallNs, 0.99), "us");
    Out.add("read_p50_us", percentileUs(ReadNs, 0.50), "us");
    Out.add("read_p99_us", percentileUs(ReadNs, 0.99), "us");
    Out.add("write_p50_us", percentileUs(WriteNs, 0.50), "us");
    Out.add("write_p99_us", percentileUs(WriteNs, 0.99), "us");
    Out.add("txn_p50_us", percentileUs(ScopeNs, 0.50), "us");
    Out.add("txn_p99_us", percentileUs(ScopeNs, 0.99), "us");
    Out.add("failed_op_ratio", ratio(double(Failed), double(Attempted)),
            "ratio");
    const char *Handle[4] = {"succ", "pred", "insert", "remove"};
    for (unsigned H = 0; H < 4; ++H)
      Out.add(std::string("plan.first_exec_ms.") + Handle[H],
              median(FirstExec[H]), "ms");
    Out.add("plan.cache_misses", double(After.PlanMisses - Before.PlanMisses),
            "count");
    addSpanMetrics(Out, Clients);
    Out.add("runtime.rows_per_query", ratio(double(Rows), double(Queries)),
            "rows");
    Out.add("runtime.insert_won_ratio", ratio(double(Won), double(Inserts)),
            "ratio");
    Out.add("runtime.remove_hit_ratio", ratio(double(Hit), double(Removes)),
            "ratio");
    Out.add("runtime.restarts_per_op",
            ratio(double(After.Restarts - Before.Restarts), double(AllOps)),
            "ratio");
    Out.add("sync.epoch_advances",
            double(After.EpochCurrent - Before.EpochCurrent), "count");
    Out.add("sync.reclaimed",
            double(After.EpochReclaimed - Before.EpochReclaimed), "count");
    Out.add("sync.retire_backlog", double(After.EpochPending), "count");
    Out.add("txn.attempts_per_commit", ratio(double(Attempts), double(Commits)),
            "ratio");
    Out.add("txn.aborts.conflict", double(Conflict), "count");
    Out.add("txn.aborts.epoch_change", double(Epoch), "count");
    Out.add("txn.aborts.gate_busy", double(Gate), "count");
    Out.add("mvcc.chains_visited_per_match",
            ratio(double(Chains), double(SnapMatches)), "ratio");
    Out.add("mvcc.directory_served_ratio",
            ratio(double(DirServed), double(SnapReads)), "ratio");
    Out.add("mvcc.full_scans", double(FullScans), "count");
    Out.add("mvcc.lagging_own_reads", double(StaleReads), "count");
    Out.add("mvcc.installs_per_write",
            ratio(double(After.Installs - Before.Installs),
                  double(Inserts + Removes)),
            "ratio");
    Out.add("wal.bytes_per_user_byte",
            ratio(double(After.WalBytes - Before.WalBytes),
                  double((Won + Hit) * UserBytesPerMutation)),
            "ratio");
    Out.add("wal.records_per_commit",
            ratio(double(After.WalRecords - Before.WalRecords),
                  double(Commits)),
            "ratio");
    Out.add("wal.flush_rounds_per_s",
            ratio(double(After.WalRounds - Before.WalRounds), MeasuredS),
            "1/s");
    Out.add("wal.final_flush_ms", FinalFlushMs, "ms");
    Out.add("setup.prefill_s", median(PrefillS), "s");
    Out.add("setup.warmup_s", median(WarmupS), "s");
    double TracedThroughput = median(SliceRates[1]);
    Out.add("trace.overhead_pct",
            100.0 * ratio(Throughput - TracedThroughput, Throughput), "%");
    if (!A.TraceOut.empty())
      writeSpans(A.TraceOut, Clients);
  }
  for (const auto &[Name, VU] : Out.M)
    std::printf("  %-34s %14.4f %s\n", Name.c_str(), VU.first,
                VU.second.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  for (size_t K = 0; K < Out.M.size(); ++K)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                K ? ", " : "", Out.M[K].first.c_str(), Out.M[K].second.first,
                Out.M[K].second.second.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  I.reset();
  std::error_code Ec;
  std::filesystem::remove_all(A.Workdir, Ec);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  try {
    return runBenchmark(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "relbench: %s\n", E.what());
    return 1;
  }
}
