//===- tests/obs_test.cpp - Observability layer battery -----------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// The metrics/trace battery for src/obs: the striped counter and
/// log2-bucket latency histogram primitives (exact counts, quantile
/// bounds), the bounded event-trace ring (overwrite keeps the newest
/// Capacity events), the registry (dedup, callbacks, enable/sampling
/// knobs), the relation wiring (attachMetrics exports the counters the
/// relation already keeps; detach stops the export), the follower
/// wiring (applied/anomaly/gap/poll counters, same callback path), the
/// event-ring acceptance capture — a full migration (both flips), a checkpoint,
/// and a wait-die abort, each showing up in its domain's ring — the
/// adaptPlans retirement of cold secondary chain directories, and one
/// end-of-run snapshot exporting valid crs-metrics/1 JSON plus
/// Prometheus text covering all six event domains, round-tripped
/// through tools/metrics_summary.py --validate.
///
//===----------------------------------------------------------------------===//

#include "autotune/OnlineTuner.h"
#include "obs/Exporter.h"
#include "runtime/PreparedOp.h"
#include "sync/Epoch.h"
#include "txn/Transaction.h"
#include "wal/Checkpoint.h"
#include "wal/Follower.h"
#include "wal/Wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

using namespace crs;
using namespace crs::obs;

namespace {

Tuple key(const RelationSpec &Spec, int64_t S, int64_t D) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)}});
}

Tuple weight(const RelationSpec &Spec, int64_t W) {
  return Tuple::of({{Spec.col("weight"), Value::ofInt(W)}});
}

RepresentationConfig stickCoarse() {
  return makeGraphRepresentation({GraphShape::Stick,
                                  PlacementSchemeKind::Coarse, 1,
                                  ContainerKind::HashMap,
                                  ContainerKind::TreeMap});
}

RepresentationConfig splitStriped(uint32_t Stripes = 64) {
  return makeGraphRepresentation({GraphShape::Split,
                                  PlacementSchemeKind::Striped, Stripes,
                                  ContainerKind::ConcurrentHashMap,
                                  ContainerKind::TreeMap});
}

/// Drives two rival threads through the classic cross-order hot-pair
/// shape (even ascending, odd descending over neighboring keys — the
/// same contention txn_test's fairness battery uses) until bounded
/// wait-die kills one scope with Conflict. Requires a striped
/// placement (a coarse root collapses both acquisitions onto one
/// already-held lock) and keys 0..8 present. Returns whether a kill
/// was observed within the bounded attempts.
bool forceWaitDieConflict(ConcurrentRelation &R) {
  const RelationSpec &Spec = R.spec();
  PreparedQuery Exact =
      R.prepareQuery(Spec.cols({"src", "dst"}), Spec.cols({"weight"}));
  std::atomic<bool> Seen{false};
  std::atomic<int> Ready{0};
  auto Worker = [&](bool Descending) {
    // Start together (a worker that finishes before its rival launches
    // never contends), and pick pairs randomly (like txn_test's
    // fairness battery): lockstep sequences can phase-lock and miss.
    Ready.fetch_add(1, std::memory_order_acq_rel);
    while (Ready.load(std::memory_order_acquire) < 2)
      std::this_thread::yield();
    uint64_t Rng = Descending ? 0x9E3779B97F4A7C15ull : 0xD1B54A32D192ED03ull;
    for (int I = 0; I < 100000 && !Seen.load(std::memory_order_acquire);
         ++I) {
      Rng ^= Rng << 13;
      Rng ^= Rng >> 7;
      Rng ^= Rng << 17;
      int64_t A = static_cast<int64_t>(Rng % 7), B = A + 1;
      if (Descending)
        std::swap(A, B);
      Transaction T(R);
      bool Ok =
          T.queryForUpdate(Exact, {Value::ofInt(A), Value::ofInt(0)}) &&
          T.queryForUpdate(Exact, {Value::ofInt(B), Value::ofInt(0)});
      if (!Ok && T.abortCause() == TxnAbortCause::Conflict)
        Seen.store(true, std::memory_order_release);
      if (T.state() == TxnState::Open)
        T.commit();
    }
  };
  std::thread W1(Worker, false), W2(Worker, true);
  W1.join();
  W2.join();
  return Seen.load(std::memory_order_acquire);
}

/// A self-cleaning scratch directory for WAL/checkpoint/export files.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/crs_obs_XXXXXX";
    char *P = ::mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "/tmp/crs_obs_fallback";
  }
  ~TempDir() {
    if (DIR *D = ::opendir(Path.c_str())) {
      while (struct dirent *E = ::readdir(D)) {
        std::string N = E->d_name;
        if (N != "." && N != "..")
          ::unlink((Path + "/" + N).c_str());
      }
      ::closedir(D);
    }
    ::rmdir(Path.c_str());
  }
};

WriteAheadLog::Options walOpts(const std::string &Dir) {
  WriteAheadLog::Options O;
  O.Dir = Dir;
  O.Partitions = 1;
  O.Fsync = FsyncMode::None;
  O.ParkMicros = 100;
  return O;
}

/// Detaches the process-global epoch domain from a test registry on
/// every exit path (the domain outlives any test-scoped registry).
struct EpochMetricsGuard {
  explicit EpochMetricsGuard(MetricsRegistry &R) {
    EpochDomain::global().attachMetrics(R);
  }
  ~EpochMetricsGuard() { EpochDomain::global().detachMetrics(); }
};

const MetricsSnapshot::CounterSample *
findCounter(const MetricsSnapshot &S, const std::string &Name) {
  for (const auto &C : S.Counters)
    if (C.Name == Name)
      return &C;
  return nullptr;
}

const MetricsSnapshot::GaugeSample *
findGauge(const MetricsSnapshot &S, const std::string &Name) {
  for (const auto &G : S.Gauges)
    if (G.Name == Name)
      return &G;
  return nullptr;
}

std::vector<TraceEvent> eventsOf(const MetricsSnapshot &S, EventDomain D) {
  for (const auto &DE : S.Events)
    if (DE.Domain == D)
      return DE.Events;
  return {};
}

bool hasKind(const std::vector<TraceEvent> &Evs, EventKind K) {
  for (const TraceEvent &E : Evs)
    if (E.Kind == K)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Primitives: histogram and ring
//===----------------------------------------------------------------------===//

TEST(ObsHistogram, Log2BucketsQuantilesAndMean) {
  LatencyHistogram H;
  for (int I = 0; I < 50; ++I)
    H.record(100); // bucket 6, upper bound 127
  for (int I = 0; I < 30; ++I)
    H.record(1000); // bucket 9, upper bound 1023
  for (int I = 0; I < 20; ++I)
    H.record(100000); // bucket 16, upper bound 131071

  LatencyHistogram::Data D = H.snapshot();
  EXPECT_EQ(D.Count, 100u);
  EXPECT_EQ(D.SumNanos, 50u * 100 + 30u * 1000 + 20u * 100000);
  EXPECT_EQ(D.MaxNanos, 100000u);
  // Quantiles report the containing bucket's upper bound, tightened by
  // the observed max — the documented log2 precision contract.
  EXPECT_EQ(D.quantileNanos(0.50), 127u);
  EXPECT_EQ(D.quantileNanos(0.95), 100000u); // bucket 16, max-tightened
  EXPECT_EQ(D.quantileNanos(0.99), 100000u);
  EXPECT_DOUBLE_EQ(D.meanNanos(), 20350.0);
  // Bucket mass must equal the count (the exporter-schema invariant
  // tools/metrics_summary.py enforces).
  uint64_t Mass = 0;
  for (unsigned B = 0; B < LatencyHistogram::NumBuckets; ++B)
    Mass += D.Buckets[B];
  EXPECT_EQ(Mass, D.Count);

  // Concurrent recording across stripes still sums exactly.
  LatencyHistogram H2;
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < 1000; ++I)
        H2.record(64);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(H2.snapshot().Count, 4000u);
}

TEST(ObsRing, BoundedOverwriteKeepsNewest) {
  TraceRing R;
  constexpr uint64_t Emitted = TraceRing::Capacity + 88;
  for (uint64_t I = 0; I < Emitted; ++I)
    R.emit(EventKind::EpochAdvance, /*A=*/I);
  EXPECT_EQ(R.emitted(), Emitted);

  std::vector<TraceEvent> Evs = R.snapshot();
  ASSERT_EQ(Evs.size(), TraceRing::Capacity);
  // Oldest first, contiguous, and exactly the newest Capacity events:
  // the first 88 were overwritten.
  for (size_t I = 0; I < Evs.size(); ++I) {
    EXPECT_EQ(Evs[I].Seq, Emitted - TraceRing::Capacity + I);
    EXPECT_EQ(Evs[I].A, Evs[I].Seq); // payload rode along
    EXPECT_EQ(Evs[I].Kind, EventKind::EpochAdvance);
  }

  // Stable decode names (the exporter and the Python tool key on them).
  EXPECT_STREQ(domainName(EventDomain::Migration), "migration");
  EXPECT_STREQ(domainName(EventDomain::Wal), "wal");
  EXPECT_STREQ(kindName(EventKind::MigrationSwap), "MigrationSwap");
  EXPECT_STREQ(kindName(EventKind::TxnAbort), "TxnAbort");
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(ObsRegistry, CountersGaugesCallbacksAndRemoval) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("test.ops", {{"kind", "insert"}});
  // Same name+labels resolves to the same deque-stable counter.
  EXPECT_EQ(&Reg.counter("test.ops", {{"kind", "insert"}}), &C);
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < 1000; ++I)
        C.inc();
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(C.load(), 4000u);

  Gauge &G = Reg.gauge("test.depth");
  G.set(7);
  G.add(-3);
  EXPECT_EQ(G.load(), 4);

  MetricsRegistry::CallbackId Id =
      Reg.addCallback("test.cb", {{"src", "unit"}},
                      MetricsRegistry::CallbackKind::Counter,
                      [] { return 99u; });

  MetricsSnapshot S = Reg.snapshot();
  const auto *Ops = findCounter(S, "test.ops");
  ASSERT_NE(Ops, nullptr);
  EXPECT_EQ(Ops->Value, 4000u);
  ASSERT_EQ(Ops->Labels.size(), 1u);
  EXPECT_EQ(Ops->Labels[0].first, "kind");
  EXPECT_EQ(Ops->Labels[0].second, "insert");
  const auto *Depth = findGauge(S, "test.depth");
  ASSERT_NE(Depth, nullptr);
  EXPECT_EQ(Depth->Value, 4);
  const auto *Cb = findCounter(S, "test.cb");
  ASSERT_NE(Cb, nullptr);
  EXPECT_EQ(Cb->Value, 99u);

  // Removal unpublishes the callback; direct metrics stay.
  Reg.removeCallback(Id);
  MetricsSnapshot S2 = Reg.snapshot();
  EXPECT_EQ(findCounter(S2, "test.cb"), nullptr);
  EXPECT_NE(findCounter(S2, "test.ops"), nullptr);

  // The sampling knobs: disabled means the hot-path probe is one load.
  Reg.setEnabled(false);
  EXPECT_EQ(Reg.maybeSampleStart(), 0u);
  Reg.setEnabled(true);
  Reg.setLatencySamplePeriod(1);
  EXPECT_NE(Reg.maybeSampleStart(), 0u);
}

//===----------------------------------------------------------------------===//
// Relation wiring
//===----------------------------------------------------------------------===//

/// The `sync.wait` histogram's gate_enter series, or null.
const MetricsSnapshot::HistogramSample *gateWaits(const MetricsSnapshot &S) {
  for (const auto &H : S.Histograms)
    if (H.Name == "sync.wait" && H.Labels.size() == 1 &&
        H.Labels[0] == std::make_pair(std::string("site"),
                                      std::string("gate_enter")))
      return &H;
  return nullptr;
}

TEST(ObsSync, ForcedGateWaitExportsSyncWaitWithItsSite) {
  // A wait past the spin phase lands in the global registry's
  // sync.wait histogram under its site label, with its duration.
  const auto *Before = gateWaits(MetricsRegistry::global().snapshot());
  uint64_t CountBefore = Before ? Before->Data.Count : 0;
  OpGate G;
  auto Closed = std::make_unique<OpGate::Barrier>(G);
  std::atomic<bool> Entered{false};
  std::thread Waiter([&] {
    G.enter();
    Entered = true;
    G.exit();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Entered.load());
  Closed.reset();
  Waiter.join();

  MetricsSnapshot S = MetricsRegistry::global().snapshot();
  const auto *H = gateWaits(S);
  ASSERT_NE(H, nullptr) << "sync.wait{site=gate_enter} not exported";
  EXPECT_EQ(H->Data.Count, CountBefore + 1);
  EXPECT_GE(H->Data.MaxNanos, 10'000'000u) << "the wait lasted >= 20 ms";
  std::string Json = toJson(S);
  EXPECT_NE(Json.find("\"sync.wait\""), std::string::npos);
  EXPECT_NE(Json.find("\"gate_enter\""), std::string::npos);
}

TEST(ObsRelation, AttachExportsLiveCountersDetachStops) {
  MetricsRegistry Reg;
  Reg.setLatencySamplePeriod(1); // record every op's latency
  ConcurrentRelation R(splitStriped());
  const RelationSpec &Spec = R.spec();
  R.attachMetrics(Reg, "unit");

  PreparedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  for (int64_t I = 0; I < 16; ++I)
    ASSERT_TRUE(Ins.bind(0, Value::ofInt(I))
                    .bind(1, Value::ofInt(0))
                    .bind(2, Value::ofInt(I))
                    .execute());
  PreparedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  for (int64_t I = 0; I < 8; ++I)
    Succ.bind(0, Value::ofInt(I)).execute();
  EXPECT_EQ(R.remove(key(Spec, 0, 0)), 1u);

  MetricsSnapshot S = Reg.snapshot();
  // No second counting path: the exported values ARE the relation's
  // own counters, read through snapshot-time callbacks.
  const auto *Q = findCounter(S, "relation.queries");
  const auto *I = findCounter(S, "relation.inserts");
  const auto *Rm = findCounter(S, "relation.removes");
  ASSERT_NE(Q, nullptr);
  ASSERT_NE(I, nullptr);
  ASSERT_NE(Rm, nullptr);
  OperationCounts Counts = R.operationCounts();
  EXPECT_EQ(Q->Value, Counts.Queries);
  EXPECT_EQ(I->Value, Counts.Inserts);
  EXPECT_EQ(Rm->Value, Counts.Removes);
  ASSERT_GE(Q->Labels.size(), 1u);
  EXPECT_EQ(Q->Labels[0].first, "relation");
  EXPECT_EQ(Q->Labels[0].second, "unit");
  const auto *Size = findGauge(S, "relation.size");
  ASSERT_NE(Size, nullptr);
  EXPECT_EQ(Size->Value, static_cast<int64_t>(R.size()));
  // Sampled latency histograms, one per executed signature.
  uint64_t LatCount = 0;
  for (const auto &H : S.Histograms)
    if (H.Name == "relation.op_latency")
      LatCount += H.Data.Count;
  EXPECT_GT(LatCount, 0u);

  // Detach unpublishes everything relation-owned from the registry.
  R.detachMetrics();
  MetricsSnapshot S2 = Reg.snapshot();
  EXPECT_EQ(findCounter(S2, "relation.queries"), nullptr);
  EXPECT_EQ(findGauge(S2, "relation.size"), nullptr);
  // ...and the relation keeps serving, now paying only the null check.
  ASSERT_TRUE(Ins.bind(0, Value::ofInt(100))
                  .bind(1, Value::ofInt(0))
                  .bind(2, Value::ofInt(1))
                  .execute());
}

/// The relation's lock traffic is exported as two exact counters: a
/// locked query moves relation.lock_acquisitions by the locks its plan
/// takes and relation.lock_contentions when its first try waits behind
/// another holder; the epoch fast path moves neither.
TEST(ObsRelation, LockCountersExportedAndMoveUnderALockedQuery) {
  MetricsRegistry Reg;
  // Concurrent containers on every edge, so the query is epoch-eligible.
  ConcurrentRelation R(makeGraphRepresentation(
      {GraphShape::Split, PlacementSchemeKind::Striped, 64,
       ContainerKind::ConcurrentHashMap,
       ContainerKind::ConcurrentSkipListMap}));
  const RelationSpec &Spec = R.spec();
  R.attachMetrics(Reg, "locks");
  PreparedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  for (int64_t D = 0; D < 3; ++D)
    ASSERT_TRUE(Ins.bind(0, Value::ofInt(7))
                    .bind(1, Value::ofInt(D))
                    .bind(2, Value::ofInt(D))
                    .execute());
  PreparedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  auto Read = [&](const char *Name) {
    MetricsSnapshot S = Reg.snapshot();
    const auto *C = findCounter(S, Name);
    EXPECT_NE(C, nullptr) << Name;
    return C ? C->Value : 0;
  };
  uint64_t Acq0 = Read("relation.lock_acquisitions");
  EXPECT_GT(Acq0, 0u); // the inserts locked
  EXPECT_EQ(Acq0, R.operationCounts().LockAcquisitions);

  EXPECT_EQ(Succ.bind(0, Value::ofInt(7)).count(), 3u); // epoch fast path
  EXPECT_EQ(Read("relation.lock_acquisitions"), Acq0);

  // Locked: the root's stripe for src, u's stripe, one per w instance.
  R.setFastReads(false);
  EXPECT_EQ(Succ.bind(0, Value::ofInt(7)).count(), 3u);
  EXPECT_EQ(Read("relation.lock_acquisitions"), Acq0 + 5);
  EXPECT_EQ(Read("relation.lock_contentions"), 0u);

  // Contended: a transaction scope holds src 7's locks exclusively while
  // a locked query on another thread arrives, so the query's blocking
  // acquisition of the root stripe fails its first try. Whether the
  // query got there before the commit is up to the scheduler, so rounds
  // repeat until one did.
  unsigned Rounds = 0;
  while (Read("relation.lock_contentions") == 0 && Rounds < 100) {
    ++Rounds;
    Transaction T(R);
    EXPECT_TRUE(T.queryForUpdate(Succ, {Value::ofInt(7)}));
    std::thread Reader([&] { Succ.bind(0, Value::ofInt(7)).count(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(T.commit());
    Reader.join();
  }
  EXPECT_EQ(Read("relation.lock_contentions"), 1u);
  R.detachMetrics();
}

/// A tuner-style snapshot runs registry callbacks under the registry
/// mutex while handles' first sampled executions take that mutex from
/// inside the operation gate; no callback may wait for the gate, so
/// both sides keep going. The ledger walk (which does close the gate)
/// runs beside them too, and the gauges report its last figures.
TEST(ObsRelation, SnapshotsRunBesideFirstSampledOperations) {
  MetricsRegistry Reg;
  Reg.setLatencySamplePeriod(1); // every execution is sampled
  ConcurrentRelation R(splitStriped());
  const RelationSpec &Spec = R.spec();
  R.attachMetrics(Reg, "live");

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Snapshots{0};
  std::thread Watchdog([&] {
    for (int Tenths = 0; Tenths < 600 && !Done.load(); ++Tenths)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (!Done.load()) {
      std::fprintf(stderr, "snapshot and operations deadlocked\n");
      std::abort(); // a hung test would stall the whole suite
    }
  });
  std::thread Snapper([&] {
    while (!Done.load()) {
      Reg.snapshot();
      Snapshots.fetch_add(1);
    }
  });
  std::thread Ledger([&] {
    while (!Done.load())
      R.memoryLedger();
  });
  for (int64_t I = 0; I < 400; ++I) {
    // A fresh handle resolves its latency histogram on first use.
    PreparedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
    ASSERT_TRUE(Ins.bind(0, Value::ofInt(I))
                    .bind(1, Value::ofInt(I % 7))
                    .bind(2, Value::ofInt(I))
                    .execute());
  }
  while (Snapshots.load() < 8)
    std::this_thread::yield();
  Done.store(true);
  Snapper.join();
  Ledger.join();
  Watchdog.join();

  obs::MemoryLedger L = R.memoryLedger();
  MetricsSnapshot S = Reg.snapshot();
  uint64_t Sum = 0;
  for (const auto &G : S.Gauges)
    if (G.Name == "relation.memory_bytes")
      Sum += uint64_t(G.Value);
  EXPECT_EQ(Sum, L.total());
  R.detachMetrics();
}

TEST(ObsRelation, VersionStoreGrowthExported) {
  MetricsRegistry Reg;
  ConcurrentRelation R(splitStriped());
  const RelationSpec &Spec = R.spec();
  R.attachMetrics(Reg, "unit");
  MetricsSnapshot Before = Reg.snapshot();
  const auto *Fresh = findGauge(Before, "relation.mvcc.buckets");
  ASSERT_NE(Fresh, nullptr);
  EXPECT_EQ(Fresh->Value, static_cast<int64_t>(R.mvccStore().buckets()));

  PreparedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  for (int64_t I = 0; I < 1024; ++I)
    ASSERT_TRUE(Ins.bind(0, Value::ofInt(I))
                    .bind(1, Value::ofInt(0))
                    .bind(2, Value::ofInt(I))
                    .execute());

  // The primary directory doubled its way to ~2 chains per bucket; the
  // gauge, the counter and the relation ring all say so.
  MetricsSnapshot S = Reg.snapshot();
  const auto *Buckets = findGauge(S, "relation.mvcc.buckets");
  const auto *Resizes = findCounter(S, "relation.mvcc.resizes");
  ASSERT_NE(Buckets, nullptr);
  ASSERT_NE(Resizes, nullptr);
  EXPECT_GT(Buckets->Value, Fresh->Value);
  EXPECT_GE(Resizes->Value, 1u);
  EXPECT_EQ(Resizes->Value, R.mvccStore().resizes());
  uint64_t Events = 0;
  for (const TraceEvent &E : Reg.ring(EventDomain::Relation).snapshot())
    if (E.Kind == EventKind::VersionStoreResize) {
      ++Events;
      EXPECT_EQ(E.A, 0u); // the primary directory
      EXPECT_GT(E.B, 0u);
    }
  EXPECT_EQ(Events, Resizes->Value);
  R.detachMetrics();
}

TEST(ObsFollower, AttachExportsFollowerCounters) {
  MetricsRegistry Reg;
  TempDir Dir;
  std::string Err;
  auto Log = WriteAheadLog::open(walOpts(Dir.Path), &Err);
  ASSERT_TRUE(Log) << Err;
  ConcurrentRelation R(stickCoarse());
  const RelationSpec &Spec = R.spec();
  R.attachWal(*Log);
  FollowerRelation F(stickCoarse(), *Log);
  F.attachMetrics(Reg, {{"replica", "unit"}});
  for (int64_t I = 0; I < 12; ++I)
    ASSERT_TRUE(R.insert(key(Spec, I, 0), weight(Spec, I)));
  R.detachWal();
  Log->flush();
  ASSERT_TRUE(F.waitCaughtUp());

  // The exported values are the follower's own counters, read through
  // snapshot-time callbacks.
  MetricsSnapshot S = Reg.snapshot();
  const auto *Applied = findCounter(S, "follower.applied_records");
  const auto *Anomalies = findCounter(S, "follower.anomalies");
  const auto *Gaps = findCounter(S, "follower.gaps");
  const auto *Rounds = findCounter(S, "follower.poll_rounds");
  ASSERT_NE(Applied, nullptr);
  ASSERT_NE(Anomalies, nullptr);
  ASSERT_NE(Gaps, nullptr);
  ASSERT_NE(Rounds, nullptr);
  EXPECT_EQ(Applied->Value, 12u);
  EXPECT_EQ(Anomalies->Value, 0u);
  EXPECT_EQ(Gaps->Value, 0u);
  EXPECT_GT(Rounds->Value, 0u);
  ASSERT_EQ(Applied->Labels.size(), 1u);
  EXPECT_EQ(Applied->Labels[0].second, "unit");

  F.detachMetrics();
  EXPECT_EQ(findCounter(Reg.snapshot(), "follower.applied_records"),
            nullptr);
}

//===----------------------------------------------------------------------===//
// Event capture: migration, checkpoint, wait-die abort (acceptance)
//===----------------------------------------------------------------------===//

TEST(ObsEvents, MigrationCheckpointAndWaitDieAbortCaptured) {
  MetricsRegistry Reg;
  TempDir Dir;
  std::string Err;
  auto Log = WriteAheadLog::open(walOpts(Dir.Path), &Err);
  ASSERT_TRUE(Log) << Err;

  ConcurrentRelation R(splitStriped(4));
  const RelationSpec &Spec = R.spec();
  R.attachMetrics(Reg, "events");
  R.attachWal(*Log);
  for (int64_t I = 0; I < 24; ++I)
    ASSERT_TRUE(R.insert(key(Spec, I, 0), weight(Spec, I)));

  // A wait-die kill under cross-order contention (the rival's second
  // acquisition is out of lock order, fails its bounded try against
  // the senior holder, and the younger scope dies with Conflict).
  ASSERT_TRUE(forceWaitDieConflict(R));

  // A checkpoint of shard 0.
  uint64_t Watermark = 0;
  ASSERT_TRUE(writeCheckpoint(R, Dir.Path, /*Shard=*/0, &Watermark, &Err))
      << Err;

  // A full migration: dual-write flip, swap flip, retirement.
  MigrationResult Mig = R.migrateTo(splitStriped());
  ASSERT_TRUE(Mig.Ok) << Mig.Error;

  MetricsSnapshot S = Reg.snapshot();

  // Txn domain: the wait-die abort, with its cause and op count.
  std::vector<TraceEvent> Txn = eventsOf(S, EventDomain::Txn);
  ASSERT_TRUE(hasKind(Txn, EventKind::TxnAbort));
  bool SawConflict = false;
  for (const TraceEvent &E : Txn)
    if (E.Kind == EventKind::TxnAbort &&
        E.A == uint64_t(TxnAbortCause::Conflict)) {
      SawConflict = true;
      EXPECT_GT(E.B, 0u); // the dying scope's birth stamp
    }
  EXPECT_TRUE(SawConflict);
  const auto *Aborts = findCounter(S, "txn.aborts");
  ASSERT_NE(Aborts, nullptr); // at least the conflict cause is nonzero

  // WAL domain: checkpoint begin/end with watermark and tuple count.
  std::vector<TraceEvent> Wal = eventsOf(S, EventDomain::Wal);
  ASSERT_TRUE(hasKind(Wal, EventKind::CheckpointBegin));
  bool SawEnd = false;
  for (const TraceEvent &E : Wal)
    if (E.Kind == EventKind::CheckpointEnd) {
      SawEnd = true;
      EXPECT_EQ(E.A, 0u); // shard
      EXPECT_EQ(E.B, Watermark);
      EXPECT_EQ(E.C, 24u); // tuples written
    }
  EXPECT_TRUE(SawEnd);

  // Migration domain: both flips plus the retirement, in order.
  std::vector<TraceEvent> MigEvs = eventsOf(S, EventDomain::Migration);
  ASSERT_EQ(MigEvs.size(), 3u);
  EXPECT_EQ(MigEvs[0].Kind, EventKind::MigrationDualWrite);
  EXPECT_EQ(MigEvs[0].B, 24u); // relation size at the flip
  EXPECT_EQ(MigEvs[1].Kind, EventKind::MigrationSwap);
  EXPECT_GT(MigEvs[1].A, MigEvs[0].A); // plan epoch advanced between flips
  EXPECT_EQ(MigEvs[2].Kind, EventKind::MigrationRetired);
  EXPECT_EQ(MigEvs[2].A, Mig.Backfilled);

  R.detachWal();
}

//===----------------------------------------------------------------------===//
// adaptPlans retires cold secondary directories
//===----------------------------------------------------------------------===//

TEST(ObsRetire, AdaptPlansRetiresColdDirectories) {
  MetricsRegistry Reg;
  ConcurrentRelation R(splitStriped());
  const RelationSpec &Spec = R.spec();
  R.attachMetrics(Reg, "retire");
  for (int64_t S = 0; S < 16; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, S % 4), weight(Spec, S)));

  PreparedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  PreparedQuery ByDst =
      R.prepareQuery(Spec.cols({"dst"}), Spec.cols({"src", "weight"}));
  // One bare execution each: prepared handles compile lazily, so this
  // is what puts the two query signatures into the plan cache.
  Succ.bind(0, Value::ofInt(1)).execute();
  ByDst.bind(0, Value::ofInt(1)).execute();

  // Two non-key snapshot-read shapes leave two secondary directories
  // behind (lazy creation on the first read's full-scan fallback).
  {
    Transaction T(R);
    ASSERT_TRUE(T.query(Succ, {Value::ofInt(1)}));
    ASSERT_TRUE(T.query(ByDst, {Value::ofInt(1)}));
    ASSERT_TRUE(T.commit());
  }
  EXPECT_EQ(R.mvccStore().directoryCount(), 2u);
  EXPECT_TRUE(
      hasKind(Reg.ring(EventDomain::Relation).snapshot(),
              EventKind::DirectoryBackfill));

  // First replan: both query signatures are live in the plan cache, so
  // both directories survive.
  R.adaptPlans();
  EXPECT_EQ(R.mvccStore().directoryCount(), 2u);
  EXPECT_EQ(R.mvccStore().directoriesRetired(), 0u);

  // Only the {src} shape comes back after the cache clear (the handle
  // rebinds and recompiles on its next execution); the {dst} signature
  // has left the cache, so the next replan retires its directory —
  // and only its.
  Succ.bind(0, Value::ofInt(1)).execute();
  R.adaptPlans();
  EXPECT_EQ(R.mvccStore().directoryCount(), 1u);
  EXPECT_EQ(R.mvccStore().directoriesRetired(), 1u);
  MetricsSnapshot AfterRetire = Reg.snapshot();
  const auto *Retired =
      findCounter(AfterRetire, "relation.mvcc.directories_retired");
  ASSERT_NE(Retired, nullptr);
  EXPECT_EQ(Retired->Value, 1u);
  EXPECT_TRUE(hasKind(Reg.ring(EventDomain::Relation).snapshot(),
                      EventKind::DirectoryRetire));

  // The surviving shape still reads through its directory; the retired
  // one transparently falls back to the full scan (and re-creates).
  {
    Transaction T(R);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(Succ, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, 1u);
    EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);
    ASSERT_TRUE(T.query(ByDst, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, 4u);
    EXPECT_TRUE(T.lastSnapshotReadStats().FullScan);
    ASSERT_TRUE(T.commit());
  }
  EXPECT_EQ(R.mvccStore().directoryCount(), 2u); // re-created on demand
}

//===----------------------------------------------------------------------===//
// Export: one snapshot, all six domains, JSON + Prometheus + round-trip
//===----------------------------------------------------------------------===//

TEST(ObsExport, OneSnapshotCoversAllSixDomains) {
  MetricsRegistry Reg;
  Reg.setLatencySamplePeriod(1);
  EpochMetricsGuard EpochGuard(Reg);
  TempDir Dir;
  std::string Err;
  auto Log = WriteAheadLog::open(walOpts(Dir.Path), &Err);
  ASSERT_TRUE(Log) << Err;

  ConcurrentRelation R(splitStriped(4));
  const RelationSpec &Spec = R.spec();
  R.attachMetrics(Reg, "all");
  R.attachWal(*Log);
  Log->attachMetrics(Reg);

  // Relation traffic (counters, latency histograms, plan-cache sigs).
  PreparedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  PreparedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  for (int64_t I = 0; I < 32; ++I)
    ASSERT_TRUE(Ins.bind(0, Value::ofInt(I))
                    .bind(1, Value::ofInt(0))
                    .bind(2, Value::ofInt(I))
                    .execute());
  for (int64_t I = 0; I < 8; ++I)
    Succ.bind(0, Value::ofInt(I)).execute();

  // Relation ring: a non-key snapshot read backfills a directory.
  {
    Transaction T(R);
    ASSERT_TRUE(T.query(Succ, {Value::ofInt(1)}));
    ASSERT_TRUE(T.commit());
  }
  // Txn ring: one wait-die conflict kill under cross-order contention.
  ASSERT_TRUE(forceWaitDieConflict(R));
  // Wal ring: a checkpoint (plus the flush rounds the appends caused).
  uint64_t Watermark = 0;
  ASSERT_TRUE(writeCheckpoint(R, Dir.Path, 0, &Watermark, &Err)) << Err;
  // Tuner ring: one scored tick against a structurally different
  // candidate emits a TunerDecision whatever the verdict.
  OnlineTunerConfig Cfg;
  Cfg.Candidates = {{GraphShape::Split, PlacementSchemeKind::Striped, 64,
                     ContainerKind::ConcurrentHashMap,
                     ContainerKind::TreeMap}};
  Cfg.Threads = 2;
  Cfg.Metrics = &Reg;
  Cfg.MetricsLabel = "all";
  OnlineTuner Tuner(R, Cfg);
  TuneTick Tick = Tuner.tick();
  EXPECT_TRUE(Tick.Scored);
  // Migration ring: a full migrateTo.
  MigrationResult Mig = R.migrateTo(splitStriped());
  ASSERT_TRUE(Mig.Ok) << Mig.Error;
  // Epoch ring: force two advances (migration retirement already
  // queued work; synchronize makes the advance deterministic).
  EpochDomain::global().synchronize();

  MetricsSnapshot S = Reg.snapshot();

  // Every domain has at least one event in the one capture.
  EXPECT_TRUE(hasKind(eventsOf(S, EventDomain::Relation),
                      EventKind::DirectoryBackfill));
  EXPECT_TRUE(hasKind(eventsOf(S, EventDomain::Txn), EventKind::TxnAbort));
  EXPECT_FALSE(eventsOf(S, EventDomain::Wal).empty());
  EXPECT_TRUE(
      hasKind(eventsOf(S, EventDomain::Epoch), EventKind::EpochAdvance));
  EXPECT_TRUE(hasKind(eventsOf(S, EventDomain::Migration),
                      EventKind::MigrationSwap));
  EXPECT_TRUE(hasKind(eventsOf(S, EventDomain::Tuner),
                      EventKind::TunerDecision));

  // Counters/gauges from every subsystem in the same capture.
  EXPECT_NE(findCounter(S, "relation.queries"), nullptr);
  EXPECT_NE(findCounter(S, "txn.aborts"), nullptr);
  EXPECT_NE(findCounter(S, "wal.records_appended"), nullptr);
  EXPECT_NE(findGauge(S, "epoch.current"), nullptr);
  EXPECT_NE(findCounter(S, "epoch.reclaimed"), nullptr);

  // Both export formats from the one snapshot.
  std::string Json = toJson(S);
  EXPECT_NE(Json.find("\"schema\": \"crs-metrics/1\""), std::string::npos);
  for (const char *Dom :
       {"relation", "txn", "wal", "epoch", "migration", "tuner"})
    EXPECT_NE(Json.find(std::string("\"domain\": \"") + Dom + "\""),
              std::string::npos)
        << Dom;
  std::string Prom = toPrometheus(S);
  EXPECT_NE(Prom.find("# TYPE crs_relation_queries counter"),
            std::string::npos);
  EXPECT_NE(Prom.find("crs_txn_aborts"), std::string::npos);
  EXPECT_NE(Prom.find("crs_wal_records_appended"), std::string::npos);
  EXPECT_NE(Prom.find("crs_epoch_current"), std::string::npos);

  // Round-trip: the dump validates against the schema via the in-repo
  // Python tool (the same check the CI stress lane runs on its
  // artifact). Skipped when python3 is not on PATH.
  const std::string Dump = Dir.Path + "/metrics.json";
  ASSERT_TRUE(writeJsonFile(S, Dump, &Err)) << Err;
  if (std::system("python3 --version >/dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 not available; schema round-trip skipped";
  const std::string Tool =
      std::string(CRS_SOURCE_DIR) + "/tools/metrics_summary.py";
  EXPECT_EQ(std::system(("python3 \"" + Tool + "\" --validate \"" + Dump +
                         "\" >/dev/null 2>&1")
                            .c_str()),
            0);
  // And the validator genuinely rejects: a wrong schema string fails.
  const std::string Bad = Dir.Path + "/bad.json";
  {
    std::ofstream Out(Bad);
    Out << "{\"schema\": \"nope\", \"captured_unix_micros\": 1, "
           "\"counters\": [], \"gauges\": [], \"histograms\": [], "
           "\"events\": []}";
  }
  EXPECT_NE(std::system(("python3 \"" + Tool + "\" --validate \"" + Bad +
                         "\" >/dev/null 2>&1")
                            .c_str()),
            0);

  R.detachWal();
}
