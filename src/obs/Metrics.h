//===- obs/Metrics.h - Metrics registry and latency histograms --*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified observability registry: named, labeled counters, gauges,
/// and log2-bucketed latency histograms, plus one event-trace ring per
/// subsystem domain (obs/EventRing.h), all drained by one lock-free-on-
/// the-hot-path snapshot() that the exporter (obs/Exporter.h) renders
/// as `crs-metrics/1` JSON or Prometheus text.
///
/// The overhead argument mirrors the rest of the runtime:
///
///  - Counters (obs/Counter.h) are cache-line-striped — an increment
///    is one relaxed fetch_add on a per-stripe private line, never a
///    shared-line RMW.
///  - Histograms record in one relaxed fetch_add per sample: the value
///    indexes a power-of-two bucket (floor(log2 nanos)) in a striped
///    bucket array. p50/p95/p99 come out of the bucket counts at
///    snapshot time; max is tracked exactly with a CAS-if-greater.
///  - Hot paths that cannot afford even a clock read per operation
///    (prepared-op latency) *sample*: maybeSampleStart() charges one
///    thread-local countdown per call and reads the clock only every
///    latencySamplePeriod()-th operation.
///  - Registration (counter()/histogram()/addCallback()) takes a mutex
///    and allocates; it happens once per metric, never per operation.
///    Returned references are stable for the registry's lifetime.
///
/// Subsystems either bump registry counters directly or register
/// *callbacks* exporting counters they already maintain (a relation's
/// striped op counts, the WAL's append totals), so attaching metrics
/// adds no second counting path. The global() registry is leaked, so
/// metric references never dangle; per-test registries can be stack
/// constructed when isolation matters.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_OBS_METRICS_H
#define CRS_OBS_METRICS_H

#include "obs/Counter.h"
#include "obs/EventRing.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace crs {
namespace obs {

/// Metric dimensions, e.g. {{"relation","edges"},{"shard","3"}}. Order
/// is preserved and significant for identity: register with a
/// consistent label order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// A last-writer-wins signed level (queue depths, watermarks). Not
/// striped: gauges are set from cold paths.
class Gauge {
public:
  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
  void add(int64_t D) { Value.fetch_add(D, std::memory_order_relaxed); }
  int64_t load() const { return Value.load(std::memory_order_relaxed); }

private:
  alignas(64) std::atomic<int64_t> Value{0};
};

/// A log2-bucketed latency histogram over nanoseconds. Bucket B counts
/// samples in [2^B, 2^(B+1)) — 64 buckets cover the full uint64 range,
/// so a ~100ns fast-path read and a ~10ms fsync land 17 buckets apart
/// with no configuration. Recording is striped (8 stripes of private
/// bucket lines) and relaxed; quantiles are derived at snapshot time
/// from the merged bucket counts (resolution: one power of two, i.e.
/// a reported p99 is an upper bound within 2x), and max is exact.
class LatencyHistogram {
public:
  static constexpr unsigned NumBuckets = 64;

  void record(uint64_t Nanos) {
    Stripe &S = Stripes[threadStripe()];
    S.Buckets[bucketOf(Nanos)].fetch_add(1, std::memory_order_relaxed);
    S.Sum.fetch_add(Nanos, std::memory_order_relaxed);
    uint64_t Seen = S.Max.load(std::memory_order_relaxed);
    while (Nanos > Seen &&
           !S.Max.compare_exchange_weak(Seen, Nanos,
                                        std::memory_order_relaxed))
      ;
  }

  /// Merged view of one histogram, self-contained for quantile math.
  struct Data {
    uint64_t Buckets[NumBuckets] = {};
    uint64_t Count = 0;
    uint64_t SumNanos = 0;
    uint64_t MaxNanos = 0;

    /// Upper-bound estimate of the \p P quantile (P in [0,1]),
    /// clamped to the exact max. Zero when empty.
    uint64_t quantileNanos(double P) const;
    double meanNanos() const {
      return Count ? static_cast<double>(SumNanos) /
                         static_cast<double>(Count)
                   : 0.0;
    }
  };
  Data snapshot() const;

private:
  static constexpr unsigned NumStripes = 8;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> Buckets[NumBuckets] = {};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Max{0};
  };
  static unsigned bucketOf(uint64_t Nanos) {
    return 63u - static_cast<unsigned>(__builtin_clzll(Nanos | 1));
  }
  static unsigned threadStripe() {
    static std::atomic<unsigned> Next{0};
    static thread_local const unsigned Mine =
        Next.fetch_add(1, std::memory_order_relaxed) % NumStripes;
    return Mine;
  }
  Stripe Stripes[NumStripes];
};

/// One registry capture: every metric's value, every ring's recent
/// events, at roughly one instant (counters are relaxed, so "roughly"
/// is the contract — see obs::Counter).
struct MetricsSnapshot {
  struct CounterSample {
    std::string Name;
    MetricLabels Labels;
    uint64_t Value;
  };
  struct GaugeSample {
    std::string Name;
    MetricLabels Labels;
    int64_t Value;
  };
  struct HistogramSample {
    std::string Name;
    MetricLabels Labels;
    LatencyHistogram::Data Data;
  };
  struct DomainEvents {
    EventDomain Domain;
    std::vector<TraceEvent> Events;
  };

  uint64_t CapturedMicros = 0; ///< wall-clock unix micros of capture
  std::vector<CounterSample> Counters;
  std::vector<GaugeSample> Gauges;
  std::vector<HistogramSample> Histograms;
  std::vector<DomainEvents> Events; ///< one entry per domain, in order
};

/// The registry of all metrics and rings. Thread-safe throughout;
/// only registration and snapshot take the mutex.
class MetricsRegistry {
public:
  /// How a snapshot-time callback's value is typed in exports.
  enum class CallbackKind { Counter, Gauge };
  using CallbackId = uint64_t;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// The process-wide registry. Leaked (like EpochDomain::global()), so
  /// references handed out stay valid through static destruction.
  static MetricsRegistry &global();

  /// Finds or creates the metric named \p Name with \p Labels. The
  /// returned reference is stable for the registry's lifetime; callers
  /// cache it and never re-look-up per operation.
  Counter &counter(const std::string &Name, MetricLabels Labels = {});
  Gauge &gauge(const std::string &Name, MetricLabels Labels = {});
  LatencyHistogram &histogram(const std::string &Name,
                              MetricLabels Labels = {});

  /// Registers a snapshot-time value source for a counter a subsystem
  /// already maintains (no second counting path on the hot side). \p Fn
  /// runs under the registry mutex during snapshot(); it must not call
  /// back into the registry. Remove before the underlying object dies —
  /// removal synchronizes with any in-flight snapshot via that mutex.
  CallbackId addCallback(std::string Name, MetricLabels Labels,
                         CallbackKind Kind, std::function<uint64_t()> Fn);
  void removeCallback(CallbackId Id);
  void removeCallbacks(const std::vector<CallbackId> &Ids);

  /// The event ring for \p D. Rings exist for the registry's lifetime.
  TraceRing &ring(EventDomain D) { return Rings[unsigned(D)]; }

  /// Captures everything (cold: takes the mutex, runs callbacks, sums
  /// counter stripes, decodes rings). Writers are never blocked.
  MetricsSnapshot snapshot() const;

  /// Master switch read by maybeSampleStart() (and honored by wired
  /// subsystems for per-op work beyond their pre-existing counters).
  /// Default on: attaching a registry is already the opt-in.
  void setEnabled(bool E) { Enabled.store(E, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Sample one in \p P prepared-op latencies (default 64). 1 records
  /// every operation — useful in tests, too hot for production reads.
  void setLatencySamplePeriod(uint32_t P) {
    SamplePeriod.store(P ? P : 1, std::memory_order_relaxed);
  }
  uint32_t latencySamplePeriod() const {
    return SamplePeriod.load(std::memory_order_relaxed);
  }

  /// Start-of-operation hook for sampled latency timing: returns a
  /// start timestamp in nanos for the one-in-period sampled calls, 0
  /// (skip) otherwise. Cost on the skip path is one relaxed load and a
  /// thread-local countdown — no clock read, no division.
  uint64_t maybeSampleStart() const {
    if (!Enabled.load(std::memory_order_relaxed))
      return 0;
    static thread_local uint32_t Left = 0;
    if (Left != 0) {
      --Left;
      return 0;
    }
    Left = SamplePeriod.load(std::memory_order_relaxed) - 1;
    return nowNanos();
  }

  /// Monotonic nanoseconds (steady clock), the histograms' time base.
  static uint64_t nowNanos();

private:
  template <typename T> struct Entry {
    std::string Name;
    MetricLabels Labels;
    T Metric;
  };
  struct Callback {
    CallbackId Id;
    std::string Name;
    MetricLabels Labels;
    CallbackKind Kind;
    std::function<uint64_t()> Fn;
  };

  static std::string keyOf(const std::string &Name,
                           const MetricLabels &Labels);
  template <typename T>
  T &findOrCreate(std::deque<Entry<T>> &List,
                  std::map<std::string, T *> &Index,
                  const std::string &Name, MetricLabels &&Labels);

  std::atomic<bool> Enabled{true};
  std::atomic<uint32_t> SamplePeriod{64};

  mutable std::mutex M;
  // deques: element addresses are stable across growth, which is what
  // lets the hot side hold bare references while registration continues.
  std::deque<Entry<Counter>> CounterList;
  std::deque<Entry<Gauge>> GaugeList;
  std::deque<Entry<LatencyHistogram>> HistogramList;
  std::map<std::string, Counter *> CounterIdx;
  std::map<std::string, Gauge *> GaugeIdx;
  std::map<std::string, LatencyHistogram *> HistogramIdx;
  std::vector<Callback> Callbacks;
  CallbackId NextCallbackId = 1;

  TraceRing Rings[NumEventDomains];
};

} // namespace obs
} // namespace crs

#endif // CRS_OBS_METRICS_H
