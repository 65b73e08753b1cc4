//===- autotune/OnlineTuner.h - Statistics-driven online autotuning -*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's autotuner (§6) measures candidate representations
/// offline and rebuilds the structure with the winner. The online
/// tuner closes the loop on a *live* relation instead: each tick()
/// samples the relation's measured behavior — operation mix, per-edge
/// fanouts, and lock contention — scores every candidate variant with
/// the planner's cost model over the signatures actually being served,
/// and, once a candidate's predicted win clears a hysteresis threshold
/// for enough consecutive ticks, adopts it through the live migration
/// engine (ConcurrentRelation::migrateTo) without stopping traffic.
///
/// Scoring is the plan cost model plus one concurrency term the static
/// model cannot see: predicted per-op cost is divided by the effective
/// parallelism min(demand, supply), where demand grows from 1 toward
/// the thread count with the measured contention ratio, and supply is
/// the candidate's root-level parallelism (stripes, or instance fanout
/// for placements that host nothing at the root). This reproduces the
/// §6.2 crossover qualitatively: with one uncontended thread the cheap
/// coarse plans win; under contended multi-threaded load the striped
/// and speculative placements' extra supply pays for itself.
///
/// tick() is operator-paced (call it every few seconds, or between
/// workload phases): each tick briefly quiesces the relation for the
/// statistics sample and compiles candidate plans — deliberate costs
/// that do not belong on any per-operation path.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_AUTOTUNE_ONLINETUNER_H
#define CRS_AUTOTUNE_ONLINETUNER_H

#include "autotune/Autotuner.h"

#include <map>
#include <utility>

namespace crs {

class ShardedRelation;

/// Tuning policy for an OnlineTuner.
struct OnlineTunerConfig {
  /// The candidate menu. Keep it modest (every tick compiles plans for
  /// each candidate); the Figure-5 style variants are a good default.
  std::vector<GraphVariant> Candidates;
  /// Worker threads the relation serves: the ceiling of the
  /// contention-scaled parallelism demand.
  unsigned Threads = 1;
  /// A candidate must be predicted at least this much better before it
  /// counts: predictedCost(current) / predictedCost(candidate) must
  /// exceed the ratio. Guards against migrating on noise.
  double HysteresisRatio = 1.3;
  /// ... and must keep winning for this many consecutive ticks.
  unsigned ConfirmTicks = 2;
  /// Passed through to migrateTo when a migration triggers (phase
  /// hooks for progress reporting; may be null).
  MigrationObserver *Observer = nullptr;
  /// Optional observability hookup (src/obs). When set, each tick (a)
  /// emits TunerDecision/TunerMigrated events to the registry's Tuner
  /// ring, and (b) reads the relation's measured per-signature
  /// "relation.op_latency" histograms back as a tuning input alongside
  /// the cost model: ticks diff each signature's (count, sum) pair, and
  /// a regression of the measured mean beyond LatencyRegressRatio
  /// collapses the hysteresis ratio toward 1 for that tick — prediction
  /// says when a candidate looks better; measurement says how urgently
  /// to believe it.
  obs::MetricsRegistry *Metrics = nullptr;
  /// The `relation` label value to match histograms against (the name
  /// passed to attachMetrics). Empty matches every relation in the
  /// registry — fine when the registry serves one relation.
  std::string MetricsLabel;
  /// Measured-mean regression factor between ticks that triggers the
  /// hysteresis collapse above.
  double LatencyRegressRatio = 1.25;
};

/// What one tick() observed and decided.
struct TuneTick {
  bool Scored = false;        ///< false: no signatures compiled yet
  double CurrentCost = 0;     ///< predicted per-op cost of the live rep
  std::string BestName;       ///< best-scoring candidate this tick
  double BestCost = 0;
  unsigned Confirmations = 0; ///< consecutive ticks the winner held
  bool Migrated = false;
  MigrationResult Migration;  ///< set when Migrated
  /// Measured mean op latency (nanos) over the tick interval, from the
  /// registry's relation.op_latency histograms. 0 when no registry is
  /// configured or no operations were sampled since the last tick.
  double MeasuredMeanNanos = 0;
  /// True when the measured mean regressed past LatencyRegressRatio and
  /// this tick ran with collapsed hysteresis.
  bool LatencyRegressed = false;
};

/// Drives one relation's representation from its live statistics.
class OnlineTuner {
public:
  OnlineTuner(ConcurrentRelation &R, OnlineTunerConfig C);

  /// Tunes a sharded relation as one unit: statistics, operation mix,
  /// and served signatures aggregate across the shards, and a
  /// triggered migration adopts the winner shard-at-a-time
  /// (ShardedRelation::migrateTo) — at any instant only 1/N of the
  /// keyspace is paying dual-write costs.
  OnlineTuner(ShardedRelation &R, OnlineTunerConfig C);

  /// Sample, score, and — when the hysteresis policy is satisfied —
  /// migrate. Blocking: a triggered migration runs on this thread.
  /// Must not be called from inside an operation (it samples through
  /// the operation gate), nor concurrently with itself.
  TuneTick tick();

  /// The cost-model score (predicted per-operation cost, lower is
  /// better) of serving \p Sigs with mix \p Mix on representation
  /// \p Config. \p Measured carries the live-measured scalar fanouts
  /// (EdgeFanout must be empty — per-edge measurements do not transfer
  /// across decompositions); \p ContentionRatio is measured
  /// contentions/acquisitions on the live relation; \p Threads the
  /// serving thread count. Exposed for tests and diagnostics.
  static double scoreRepresentation(const RepresentationConfig &Config,
                                    const std::vector<PlanCache::Signature> &Sigs,
                                    const OperationCounts &Mix,
                                    const CostParams &Measured,
                                    double ContentionRatio, unsigned Threads);

private:
  /// The tuned relation's live readings, independent of whether it is
  /// one ConcurrentRelation or a sharded fleet of them.
  OperationCounts liveCounts() const;
  std::vector<PlanCache::Signature> liveSignatures() const;
  RelationStatistics liveSample() const;
  const RepresentationConfig &liveConfig() const;
  /// Whether every serving representation is already \p Name — for a
  /// sharded fleet, every shard (a canary-migrated shard alone must not
  /// stall the rollout of the rest).
  bool servesEverywhere(const std::string &Name) const;
  MigrationResult migrate(RepresentationConfig Target);

  ConcurrentRelation *Rel;          ///< null when tuning a sharded relation
  ShardedRelation *Sharded = nullptr; ///< null when tuning a single relation
  OnlineTunerConfig Cfg;
  OperationCounts LastCounts; ///< mix and contention deltas between ticks
  std::string StreakBest;         ///< winner being confirmed
  unsigned Streak = 0;
  /// Last observed (count, sum-nanos) per relation.op_latency signature
  /// label — latency deltas between ticks (histograms are cumulative).
  std::map<std::string, std::pair<uint64_t, uint64_t>> LastSigLat;
  double LastMeanNanos = 0;       ///< previous tick's measured mean
};

} // namespace crs

#endif // CRS_AUTOTUNE_ONLINETUNER_H
