//===- autotune/OnlineTuner.cpp - Statistics-driven online autotuning --------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "autotune/OnlineTuner.h"

#include "runtime/ShardedRelation.h"
#include "support/Compiler.h"

#include <algorithm>

using namespace crs;

OnlineTuner::OnlineTuner(ConcurrentRelation &R, OnlineTunerConfig C)
    : Rel(&R), Cfg(std::move(C)) {
  // Baseline for the first tick's mix delta.
  LastCounts = R.operationCounts();
}

OnlineTuner::OnlineTuner(ShardedRelation &R, OnlineTunerConfig C)
    : Rel(nullptr), Sharded(&R), Cfg(std::move(C)) {
  LastCounts = R.operationCounts();
}

OperationCounts OnlineTuner::liveCounts() const {
  return Sharded ? Sharded->operationCounts() : Rel->operationCounts();
}

std::vector<PlanCache::Signature> OnlineTuner::liveSignatures() const {
  return Sharded ? Sharded->compiledSignatures() : Rel->compiledSignatures();
}

RelationStatistics OnlineTuner::liveSample() const {
  return Sharded ? Sharded->sampleStatistics() : Rel->sampleStatistics();
}

const RepresentationConfig &OnlineTuner::liveConfig() const {
  return Sharded ? Sharded->config() : Rel->config();
}

bool OnlineTuner::servesEverywhere(const std::string &Name) const {
  if (!Sharded)
    return Rel->config().Name == Name;
  for (unsigned I = 0; I < Sharded->numShards(); ++I)
    if (Sharded->shard(I).config().Name != Name)
      return false;
  return true;
}

MigrationResult OnlineTuner::migrate(RepresentationConfig Target) {
  // The sharded path adopts the winner one shard at a time, stalling
  // only 1/N of the keyspace per dual-write window.
  return Sharded ? Sharded->migrateTo(std::move(Target), Cfg.Observer)
                 : Rel->migrateTo(std::move(Target), Cfg.Observer);
}

double OnlineTuner::scoreRepresentation(
    const RepresentationConfig &Config,
    const std::vector<PlanCache::Signature> &Sigs, const OperationCounts &Mix,
    const CostParams &Measured, double ContentionRatio, unsigned Threads) {
  assert(Config.Decomp && Config.Placement && "scoring an empty config");
  assert(Measured.EdgeFanout.empty() &&
         "per-edge fanouts do not transfer across decompositions");
  QueryPlanner Planner(*Config.Decomp, *Config.Placement, Measured);

  // Each signature is weighted by its operation kind's share of the
  // measured mix, split evenly across that kind's signatures (per-
  // signature counters would put another shared write on the hot
  // path; the kind split is measured, the within-kind split assumed).
  unsigned KindSigs[3] = {0, 0, 0}; // query / insert / remove
  auto IsUndo = [](PlanOp Op) {
    // Undo signatures execute only on transaction aborts, which the
    // per-kind operation counters do not track: excluded from scoring.
    return Op == PlanOp::UndoInsert || Op == PlanOp::UndoRemove;
  };
  auto KindOf = [&](PlanOp Op) {
    // Transactional reads (QueryForUpdate) count as queries.
    assert(!IsUndo(Op) && "undo signatures are excluded from the mix");
    return Op == PlanOp::Query || Op == PlanOp::QueryForUpdate ? 0
           : Op == PlanOp::Insert                              ? 1
                                                               : 2;
  };
  for (const PlanCache::Signature &Sig : Sigs)
    if (!IsUndo(Sig.Op))
      ++KindSigs[KindOf(Sig.Op)];
  double Tot = static_cast<double>(Mix.total());
  auto KindShare = [&](unsigned Kind) {
    if (Tot == 0) // no measured ops: weight every signature equally
      return 1.0 / static_cast<double>(Sigs.size());
    uint64_t Ops = Kind == 0 ? Mix.Queries : Kind == 1 ? Mix.Inserts
                                                       : Mix.Removes;
    return KindSigs[Kind] ? static_cast<double>(Ops) / Tot /
                                static_cast<double>(KindSigs[Kind])
                          : 0.0;
  };

  double SerialCost = 0;
  for (const PlanCache::Signature &Sig : Sigs) {
    if (IsUndo(Sig.Op))
      continue;
    double W = KindShare(KindOf(Sig.Op));
    if (W == 0.0)
      continue;
    Plan P = Planner.plan(Sig.Op, ColumnSet::fromBits(Sig.Dom),
                          ColumnSet::fromBits(Sig.Out));
    SerialCost += W * Planner.cost(P);
  }

  // The concurrency term the static model cannot see (§6.2's crossover):
  // supply is the candidate's root-level parallelism — anything hosted
  // at the root serializes on the root instance's stripes, while a
  // placement hosting everything below the root parallelizes across
  // the measured number of root-container entries (instances).
  const Decomposition &D = *Config.Decomp;
  const LockPlacement &LP = *Config.Placement;
  bool RootHosted = false;
  for (EdgeId E = 0; E < D.numEdges(); ++E)
    if (LP.edgePlacement(E).Host == D.root())
      RootHosted = true;
  double Supply = RootHosted ? static_cast<double>(LP.nodeStripes(D.root()))
                             : std::max(1.0, Measured.RootFanout);
  // Demand grows from 1 (uncontended: extra supply is worthless)
  // toward the serving thread count as measured contention rises.
  double Demand =
      1.0 + ContentionRatio * (Threads > 1 ? Threads - 1 : 0);
  double Parallelism = std::max(1.0, std::min(Demand, Supply));
  return SerialCost / Parallelism;
}

TuneTick OnlineTuner::tick() {
  TuneTick T;
  OperationCounts Now = liveCounts();
  OperationCounts Delta{Now.Queries - LastCounts.Queries,
                        Now.Inserts - LastCounts.Inserts,
                        Now.Removes - LastCounts.Removes,
                        Now.LockAcquisitions - LastCounts.LockAcquisitions,
                        Now.LockContentions - LastCounts.LockContentions};
  LastCounts = Now;
  // An idle interval falls back to the lifetime mix, and one that took
  // no lock to the lifetime contention.
  if (Delta.total() == 0) {
    Delta.Queries = Now.Queries;
    Delta.Inserts = Now.Inserts;
    Delta.Removes = Now.Removes;
  }
  if (Delta.LockAcquisitions == 0) {
    Delta.LockAcquisitions = Now.LockAcquisitions;
    Delta.LockContentions = Now.LockContentions;
  }

  std::vector<PlanCache::Signature> Sigs = liveSignatures();
  if (Sigs.empty()) { // nothing served yet: nothing to score
    Streak = 0;
    StreakBest.clear();
    return T;
  }
  T.Scored = true;

  // Live measurements: scalar fanouts (per-edge ones do not transfer
  // across decompositions) and the contention ratio.
  RelationStatistics Stats = liveSample();
  const Decomposition &Live = *liveConfig().Decomp;
  CostParams Measured;
  double RootEnt = 0, RootCont = 0, InnerEnt = 0, InnerCont = 0;
  // A sharded aggregate can carry more edge entries than the reference
  // decomposition while a canary shard runs a different shape
  // (RelationStatistics::accumulate sizes to the widest shard); the
  // surplus entries have no meaning against Live, so they are dropped
  // from the scalar fanout estimate rather than indexed out of bounds.
  EdgeId NumEdges = static_cast<EdgeId>(
      std::min<size_t>(Stats.Edges.size(), Live.numEdges()));
  for (EdgeId E = 0; E < NumEdges; ++E) {
    bool FromRoot = Live.edge(E).Src == Live.root();
    (FromRoot ? RootEnt : InnerEnt) +=
        static_cast<double>(Stats.Edges[E].Entries);
    (FromRoot ? RootCont : InnerCont) +=
        static_cast<double>(Stats.Edges[E].Containers);
  }
  if (RootCont > 0)
    Measured.RootFanout = std::max(1.0, RootEnt / RootCont);
  if (InnerCont > 0)
    Measured.InnerFanout = std::max(1.0, InnerEnt / InnerCont);
  // Contention comes from the same diff as the op mix, so decisions
  // track the *live* load, not a populate phase's stale history.
  double ContentionRatio =
      Delta.LockAcquisitions
          ? static_cast<double>(Delta.LockContentions) /
                static_cast<double>(Delta.LockAcquisitions)
          : 0.0;

  // The cost of the *current deployment*. A sharded fleet mid-rollout
  // serves several configs at once (a canary shard on the winner, the
  // rest on the incumbent): scoring only shard 0 would make a canaried
  // winner look fully adopted (CurrentCost == BestCost) and stall the
  // rollout under any hysteresis ratio > 1. The fleet's cost is the
  // shard-count-weighted mean over its distinct serving configs.
  if (Sharded) {
    double Sum = 0;
    std::vector<std::pair<std::string, double>> Scored;
    for (unsigned I = 0; I < Sharded->numShards(); ++I) {
      const RepresentationConfig &C = Sharded->shard(I).config();
      double S = -1;
      for (const auto &[Name, Cost] : Scored)
        if (Name == C.Name)
          S = Cost;
      if (S < 0) {
        S = scoreRepresentation(C, Sigs, Delta, Measured, ContentionRatio,
                                Cfg.Threads);
        Scored.emplace_back(C.Name, S);
      }
      Sum += S;
    }
    T.CurrentCost = Sum / static_cast<double>(Sharded->numShards());
  } else {
    T.CurrentCost = scoreRepresentation(liveConfig(), Sigs, Delta, Measured,
                                        ContentionRatio, Cfg.Threads);
  }
  int BestIdx = -1;
  for (size_t I = 0; I < Cfg.Candidates.size(); ++I) {
    RepresentationConfig C = makeGraphRepresentation(Cfg.Candidates[I]);
    if (!C.Placement)
      continue; // illegal combination
    double S = scoreRepresentation(C, Sigs, Delta, Measured, ContentionRatio,
                                   Cfg.Threads);
    if (BestIdx < 0 || S < T.BestCost) {
      BestIdx = static_cast<int>(I);
      T.BestCost = S;
      T.BestName = C.Name;
    }
  }
  if (BestIdx < 0)
    return T;

  // Measured latency (the registry's relation.op_latency histograms) as
  // a second input beside the predicted costs. The histograms are
  // cumulative, so each tick diffs per-signature (count, sum) readings
  // against the previous tick's; a counter that shrank means the
  // relation re-attached its metrics (fresh histograms) and restarts
  // the baseline.
  double EffHysteresis = Cfg.HysteresisRatio;
  if (Cfg.Metrics) {
    uint64_t DCount = 0, DSum = 0;
    obs::MetricsSnapshot Snap = Cfg.Metrics->snapshot();
    for (const obs::MetricsSnapshot::HistogramSample &H : Snap.Histograms) {
      if (H.Name != "relation.op_latency")
        continue;
      bool Ours = Cfg.MetricsLabel.empty();
      std::string SigKey;
      for (const auto &[K, V] : H.Labels) {
        if (K == "relation" && V == Cfg.MetricsLabel)
          Ours = true;
        else if (K == "sig")
          SigKey = V;
        else if (K == "shard")
          SigKey += ":shard=" + V; // keep per-shard series distinct
      }
      if (!Ours)
        continue;
      auto &[LastCount, LastSum] = LastSigLat[SigKey];
      if (H.Data.Count >= LastCount) {
        DCount += H.Data.Count - LastCount;
        DSum += H.Data.SumNanos - LastSum;
      } else { // re-attach reset the histogram: restart the baseline
        DCount += H.Data.Count;
        DSum += H.Data.SumNanos;
      }
      LastCount = H.Data.Count;
      LastSum = H.Data.SumNanos;
    }
    if (DCount) {
      T.MeasuredMeanNanos =
          static_cast<double>(DSum) / static_cast<double>(DCount);
      // A real regression in what operations actually cost makes the
      // model's predicted win urgent: collapse the hysteresis ratio
      // toward 1 so a predicted-better candidate is adopted sooner.
      // Measurement never *blocks* a migration — the measured latency
      // of the current representation says nothing about a candidate's.
      if (LastMeanNanos > 0 &&
          T.MeasuredMeanNanos > LastMeanNanos * Cfg.LatencyRegressRatio) {
        T.LatencyRegressed = true;
        EffHysteresis = std::min(EffHysteresis, 1.05);
      }
      LastMeanNanos = T.MeasuredMeanNanos;
    }
  }

  // Hysteresis: the winner must beat the live representation by the
  // (possibly latency-collapsed) ratio, for the configured number of
  // consecutive ticks, before a migration is worth its dual-write and
  // barrier costs. The already-serving test covers every shard of a
  // fleet: a canary migration of shard 0 alone must not make the winner
  // look adopted and stall the rollout of the rest.
  bool Wins = !servesEverywhere(T.BestName) &&
              T.CurrentCost > T.BestCost * EffHysteresis;
  if (Wins) {
    Streak = T.BestName == StreakBest ? Streak + 1 : 1;
    StreakBest = T.BestName;
  } else {
    Streak = 0;
    StreakBest.clear();
  }
  T.Confirmations = Streak;
  obs::TraceRing *Ring =
      Cfg.Metrics ? &Cfg.Metrics->ring(obs::EventDomain::Tuner) : nullptr;
  if (Ring)
    Ring->emit(obs::EventKind::TunerDecision,
               static_cast<uint64_t>(T.CurrentCost * 1000),
               static_cast<uint64_t>(T.BestCost * 1000), Streak);
  if (Wins && Streak >= Cfg.ConfirmTicks) {
    T.Migration = migrate(makeGraphRepresentation(Cfg.Candidates[BestIdx]));
    T.Migrated = T.Migration.Ok;
    if (Ring && T.Migrated)
      Ring->emit(obs::EventKind::TunerMigrated,
                 static_cast<uint64_t>(BestIdx),
                 static_cast<uint64_t>(T.BestCost * 1000),
                 static_cast<uint64_t>(T.MeasuredMeanNanos));
    Streak = 0;
    StreakBest.clear();
  }
  return T;
}
