//===- runtime/Statistics.h - Representation statistics ---------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measured statistics over a live relation. The data representation
/// synthesis line of work drives its query planner with profiled
/// statistics rather than static guesses. Two kinds live here: (a) the
/// relation's cumulative event counts (OperationCounts, read off its
/// obs::Counter tallies: the op mix and the physical-lock traffic, the
/// §6 experiments' diagnostic for why coarse placements stop scaling),
/// which the online tuner diffs between ticks; and (b) what only a walk
/// of the structure can measure (RelationStatistics): per-edge container
/// occupancy — average fanout — which can be fed back into the cost
/// model (CostParams::EdgeFanout) to replan with measured cardinalities.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_RUNTIME_STATISTICS_H
#define CRS_RUNTIME_STATISTICS_H

#include "plan/CostModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace crs {

/// Cumulative event counts of one relation (relaxed counters on the
/// execution paths). The online tuner reads deltas of these to estimate
/// the live operation mix and the lock contention ratio.
struct OperationCounts {
  uint64_t Queries = 0;
  uint64_t Inserts = 0;
  uint64_t Removes = 0;
  /// Physical locks newly taken by locked executions (exact).
  uint64_t LockAcquisitions = 0;
  /// Blocking acquisitions whose first try failed.
  uint64_t LockContentions = 0;
  /// Operations of the three kinds (lock traffic is not an operation).
  uint64_t total() const { return Queries + Inserts + Removes; }
};

/// Occupancy of one decomposition edge across all its container
/// instances.
struct EdgeOccupancy {
  uint64_t Containers = 0; ///< live container instances for the edge
  uint64_t Entries = 0;    ///< total entries across them
  double averageFanout() const {
    return Containers ? static_cast<double>(Entries) /
                            static_cast<double>(Containers)
                      : 0.0;
  }
};

/// A quiescent snapshot of representation statistics.
struct RelationStatistics {
  std::vector<EdgeOccupancy> Edges; ///< indexed by EdgeId
  uint64_t NodeInstances = 0;

  /// Folds measured fanouts into \p Base for statistics-driven
  /// replanning (unmeasured edges keep the static defaults).
  CostParams toCostParams(CostParams Base) const {
    Base.EdgeFanout.assign(Edges.size(), 0.0);
    for (size_t E = 0; E < Edges.size(); ++E)
      Base.EdgeFanout[E] = Edges[E].averageFanout();
    return Base;
  }

  /// Folds \p Other into this snapshot element-wise (a sharded
  /// relation's per-shard statistics aggregating into one view). Edge
  /// indices are summed positionally, which assumes the
  /// snapshots come from the same decomposition; mid-way through a
  /// shard-at-a-time migration the shards briefly disagree, and the
  /// aggregate is then only an approximation — acceptable for the
  /// monitoring and tuning paths this feeds.
  void accumulate(const RelationStatistics &Other) {
    if (Other.Edges.size() > Edges.size())
      Edges.resize(Other.Edges.size());
    for (size_t E = 0; E < Other.Edges.size(); ++E) {
      Edges[E].Containers += Other.Edges[E].Containers;
      Edges[E].Entries += Other.Edges[E].Entries;
    }
    NodeInstances += Other.NodeInstances;
  }
};

} // namespace crs

#endif // CRS_RUNTIME_STATISTICS_H
