//===- lockplace/LockPlacement.h - Lock placements --------------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock placements (paper §4.3): a mapping from the logical lock of every
/// decomposition edge instance onto a physical lock attached to a node
/// instance. Placements describe the locking granularity spectrum:
///
///  * coarse — every edge maps to the single root lock (Fig. 3a, ψ1);
///  * fine — every edge maps to a lock at its source node (Fig. 3b, ψ2);
///  * striped — a node carries k physical locks, and an edge instance
///    selects one by hashing designated stripe columns of its tuple
///    (§4.4, ψ3); transactions that reach a container without the stripe
///    columns bound conservatively take all k stripes;
///  * speculative — present edge instances map to a lock on the *target*
///    node instance, absent instances to a (striped) lock at a dominating
///    host; requires a concurrency-safe container with linearizable
///    lookups (§4.5, ψ4).
///
/// Well-formedness (§4.3): the host of a non-speculative edge must
/// dominate the edge's source, and every edge on any path from the host
/// to the source must share the same placement (stability of the
/// logical→physical mapping).
///
//===----------------------------------------------------------------------===//

#ifndef CRS_LOCKPLACE_LOCKPLACEMENT_H
#define CRS_LOCKPLACE_LOCKPLACEMENT_H

#include "decomp/Decomposition.h"

#include <string>
#include <vector>

namespace crs {

/// Placement of the logical locks of one edge.
struct EdgePlacement {
  /// Node hosting the physical lock(s) for this edge — for speculative
  /// edges, the host used for *absent* edge instances (present instances
  /// are locked at the edge's target node instance).
  NodeId Host = 0;
  /// Columns hashed to pick a stripe at the host; must be bound by the
  /// edge instance tuple (⊆ source keys ∪ edge cols). Meaningful only
  /// when the host carries more than one stripe.
  ColumnSet StripeCols;
  /// Speculative placement (§4.5): lock present entries at the target.
  bool Speculative = false;
};

/// A complete lock placement for a decomposition.
class LockPlacement {
public:
  explicit LockPlacement(const Decomposition &D);

  const Decomposition &decomposition() const { return *Decomp; }

  /// Sets the placement of edge \p E.
  void setEdge(EdgeId E, EdgePlacement P);
  /// Sets the number of physical locks (stripes) carried by instances of
  /// node \p N. Must be >= 1.
  void setNodeStripes(NodeId N, uint32_t Stripes);

  const EdgePlacement &edgePlacement(EdgeId E) const {
    return EdgePlacements[E];
  }
  uint32_t nodeStripes(NodeId N) const { return NodeStripes[N]; }

  /// The physical locks each instance of node \p N carries: its stripe
  /// count when the placement hosts an edge at N or a speculative edge
  /// locks its present targets there (§4.5), and 0 otherwise — nothing
  /// ever locks such an instance.
  uint32_t instanceStripes(NodeId N) const;

  /// Checks placement well-formedness (domination, path-sharing,
  /// speculative preconditions, stripe-column visibility).
  ValidationResult validate() const;

  /// Checks the container-safety rule of §6.1: a non-concurrent container
  /// on an edge requires the placement to serialize access to each
  /// container instance (single non-speculative lock constant across the
  /// instance's entries); concurrent containers are exempt.
  ValidationResult validateContainerSafety() const;

  /// True if the placement permits two transactions to access instances
  /// of edge \p E's container concurrently (i.e. the container must be
  /// concurrency-safe). This is the predicate the autotuner uses to pick
  /// legal containers for a placement (§6.1).
  bool allowsConcurrentAccess(EdgeId E) const;

  /// One-line summary for reports, e.g. "rho:1024 stripes; u->w @u".
  std::string str() const;

private:
  const Decomposition *Decomp;
  std::vector<EdgePlacement> EdgePlacements;
  std::vector<uint32_t> NodeStripes;
};

} // namespace crs

#endif // CRS_LOCKPLACE_LOCKPLACEMENT_H
