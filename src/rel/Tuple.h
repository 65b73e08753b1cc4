//===- rel/Tuple.h - Tuples over columns ------------------------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tuples (paper §2): a tuple t maps a set of columns to values. The paper
/// writes `dom t` for its columns, `t ⊇ s` when t extends s, and `t ∼ s`
/// when the tuples agree on all common columns. Tuples are stored as a
/// vector of (column, value) pairs sorted by column id; this gives cheap
/// projection, union, lexicographic comparison (the lock order of §5.1),
/// and hashing (lock striping, §4.4).
///
//===----------------------------------------------------------------------===//

#ifndef CRS_REL_TUPLE_H
#define CRS_REL_TUPLE_H

#include "rel/Column.h"
#include "rel/Value.h"

#include <utility>
#include <vector>

namespace crs {

class ColumnCatalog;

/// An immutable-ish map from columns to values, ordered by column id.
class Tuple {
public:
  Tuple() = default;

  /// Builds a tuple from (column, value) pairs; duplicates are rejected
  /// by assertion.
  static Tuple of(std::vector<std::pair<ColumnId, Value>> Entries);

  /// The columns of the tuple (the paper's `dom t`).
  ColumnSet domain() const { return Dom; }

  bool empty() const { return Entries.empty(); }
  unsigned size() const { return static_cast<unsigned>(Entries.size()); }

  bool hasColumn(ColumnId C) const { return Dom.contains(C); }

  /// Value of column \p C; asserts the column is present.
  const Value &get(ColumnId C) const;

  /// Adds or replaces the binding of column \p C.
  void set(ColumnId C, Value V);

  /// Rebinds the whole tuple in place to columns \p Cols (strictly
  /// ascending — a plan's bind-slot layout) with values \p Vals. When
  /// the tuple already has exactly this domain, the values are
  /// overwritten with no allocation; this is the prepared-operation hot
  /// path, where a per-thread scratch tuple is rebound with the same
  /// layout on every execution.
  void rebind(const ColumnId *Cols, const Value *Vals, size_t N);

  /// Projection onto \p Cols (the paper's π_C t); columns of Cols missing
  /// from the tuple are simply absent in the result.
  Tuple project(ColumnSet Cols) const;

  /// \name Rows of values over static columns (rel/ValueKey.h)
  /// Decomposition nodes and edges fix their columns, so instance keys
  /// and container keys are stored as bare values in column order.
  /// These read and merge such rows without building a Tuple.
  /// @{
  /// Writes the values of \p Cols, all bound by this tuple, to \p Out
  /// in column order.
  void valuesOf(ColumnSet Cols, Value *Out) const;
  /// project(Cols).hash(), without building the projection.
  uint64_t hashOf(ColumnSet Cols) const;
  /// True if this tuple agrees with the row binding \p Cols[I] (strictly
  /// ascending) to \p Vals[I] on every common column.
  bool matchesRow(const ColumnId *Cols, const Value *Vals, unsigned N) const;
  /// *this = A ∪ row. Requires A.matchesRow(Cols, Vals, N); must not
  /// alias A.
  void assignUnionRow(const Tuple &A, const ColumnId *Cols, const Value *Vals,
                      unsigned N);
  /// @}

  /// True if this tuple extends \p S: equal to S on all of S's columns
  /// (the paper's t ⊇ s). Requires dom S ⊆ dom t to return true.
  bool extends(const Tuple &S) const;

  /// True if the tuples agree on all common columns (the paper's t ∼ s).
  bool matches(const Tuple &S) const;

  /// Union of two tuples with disjoint or agreeing domains; conflicting
  /// bindings are rejected by assertion.
  Tuple unionWith(const Tuple &Other) const;

  /// Natural-join compatibility plus merge: if the tuples agree on common
  /// columns, sets \p Out to their union and returns true.
  bool tryJoin(const Tuple &Other, Tuple &Out) const;

  /// In-place assignment forms of unionWith/project, merging into this
  /// tuple's existing storage (no allocation once the capacity is warm —
  /// the executor's recycled state arena). Neither operand may alias
  /// *this.
  /// @{
  /// *this = A ∪ B. Requires A.matches(B); common columns take A's value.
  void assignUnion(const Tuple &A, const Tuple &B);
  /// *this = π_C(A).
  void assignProject(const Tuple &A, ColumnSet C);
  /// @}

  /// Lexicographic three-way comparison by (column, value) sequence.
  /// Within one decomposition node all instances share a domain, so this
  /// induces the per-node lexicographic order the lock order (§5.1) needs.
  int compare(const Tuple &Other) const;

  bool operator==(const Tuple &Other) const {
    return Dom == Other.Dom && Entries == Other.Entries;
  }
  bool operator!=(const Tuple &Other) const { return !(*this == Other); }
  bool operator<(const Tuple &Other) const { return compare(Other) < 0; }

  /// Deterministic hash over the (column, value) sequence.
  uint64_t hash() const;

  /// Iterates entries in column-id order.
  const std::vector<std::pair<ColumnId, Value>> &entries() const {
    return Entries;
  }

  /// Renders as `<name: value, ...>` using \p Catalog for names.
  std::string str(const ColumnCatalog &Catalog) const;

private:
  ColumnSet Dom;
  std::vector<std::pair<ColumnId, Value>> Entries; // sorted by ColumnId
};

/// Hash functor for containers keyed by tuples.
struct TupleHash {
  uint64_t operator()(const Tuple &T) const { return T.hash(); }
};

/// Less-than functor for sorted containers keyed by tuples.
struct TupleLess {
  bool operator()(const Tuple &A, const Tuple &B) const {
    return A.compare(B) < 0;
  }
};

} // namespace crs

#endif // CRS_REL_TUPLE_H
