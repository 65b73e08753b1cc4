//===- rel/ValueKey.h - Inline rows of values -------------------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rows of values whose columns are known statically. A decomposition
/// node's key columns and an edge's columns are fixed by the
/// decomposition (§4.1), so a node instance's valuation t and a
/// container entry's key need only their values, in column order — no
/// (column, value) pairs and no heap vector:
///
///  * ValueSpan views such a row (an instance key in the lock order of
///    §5.1);
///  * ValueKey<N> is an inline key of N values, the key type of every
///    edge container. Edges binding fewer than N columns pad the rest
///    with default values, which compare equal.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_REL_VALUEKEY_H
#define CRS_REL_VALUEKEY_H

#include "rel/Value.h"

#include <cstdint>

namespace crs {

/// Lexicographic three-way comparison of two rows of \p N values.
inline int compareValues(const Value *A, const Value *B, unsigned N) {
  for (unsigned I = 0; I < N; ++I) {
    if (A[I] == B[I])
      continue;
    if (A[I].isInt() && B[I].isInt())
      return A[I].asInt() < B[I].asInt() ? -1 : 1;
    return A[I].compare(B[I]);
  }
  return 0;
}

/// Deterministic hash of a row of \p N values.
inline uint64_t hashValues(const Value *V, unsigned N) {
  uint64_t H = 0x243f6a8885a308d3ULL;
  for (unsigned I = 0; I < N; ++I)
    H = hashCombine(H, V[I].hash());
  return H;
}

/// A read-only view of a row of values owned elsewhere.
struct ValueSpan {
  const Value *Data = nullptr;
  uint32_t Size = 0;

  /// Lexicographic; a proper prefix orders first.
  int compare(const ValueSpan &Other) const {
    uint32_t N = Size < Other.Size ? Size : Other.Size;
    if (int C = compareValues(Data, Other.Data, N))
      return C;
    if (Size != Other.Size)
      return Size < Other.Size ? -1 : 1;
    return 0;
  }
};

/// An inline key of \p N values.
template <unsigned N> struct ValueKey {
  Value V[N];

  bool operator==(const ValueKey &Other) const {
    for (unsigned I = 0; I < N; ++I)
      if (V[I] != Other.V[I])
        return false;
    return true;
  }
};

/// Hash functor for ValueKey-keyed containers.
struct ValueKeyHash {
  template <unsigned N> uint64_t operator()(const ValueKey<N> &K) const {
    return hashValues(K.V, N);
  }
};

/// Less-than functor for sorted ValueKey-keyed containers.
struct ValueKeyLess {
  template <unsigned N>
  bool operator()(const ValueKey<N> &A, const ValueKey<N> &B) const {
    return compareValues(A.V, B.V, N) < 0;
  }
};

} // namespace crs

#endif // CRS_REL_VALUEKEY_H
