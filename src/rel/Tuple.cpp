//===- rel/Tuple.cpp - Tuples over columns -----------------------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "rel/Tuple.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace crs;

Tuple Tuple::of(std::vector<std::pair<ColumnId, Value>> Es) {
  std::sort(Es.begin(), Es.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  Tuple T;
  for (auto &E : Es) {
    assert(!T.Dom.contains(E.first) && "duplicate column in tuple");
    T.Dom |= ColumnSet::of(E.first);
  }
  T.Entries = std::move(Es);
  return T;
}

const Value &Tuple::get(ColumnId C) const {
  assert(hasColumn(C) && "tuple lacks requested column");
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), C,
      [](const auto &E, ColumnId Col) { return E.first < Col; });
  return It->second;
}

void Tuple::set(ColumnId C, Value V) {
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), C,
      [](const auto &E, ColumnId Col) { return E.first < Col; });
  if (It != Entries.end() && It->first == C) {
    It->second = V;
    return;
  }
  Entries.insert(It, {C, V});
  Dom |= ColumnSet::of(C);
}

void Tuple::rebind(const ColumnId *Cols, const Value *Vals, size_t N) {
  if (Entries.size() == N) {
    bool SameLayout = true;
    for (size_t I = 0; I < N; ++I)
      if (Entries[I].first != Cols[I]) {
        SameLayout = false;
        break;
      }
    if (SameLayout) { // warm path: overwrite values in place
      for (size_t I = 0; I < N; ++I)
        Entries[I].second = Vals[I];
      return;
    }
  }
  Entries.clear();
  Dom = ColumnSet::empty();
  for (size_t I = 0; I < N; ++I) {
    assert((I == 0 || Cols[I - 1] < Cols[I]) &&
           "bind-slot layout must be strictly ascending");
    Entries.push_back({Cols[I], Vals[I]});
    Dom |= ColumnSet::of(Cols[I]);
  }
}

Tuple Tuple::project(ColumnSet Cols) const {
  Tuple Out;
  Out.Entries.reserve((Dom & Cols).size());
  for (const auto &[C, V] : Entries) {
    if (!Cols.contains(C))
      continue;
    Out.Entries.push_back({C, V});
    Out.Dom |= ColumnSet::of(C);
  }
  return Out;
}

void Tuple::valuesOf(ColumnSet Cols, Value *Out) const {
  assert(Dom.containsAll(Cols) && "tuple lacks a requested column");
  for (const auto &[C, V] : Entries)
    if (Cols.contains(C))
      *Out++ = V;
}

uint64_t Tuple::hashOf(ColumnSet Cols) const {
  uint64_t H = 0x243f6a8885a308d3ULL;
  for (const auto &[C, V] : Entries) {
    if (!Cols.contains(C))
      continue;
    H = hashCombine(H, C);
    H = hashCombine(H, V.hash());
  }
  return H;
}

bool Tuple::matchesRow(const ColumnId *Cols, const Value *Vals,
                       unsigned N) const {
  auto It = Entries.begin(), End = Entries.end();
  for (unsigned I = 0; I < N; ++I) {
    while (It != End && It->first < Cols[I])
      ++It;
    if (It == End)
      return true;
    if (It->first == Cols[I] && It->second != Vals[I])
      return false;
  }
  return true;
}

void Tuple::assignUnionRow(const Tuple &A, const ColumnId *Cols,
                           const Value *Vals, unsigned N) {
  assert(this != &A && "assignUnionRow operand must not alias");
  assert(A.matchesRow(Cols, Vals, N) && "union of conflicting tuples");
  Entries.clear();
  Entries.reserve(A.Entries.size() + N);
  Dom = A.Dom;
  auto IA = A.Entries.begin(), EA = A.Entries.end();
  unsigned I = 0;
  while (IA != EA || I < N) {
    if (I == N || (IA != EA && IA->first <= Cols[I])) {
      if (I < N && IA->first == Cols[I])
        ++I; // agreeing common column: take A's value
      Entries.push_back(*IA++);
    } else {
      Entries.push_back({Cols[I], Vals[I]});
      Dom |= ColumnSet::of(Cols[I]);
      ++I;
    }
  }
}

bool Tuple::extends(const Tuple &S) const {
  if (!Dom.containsAll(S.domain()))
    return false;
  for (const auto &[C, V] : S.Entries)
    if (get(C) != V)
      return false;
  return true;
}

bool Tuple::matches(const Tuple &S) const {
  ColumnSet Common = Dom & S.domain();
  if (Common.isEmpty())
    return true;
  bool Match = true;
  Common.forEach([&](ColumnId C) {
    if (get(C) != S.get(C))
      Match = false;
  });
  return Match;
}

Tuple Tuple::unionWith(const Tuple &Other) const {
  Tuple Out;
  Out.assignUnion(*this, Other);
  return Out;
}

bool Tuple::tryJoin(const Tuple &Other, Tuple &Out) const {
  if (!matches(Other))
    return false;
  Out = unionWith(Other);
  return true;
}

void Tuple::assignUnion(const Tuple &A, const Tuple &B) {
  assert(this != &A && this != &B && "assignUnion operands must not alias");
  assert(A.matches(B) && "union of conflicting tuples");
  Entries.clear();
  Entries.reserve((A.Dom | B.Dom).size());
  auto IA = A.Entries.begin(), EA = A.Entries.end();
  auto IB = B.Entries.begin(), EB = B.Entries.end();
  while (IA != EA || IB != EB) {
    if (IB == EB || (IA != EA && IA->first <= IB->first)) {
      if (IB != EB && IA->first == IB->first)
        ++IB; // agreeing common column: take A's value
      Entries.push_back(*IA++);
    } else {
      Entries.push_back(*IB++);
    }
  }
  Dom = A.Dom | B.Dom;
}

void Tuple::assignProject(const Tuple &A, ColumnSet C) {
  assert(this != &A && "assignProject operand must not alias");
  Entries.clear();
  Entries.reserve((A.Dom & C).size());
  Dom = ColumnSet::empty();
  for (const auto &[Col, V] : A.Entries) {
    if (!C.contains(Col))
      continue;
    Entries.push_back({Col, V});
    Dom |= ColumnSet::of(Col);
  }
}

int Tuple::compare(const Tuple &Other) const {
  size_t N = std::min(Entries.size(), Other.Entries.size());
  for (size_t I = 0; I < N; ++I) {
    if (Entries[I].first != Other.Entries[I].first)
      return Entries[I].first < Other.Entries[I].first ? -1 : 1;
    int C = Entries[I].second.compare(Other.Entries[I].second);
    if (C != 0)
      return C;
  }
  if (Entries.size() != Other.Entries.size())
    return Entries.size() < Other.Entries.size() ? -1 : 1;
  return 0;
}

uint64_t Tuple::hash() const {
  uint64_t H = 0x243f6a8885a308d3ULL;
  for (const auto &[C, V] : Entries) {
    H = hashCombine(H, C);
    H = hashCombine(H, V.hash());
  }
  return H;
}

std::string Tuple::str(const ColumnCatalog &Catalog) const {
  std::string Out = "<";
  bool First = true;
  for (const auto &[C, V] : Entries) {
    if (!First)
      Out += ", ";
    Out += Catalog.name(C) + ": " + V.str();
    First = false;
  }
  return Out + ">";
}
