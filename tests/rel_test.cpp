//===- tests/rel_test.cpp - Relational core unit tests ------------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "decomp/Shapes.h"
#include "rel/RefRelation.h"
#include "rel/RelationSpec.h"
#include "rel/Tuple.h"
#include "rel/Value.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace crs;

namespace {

// ---------------------------------------------------------------- Value

TEST(Value, IntBasics) {
  Value V = Value::ofInt(42);
  EXPECT_TRUE(V.isInt());
  EXPECT_EQ(V.asInt(), 42);
  EXPECT_EQ(V.str(), "42");
  EXPECT_EQ(V, Value::ofInt(42));
  EXPECT_NE(V, Value::ofInt(43));
}

TEST(Value, StringInterning) {
  Value A = Value::ofString("hello");
  Value B = Value::ofString("hello");
  Value C = Value::ofString("world");
  EXPECT_TRUE(A.isString());
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(A.asString(), "hello");
  EXPECT_EQ(A.str(), "'hello'");
}

TEST(Value, TotalOrder) {
  // Integers sort before strings; strings sort by content.
  EXPECT_LT(Value::ofInt(5), Value::ofString("a"));
  EXPECT_LT(Value::ofString("a"), Value::ofString("b"));
  EXPECT_LT(Value::ofInt(-1), Value::ofInt(0));
  EXPECT_EQ(Value::ofInt(7).compare(Value::ofInt(7)), 0);
}

TEST(Value, HashStability) {
  // Hashes drive lock striping; equal values must hash equal, and the
  // hash must be deterministic across constructions.
  EXPECT_EQ(Value::ofInt(99).hash(), Value::ofInt(99).hash());
  EXPECT_EQ(Value::ofString("x").hash(), Value::ofString("x").hash());
  EXPECT_NE(Value::ofInt(1).hash(), Value::ofInt(2).hash());
}

// ---------------------------------------------------------------- Column

TEST(ColumnCatalog, AddAndLookup) {
  ColumnCatalog Cat;
  ColumnId A = Cat.add("alpha");
  ColumnId B = Cat.add("beta");
  EXPECT_EQ(Cat.id("alpha"), A);
  EXPECT_EQ(Cat.id("beta"), B);
  EXPECT_EQ(Cat.name(A), "alpha");
  EXPECT_TRUE(Cat.hasColumn("alpha"));
  EXPECT_FALSE(Cat.hasColumn("gamma"));
  EXPECT_EQ(Cat.size(), 2u);
}

TEST(ColumnSet, SetAlgebra) {
  ColumnSet A = ColumnSet::of(0) | ColumnSet::of(2);
  ColumnSet B = ColumnSet::of(2) | ColumnSet::of(3);
  EXPECT_TRUE(A.contains(0));
  EXPECT_FALSE(A.contains(1));
  EXPECT_EQ((A & B), ColumnSet::of(2));
  EXPECT_EQ((A | B).size(), 3u);
  EXPECT_EQ((A - B), ColumnSet::of(0));
  EXPECT_TRUE(A.intersects(B));
  EXPECT_TRUE((A | B).containsAll(A));
  EXPECT_FALSE(A.containsAll(B));
  EXPECT_EQ(ColumnSet::empty().size(), 0u);
}

TEST(ColumnSet, Members) {
  ColumnSet S = ColumnSet::of(5) | ColumnSet::of(1) | ColumnSet::of(9);
  std::vector<ColumnId> M = S.members();
  ASSERT_EQ(M.size(), 3u);
  EXPECT_EQ(M[0], 1u);
  EXPECT_EQ(M[1], 5u);
  EXPECT_EQ(M[2], 9u);
}

// ---------------------------------------------------------------- Tuple

TEST(Tuple, BuildProjectExtend) {
  Tuple T = Tuple::of({{2, Value::ofInt(30)},
                       {0, Value::ofInt(10)},
                       {1, Value::ofInt(20)}});
  EXPECT_EQ(T.size(), 3u);
  EXPECT_EQ(T.get(0).asInt(), 10);
  EXPECT_EQ(T.get(2).asInt(), 30);

  Tuple P = T.project(ColumnSet::of(0) | ColumnSet::of(2));
  EXPECT_EQ(P.size(), 2u);
  EXPECT_TRUE(T.extends(P));
  EXPECT_FALSE(P.extends(T));
  EXPECT_TRUE(T.extends(Tuple())); // every tuple extends the empty tuple
}

TEST(Tuple, MatchesAndJoin) {
  Tuple A = Tuple::of({{0, Value::ofInt(1)}, {1, Value::ofInt(2)}});
  Tuple B = Tuple::of({{1, Value::ofInt(2)}, {2, Value::ofInt(3)}});
  Tuple C = Tuple::of({{1, Value::ofInt(9)}});
  EXPECT_TRUE(A.matches(B));  // agree on common column 1
  EXPECT_FALSE(A.matches(C)); // disagree on column 1
  Tuple J;
  ASSERT_TRUE(A.tryJoin(B, J));
  EXPECT_EQ(J.size(), 3u);
  EXPECT_EQ(J.get(2).asInt(), 3);
  EXPECT_FALSE(A.tryJoin(C, J));
}

TEST(Tuple, AssignFormsReuseStorage) {
  // The in-place forms the executor's recycled state arena uses: same
  // results as unionWith/project, written into existing storage.
  Tuple A = Tuple::of({{0, Value::ofInt(1)}, {1, Value::ofInt(2)}});
  Tuple B = Tuple::of({{1, Value::ofInt(2)}, {2, Value::ofInt(3)}});
  Tuple Out = Tuple::of({{5, Value::ofInt(99)}}); // stale content
  Out.assignUnion(A, B);
  EXPECT_EQ(Out, A.unionWith(B));
  Out.assignProject(B, ColumnSet::of(2));
  EXPECT_EQ(Out, B.project(ColumnSet::of(2)));
  Out.assignUnion(A, Tuple());
  EXPECT_EQ(Out, A);
  Out.assignProject(A, ColumnSet::empty());
  EXPECT_TRUE(Out.empty());
}

TEST(Tuple, RowsOfValuesAgreeWithTupleForms) {
  // Instance and container keys are bare values over static columns;
  // the row forms must agree with the tuple forms they replace.
  Tuple A = Tuple::of({{0, Value::ofInt(1)}, {1, Value::ofInt(2)}});
  Tuple B = Tuple::of({{1, Value::ofInt(2)}, {2, Value::ofInt(3)}});
  const ColumnId Cols[] = {1, 2};
  Value Row[2];
  B.valuesOf(ColumnSet::of(1) | ColumnSet::of(2), Row);
  EXPECT_EQ(Row[0].asInt(), 2);
  EXPECT_EQ(Row[1].asInt(), 3);
  EXPECT_EQ(A.hashOf(ColumnSet::of(1)), A.project(ColumnSet::of(1)).hash());
  EXPECT_TRUE(A.matchesRow(Cols, Row, 2));
  Tuple Out;
  Out.assignUnionRow(A, Cols, Row, 2);
  EXPECT_EQ(Out, A.unionWith(B));
  const Value Clash[] = {Value::ofInt(9), Value::ofInt(3)};
  EXPECT_FALSE(A.matchesRow(Cols, Clash, 2));
  EXPECT_EQ(B.project(ColumnSet::of(1) | ColumnSet::of(2)).entries().capacity(),
            2u); // exact size: no push_back growth
}

TEST(Tuple, RebindInPlace) {
  // Prepared-operation slot binding: same layout rebinds values without
  // rebuilding the entry sequence; a different layout rebuilds it.
  const ColumnId Cols[] = {1, 3};
  const Value V1[] = {Value::ofInt(10), Value::ofInt(30)};
  const Value V2[] = {Value::ofInt(11), Value::ofInt(31)};
  Tuple T;
  T.rebind(Cols, V1, 2);
  EXPECT_EQ(T, Tuple::of({{1, Value::ofInt(10)}, {3, Value::ofInt(30)}}));
  T.rebind(Cols, V2, 2); // warm path: values only
  EXPECT_EQ(T, Tuple::of({{1, Value::ofInt(11)}, {3, Value::ofInt(31)}}));
  const ColumnId Wider[] = {0, 1, 3};
  const Value V3[] = {Value::ofInt(5), Value::ofInt(6), Value::ofInt(7)};
  T.rebind(Wider, V3, 3);
  EXPECT_EQ(T, Tuple::of({{0, Value::ofInt(5)},
                          {1, Value::ofInt(6)},
                          {3, Value::ofInt(7)}}));
  T.rebind(Cols, V1, 2);
  EXPECT_EQ(T.domain(), ColumnSet::of(1) | ColumnSet::of(3));
}

TEST(Tuple, LexicographicCompare) {
  Tuple A = Tuple::of({{0, Value::ofInt(1)}, {1, Value::ofInt(5)}});
  Tuple B = Tuple::of({{0, Value::ofInt(1)}, {1, Value::ofInt(6)}});
  Tuple C = Tuple::of({{0, Value::ofInt(1)}});
  EXPECT_LT(A.compare(B), 0);
  EXPECT_GT(B.compare(A), 0);
  EXPECT_EQ(A.compare(A), 0);
  // Prefix sorts first (the lock order needs totality, not semantics).
  EXPECT_LT(C.compare(A), 0);
}

TEST(Tuple, SetReplacesAndInserts) {
  Tuple T;
  T.set(3, Value::ofInt(1));
  T.set(1, Value::ofInt(2));
  T.set(3, Value::ofInt(9));
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(T.get(3).asInt(), 9);
  EXPECT_EQ(T.entries().front().first, 1u); // sorted by column id
}

TEST(Tuple, HashAgreesWithEquality) {
  Xoshiro256 Rng(5);
  for (int I = 0; I < 200; ++I) {
    Tuple A = Tuple::of({{0, Value::ofInt((int64_t)Rng.nextBounded(4))},
                         {1, Value::ofInt((int64_t)Rng.nextBounded(4))}});
    Tuple B = Tuple::of({{0, Value::ofInt((int64_t)Rng.nextBounded(4))},
                         {1, Value::ofInt((int64_t)Rng.nextBounded(4))}});
    if (A == B)
      EXPECT_EQ(A.hash(), B.hash());
  }
}

// --------------------------------------------------------- RelationSpec

TEST(RelationSpec, GraphSpecFdTheory) {
  RelationSpec Spec = makeGraphSpec();
  ColumnSet SrcDst = Spec.cols({"src", "dst"});
  ColumnSet Weight = Spec.cols({"weight"});
  EXPECT_TRUE(Spec.determines(SrcDst, Weight));
  EXPECT_FALSE(Spec.determines(Spec.cols({"src"}), Weight));
  EXPECT_TRUE(Spec.isKey(SrcDst));
  EXPECT_FALSE(Spec.isKey(Spec.cols({"src"})));
  EXPECT_TRUE(Spec.isKey(Spec.allColumns()));

  auto Keys = Spec.minimalKeys();
  ASSERT_EQ(Keys.size(), 1u);
  EXPECT_EQ(Keys[0], SrcDst);
}

TEST(RelationSpec, ClosureFixpoint) {
  // a -> b, b -> c: closure({a}) = {a,b,c}.
  RelationSpec Spec({"a", "b", "c"}, {{{"a"}, {"b"}}, {{"b"}, {"c"}}});
  EXPECT_EQ(Spec.closure(Spec.cols({"a"})), Spec.allColumns());
  EXPECT_EQ(Spec.closure(Spec.cols({"b"})), Spec.cols({"b", "c"}));
  EXPECT_EQ(Spec.closure(Spec.cols({"c"})), Spec.cols({"c"}));
}

TEST(RelationSpec, MultipleMinimalKeys) {
  // a -> b and b -> a: both {a,?} ... here {a,c} and {b,c} are keys.
  RelationSpec Spec({"a", "b", "c"}, {{{"a"}, {"b"}}, {{"b"}, {"a"}}});
  auto Keys = Spec.minimalKeys();
  EXPECT_EQ(Keys.size(), 2u);
}

// ----------------------------------------------------------- RefRelation

TEST(RefRelation, InsertSemantics) {
  RelationSpec Spec = makeGraphSpec();
  RefRelation R(Spec);
  Tuple Key = Tuple::of({{Spec.col("src"), Value::ofInt(1)},
                         {Spec.col("dst"), Value::ofInt(2)}});
  EXPECT_TRUE(R.insert(Key, Tuple::of({{Spec.col("weight"),
                                        Value::ofInt(42)}})));
  // §2: the second insert with the same key is a no-op even with a
  // different weight — this is how clients enforce the FD.
  EXPECT_FALSE(R.insert(Key, Tuple::of({{Spec.col("weight"),
                                         Value::ofInt(101)}})));
  EXPECT_EQ(R.size(), 1u);
  EXPECT_TRUE(R.satisfiesFds());
  auto Q = R.query(Key, Spec.cols({"weight"}));
  ASSERT_EQ(Q.size(), 1u);
  EXPECT_EQ(Q[0].get(Spec.col("weight")).asInt(), 42);
}

TEST(RefRelation, RemoveMatchesAllExtending) {
  RelationSpec Spec = makeGraphSpec();
  RefRelation R(Spec);
  auto Ins = [&](int64_t S, int64_t D, int64_t W) {
    R.insert(Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                        {Spec.col("dst"), Value::ofInt(D)}}),
             Tuple::of({{Spec.col("weight"), Value::ofInt(W)}}));
  };
  Ins(1, 2, 10);
  Ins(1, 3, 11);
  Ins(2, 3, 12);
  // remove r s with non-key s removes every matching tuple (the oracle
  // implements the general §2 semantics).
  EXPECT_EQ(R.remove(Tuple::of({{Spec.col("src"), Value::ofInt(1)}})), 2u);
  EXPECT_EQ(R.size(), 1u);
}

TEST(RefRelation, QueryProjectsAndDedups) {
  RelationSpec Spec = makeGraphSpec();
  RefRelation R(Spec);
  auto Ins = [&](int64_t S, int64_t D, int64_t W) {
    R.insert(Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                        {Spec.col("dst"), Value::ofInt(D)}}),
             Tuple::of({{Spec.col("weight"), Value::ofInt(W)}}));
  };
  Ins(1, 2, 7);
  Ins(1, 3, 7);
  // Projecting both tuples onto {weight} collapses to one row.
  auto Q = R.query(Tuple::of({{Spec.col("src"), Value::ofInt(1)}}),
                   Spec.cols({"weight"}));
  ASSERT_EQ(Q.size(), 1u);
  EXPECT_EQ(Q[0].get(Spec.col("weight")).asInt(), 7);
}

TEST(RefRelation, FdViolationDetection) {
  RelationSpec Spec = makeGraphSpec();
  RefRelation R(Spec);
  // Bypass the put-if-absent guard by inserting with full-key s; the
  // relation then holds two tuples sharing (src, dst) — an FD violation
  // the checker must flag.
  Tuple K1 = Tuple::of({{Spec.col("src"), Value::ofInt(1)},
                        {Spec.col("dst"), Value::ofInt(2)},
                        {Spec.col("weight"), Value::ofInt(10)}});
  Tuple K2 = Tuple::of({{Spec.col("src"), Value::ofInt(1)},
                        {Spec.col("dst"), Value::ofInt(2)},
                        {Spec.col("weight"), Value::ofInt(11)}});
  EXPECT_TRUE(R.insert(K1, Tuple()));
  EXPECT_TRUE(R.insert(K2, Tuple()));
  EXPECT_FALSE(R.satisfiesFds());
}

} // namespace
