//===- tests/container_property_test.cpp - Kind-parameterized sweeps ----------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// Property sweeps over every container kind through the type-erased
/// AnyContainer interface the runtime uses: map semantics against a
/// model, scan ordering promised by the traits, idempotence properties,
/// and churn behaviour. One parameterized suite, instantiated per kind.
/// Operations run inside epoch guards, the concurrent kinds' contract.
///
//===----------------------------------------------------------------------===//

#include "runtime/AnyContainer.h"
#include "runtime/NodeInstance.h"
#include "support/Rng.h"
#include "sync/Epoch.h"

#include <gtest/gtest.h>

#include <map>

using namespace crs;

namespace {

/// Map container kinds (everything except the single-entry cell).
const ContainerKind MapKinds[] = {
    ContainerKind::HashMap,
    ContainerKind::TreeMap,
    ContainerKind::ConcurrentHashMap,
    ContainerKind::ConcurrentSkipListMap,
    ContainerKind::CowArrayMap,
};

/// A one-column container key.
struct keyOf {
  Value V;
  explicit keyOf(int64_t K) : V(Value::ofInt(K)) {}
  operator const Value *() const { return &V; }
};

/// An instance with no key, containers or locks: a container value.
NodeRef makeValue() {
  return NodeInstance::create(InstanceLayout::get(0, {}, 0), nullptr);
}

class ContainerProperty : public ::testing::TestWithParam<ContainerKind> {};

TEST_P(ContainerProperty, AgreesWithModelUnderRandomOps) {
  std::unique_ptr<AnyContainer> C = AnyContainer::create(GetParam(), 1);
  std::map<int64_t, NodeInstance *> Model;
  std::map<int64_t, NodeRef> Owned;
  Xoshiro256 Rng(0xC0FFEE ^ static_cast<uint64_t>(GetParam()));

  for (int Step = 0; Step < 2500; ++Step) {
    EpochDomain::Guard G;
    int64_t K = static_cast<int64_t>(Rng.nextBounded(48));
    switch (Rng.nextBounded(4)) {
    case 0: {
      NodeRef V = makeValue();
      bool A = C->insertOrAssign(keyOf(K), V.get());
      bool B = Model.emplace(K, V.get()).second;
      if (!B)
        Model[K] = V.get();
      Owned[K] = V;
      ASSERT_EQ(A, B) << "insert step " << Step;
      break;
    }
    case 1: {
      ASSERT_EQ(C->erase(keyOf(K)), Model.erase(K) > 0)
          << "erase step " << Step;
      break;
    }
    case 2: {
      NodeInstance *Out = C->lookup(keyOf(K));
      auto It = Model.find(K);
      ASSERT_EQ(Out != nullptr, It != Model.end()) << "lookup step " << Step;
      if (Out)
        ASSERT_EQ(Out, It->second);
      break;
    }
    default: {
      std::map<int64_t, const NodeInstance *> Seen;
      C->scan([&](const Value *Key, NodeInstance *Val) {
        Seen.emplace(Key[0].asInt(), Val);
        return true;
      });
      ASSERT_EQ(Seen.size(), Model.size()) << "scan step " << Step;
      for (auto &[MK, MV] : Model)
        ASSERT_EQ(Seen.at(MK), MV);
      break;
    }
    }
    ASSERT_EQ(C->size(), Model.size());
  }
}

TEST_P(ContainerProperty, ScanOrderMatchesTraits) {
  std::unique_ptr<AnyContainer> C = AnyContainer::create(GetParam(), 1);
  EpochDomain::Guard G;
  Xoshiro256 Rng(77);
  NodeRef V = makeValue();
  for (int I = 0; I < 300; ++I)
    C->insertOrAssign(keyOf(static_cast<int64_t>(Rng.nextBounded(100000))),
                      V.get());
  bool Sorted = true;
  int64_t Prev = INT64_MIN;
  size_t Seen = 0;
  C->scan([&](const Value *Key, NodeInstance *) {
    int64_t K = Key[0].asInt();
    if (K <= Prev)
      Sorted = false;
    Prev = K;
    ++Seen;
    return true;
  });
  EXPECT_EQ(Seen, C->size());
  if (containerTraits(GetParam()).SortedScan)
    EXPECT_TRUE(Sorted) << containerKindName(GetParam());
}

TEST_P(ContainerProperty, EraseToEmptyAndReuse) {
  std::unique_ptr<AnyContainer> C = AnyContainer::create(GetParam(), 1);
  EpochDomain::Guard G;
  NodeRef V = makeValue();
  for (int Round = 0; Round < 5; ++Round) {
    for (int64_t K = 0; K < 64; ++K)
      ASSERT_TRUE(C->insertOrAssign(keyOf(K), V.get()));
    ASSERT_EQ(C->size(), 64u);
    for (int64_t K = 63; K >= 0; --K)
      ASSERT_TRUE(C->erase(keyOf(K)));
    ASSERT_EQ(C->size(), 0u);
    ASSERT_EQ(C->lookup(keyOf(0)), nullptr);
  }
}

TEST_P(ContainerProperty, ValuesKeepOwnersAlive) {
  // The runtime relies on entries owning a reference: an instance
  // reachable through an entry must not die. Once erased, the reference
  // drops within a grace period (the concurrent kinds retire the entry
  // through the epoch domain; the others free it at once).
  std::unique_ptr<AnyContainer> C = AnyContainer::create(GetParam(), 1);
  NodeRef V = makeValue();
  {
    EpochDomain::Guard G;
    C->insertOrAssign(keyOf(7), V.get());
  }
  EXPECT_EQ(V->refs(), 2u);
  {
    EpochDomain::Guard G;
    C->erase(keyOf(7));
  }
  EpochDomain::global().synchronize();
  EXPECT_EQ(V->refs(), 1u);
}

TEST_P(ContainerProperty, EarlyStopVisitsPrefixOnly) {
  std::unique_ptr<AnyContainer> C = AnyContainer::create(GetParam(), 1);
  EpochDomain::Guard G;
  NodeRef V = makeValue();
  for (int64_t K = 0; K < 100; ++K)
    C->insertOrAssign(keyOf(K), V.get());
  int Visits = 0;
  C->scan([&](const Value *, NodeInstance *) { return ++Visits < 7; });
  EXPECT_EQ(Visits, 7);
}

INSTANTIATE_TEST_SUITE_P(
    AllMapKinds, ContainerProperty, ::testing::ValuesIn(MapKinds),
    [](const ::testing::TestParamInfo<ContainerKind> &Info) {
      return containerKindName(Info.param);
    });

} // namespace
