//===- tests/sync_test.cpp - Synchronization substrate tests ------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "autotune/Autotuner.h"
#include "runtime/Migration.h"
#include "sync/Backoff.h"
#include "sync/LockSet.h"
#include "sync/PhysicalLock.h"
#include "txn/Transaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>

using namespace crs;

namespace {

// ----------------------------------------------------------- PhysicalLock

TEST(PhysicalLock, SharedHoldersCoexist) {
  PhysicalLock L;
  L.lock(LockMode::Shared);
  EXPECT_TRUE(L.tryLock(LockMode::Shared));
  EXPECT_FALSE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Shared);
  L.unlock(LockMode::Shared);
  EXPECT_TRUE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Exclusive);
}

TEST(PhysicalLock, ExclusiveExcludesAll) {
  PhysicalLock L;
  L.lock(LockMode::Exclusive);
  EXPECT_FALSE(L.tryLock(LockMode::Shared));
  EXPECT_FALSE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Exclusive);
}

// ---------------------------------------------------------------- LockSet

LockOrderKey key(uint32_t Topo, int64_t K, uint32_t Stripe) {
  // A lock order key views its instance's key; keep the values alive.
  thread_local std::deque<Value> Keys;
  Keys.push_back(Value::ofInt(K));
  return {Topo, {&Keys.back(), 1}, Stripe};
}

TEST(LockOrderKey, TotalOrder) {
  EXPECT_LT(key(0, 5, 3), key(1, 0, 0)); // node order first
  EXPECT_LT(key(1, 4, 9), key(1, 5, 0)); // then instance key
  EXPECT_LT(key(1, 5, 0), key(1, 5, 1)); // then stripe
  EXPECT_EQ(key(2, 7, 1).compare(key(2, 7, 1)), 0);
}

TEST(LockSet, DeduplicatesRepeatedAcquisition) {
  PhysicalLock L;
  LockCounters C;
  LockSet S;
  S.countInto(&C);
  S.acquire(L, key(0, 0, 0), LockMode::Exclusive);
  // Many logical locks can map to one physical lock under a coarse
  // placement; re-acquisition is a no-op.
  S.acquire(L, key(1, 0, 0), LockMode::Exclusive);
  EXPECT_EQ(S.heldCount(), 1u);
  EXPECT_TRUE(S.holds(L));
  EXPECT_EQ(C.Acquisitions.load(), 1u); // the re-request took nothing
  EXPECT_EQ(C.Contentions.load(), 0u);
  S.releaseAll();
  EXPECT_FALSE(S.holds(L));
  EXPECT_TRUE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Exclusive);
}

TEST(LockSet, CountsOneContendedAcquisition) {
  // Another holder keeps L exclusive while a set's blocking shared
  // acquisition arrives: its first try fails, so it counts one
  // contention and, once the holder lets go, one acquisition. Whether
  // the acquirer reached its try before the release is up to the
  // scheduler, so rounds repeat until one was contended; every round
  // counts exactly one acquisition either way.
  PhysicalLock L;
  LockCounters C;
  uint64_t Rounds = 0;
  while (C.Contentions.load() == 0 && Rounds < 100) {
    ++Rounds;
    L.lock(LockMode::Exclusive);
    std::thread T([&] {
      LockSet S;
      S.countInto(&C);
      S.acquire(L, key(0, 0, 0), LockMode::Shared);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    L.unlock(LockMode::Exclusive);
    T.join();
    EXPECT_EQ(C.Acquisitions.load(), Rounds);
  }
  EXPECT_EQ(C.Contentions.load(), 1u);
  // An uncontended blocking acquisition and a try count acquisitions only.
  LockSet S;
  S.countInto(&C);
  PhysicalLock M;
  S.acquire(L, key(0, 0, 0), LockMode::Exclusive);
  EXPECT_EQ(S.tryAcquire(M, key(0, 1, 0), LockMode::Shared),
            AcquireResult::Ok);
  S.releaseAll();
  EXPECT_EQ(C.Acquisitions.load(), Rounds + 2);
  EXPECT_EQ(C.Contentions.load(), 1u);
}

TEST(LockSet, HoldsAtLeastModes) {
  PhysicalLock A, B;
  LockSet S;
  S.acquire(A, key(0, 0, 0), LockMode::Shared);
  S.acquire(B, key(0, 1, 0), LockMode::Exclusive);
  EXPECT_TRUE(S.holdsAtLeast(A, LockMode::Shared));
  EXPECT_FALSE(S.holdsAtLeast(A, LockMode::Exclusive));
  EXPECT_TRUE(S.holdsAtLeast(B, LockMode::Shared));
  EXPECT_TRUE(S.holdsAtLeast(B, LockMode::Exclusive));
}

TEST(LockSet, TryAcquireWouldBlock) {
  PhysicalLock L;
  L.lock(LockMode::Exclusive); // someone else holds it
  LockSet S;
  EXPECT_EQ(S.tryAcquire(L, key(0, 0, 0), LockMode::Shared),
            AcquireResult::WouldBlock);
  EXPECT_EQ(S.heldCount(), 0u);
  L.unlock(LockMode::Exclusive);
  EXPECT_EQ(S.tryAcquire(L, key(0, 0, 0), LockMode::Shared),
            AcquireResult::Ok);
  S.releaseAll();
}

TEST(LockSet, InOrderTracking) {
  PhysicalLock A, B;
  LockSet S;
  EXPECT_TRUE(S.inOrder(key(0, 0, 0)));
  S.acquire(A, key(2, 0, 0), LockMode::Shared);
  EXPECT_FALSE(S.inOrder(key(1, 0, 0)));
  EXPECT_TRUE(S.inOrder(key(2, 0, 1)));
  // Out-of-order acquisitions must go through tryAcquire.
  EXPECT_EQ(S.tryAcquire(B, key(1, 0, 0), LockMode::Shared),
            AcquireResult::Ok);
  S.releaseAll();
  EXPECT_TRUE(S.inOrder(key(0, 0, 0))); // reset with the set
}

TEST(LockSet, ReleaseAllOnDestruction) {
  PhysicalLock L;
  {
    LockSet S;
    S.acquire(L, key(0, 0, 0), LockMode::Exclusive);
  }
  EXPECT_TRUE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Exclusive);
}

/// Waits up to \p Millis for \p Flag; returns it.
bool waitFor(const std::atomic<bool> &Flag, int Millis) {
  for (int I = 0; I < Millis && !Flag.load(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return Flag.load();
}

TEST(LockSet, InOrderWaitDiesBehindAnOlderScope) {
  // Wait-die on the in-order path: a scope never waits behind an older
  // one. The younger scope holds Low and wants High in order; the older
  // holds High. Blocked in the mutex, the younger could not be aborted,
  // while the older, spinning out of order on Low, could only die and
  // retake High — over and over, as the benchmark's transactional
  // workload showed. The younger must give up at once, naming the
  // older holder.
  PhysicalLock Low, High;
  std::atomic<bool> OlderHolds{false}, Returned{false};
  std::atomic<bool> ReleaseOlder{false}, ReleaseYounger{false};
  TxnAcquire Result = TxnAcquire::Ok;
  uint64_t Holder = 0;
  // Each scope keeps its lock set on one thread, as transactions do.
  std::thread Older([&] {
    LockSet S;
    S.setBirthStamp(1);
    EXPECT_EQ(S.acquireTxn(High, key(1, 0, 0), LockMode::Exclusive, true),
              TxnAcquire::Ok);
    OlderHolds = true;
    while (!ReleaseOlder.load())
      std::this_thread::yield();
  });
  ASSERT_TRUE(waitFor(OlderHolds, 5000));
  std::thread Younger([&] {
    LockSet S;
    S.setBirthStamp(2);
    EXPECT_EQ(S.acquireTxn(Low, key(0, 0, 0), LockMode::Exclusive, true),
              TxnAcquire::Ok);
    Result = S.acquireTxn(High, key(1, 0, 0), LockMode::Exclusive, true);
    Holder = S.takeLastConflictStamp();
    Returned = true;
    while (!ReleaseYounger.load())
      std::this_thread::yield();
  });
  bool ReturnedWhileHeld = waitFor(Returned, 5000);
  ReleaseOlder = true; // lets a blocked waiter through, so both join
  Older.join();
  ReleaseYounger = true;
  Younger.join();
  EXPECT_TRUE(ReturnedWhileHeld) << "the younger scope waited behind an "
                                    "older holder";
  EXPECT_EQ(Result, TxnAcquire::WouldBlock);
  EXPECT_EQ(Holder, 1u);
}

TEST(LockSet, InOrderWaitOutlastsAYoungerHolder) {
  // The other half of wait-die: an older scope waits its turn behind a
  // younger holder and gets the lock once it is released.
  PhysicalLock L;
  std::atomic<bool> YoungerHolds{false}, Returned{false};
  std::atomic<bool> ReleaseYounger{false};
  TxnAcquire Result = TxnAcquire::WouldBlock;
  std::thread Younger([&] {
    LockSet S;
    S.setBirthStamp(2);
    EXPECT_EQ(S.acquireTxn(L, key(0, 0, 0), LockMode::Exclusive, true),
              TxnAcquire::Ok);
    YoungerHolds = true;
    while (!ReleaseYounger.load())
      std::this_thread::yield();
  });
  ASSERT_TRUE(waitFor(YoungerHolds, 5000));
  std::thread Older([&] {
    LockSet S;
    S.setBirthStamp(1);
    Result = S.acquireTxn(L, key(0, 0, 0), LockMode::Exclusive, true);
    Returned = true;
  });
  EXPECT_FALSE(waitFor(Returned, 50)) << "returned while the lock was held";
  ReleaseYounger = true;
  Younger.join();
  Older.join();
  EXPECT_TRUE(Returned.load());
  EXPECT_EQ(Result, TxnAcquire::Ok);
}

// ---------------------------------------------------------------- Backoff

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

TEST(Backoff, EscalationIsBoundedByTheCap) {
  // The schedule: spin and yield rounds sleep nothing, then sleeps
  // double up to the cap and stay there, however long the wait.
  for (unsigned R = 0; R < Backoff::SpinRounds + Backoff::YieldRounds; ++R)
    EXPECT_EQ(Backoff::sleepMicros(R), 0u) << "round " << R;
  unsigned Prev = 0;
  for (unsigned R = Backoff::SpinRounds + Backoff::YieldRounds; R < 100000;
       ++R) {
    unsigned Us = Backoff::sleepMicros(R);
    EXPECT_GE(Us, Prev) << "round " << R;
    EXPECT_LE(Us, Backoff::MaxSleepMicros) << "round " << R;
    Prev = Us;
  }
  EXPECT_EQ(Prev, Backoff::MaxSleepMicros);
  // runTransaction keeps one Backoff across its attempts; over the
  // benchmark's 1000-attempt bound its nominal sleeps must span at
  // least the 0.44 s the previous linear schedule did, or a scope an
  // older holder keeps killing would stop outlasting the holder's stall.
  uint64_t SpanMicros = 0;
  for (unsigned R = 0; R < 1000; ++R)
    SpanMicros += Backoff::sleepMicros(R);
  EXPECT_GE(SpanMicros, 440000u);

  // And a live Backoff honors it: far past the point where uncapped
  // doubling would sleep for seconds, each pause still returns quickly.
  Backoff B(WaitSite::GateEnter);
  double Longest = 0;
  for (unsigned I = 0; I < 60; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    B.pause();
    Longest = std::max(Longest, secondsSince(T0));
  }
  EXPECT_LT(Longest, 0.25) << "a capped pause sleeps about 1 ms";
}

TEST(OpGate, TryEnterOnAClosedGateGivesUp) {
  OpGate G;
  {
    OpGate::Barrier Closed(G);
    auto T0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(G.tryEnter(50)); // through the spin, yield and sleep rounds
    EXPECT_LT(secondsSince(T0), 5.0);
  }
  // The failed entry left no count behind: the gate opens, and a
  // barrier can still drain it.
  EXPECT_TRUE(G.tryEnter(50));
  G.exit();
  OpGate::Barrier Again(G);
}

TEST(OpGate, EnterProceedsOnceTheBarrierIsReleased) {
  OpGate G;
  auto Closed = std::make_unique<OpGate::Barrier>(G);
  std::atomic<bool> Entered{false};
  std::thread Waiter([&] {
    G.enter();
    Entered = true;
    G.exit();
  });
  EXPECT_FALSE(waitFor(Entered, 50)) << "entered a closed gate";
  Closed.reset();
  EXPECT_TRUE(waitFor(Entered, 5000)) << "still waiting on an open gate";
  Waiter.join();
}

TEST(RunTransaction, MaxAttemptsRunsExactlyThatManyScopes) {
  // An older scope holds the only key; every scope the younger logical
  // transaction opens dies at once under wait-die (Conflict) and is
  // retried until the attempt bound.
  ConcurrentRelation R(makeGraphRepresentation(
      {GraphShape::Stick, PlacementSchemeKind::Coarse, 1,
       ContainerKind::HashMap, ContainerKind::TreeMap}));
  const RelationSpec &Spec = R.spec();
  ASSERT_TRUE(R.insert(Tuple::of({{Spec.col("src"), Value::ofInt(1)},
                                  {Spec.col("dst"), Value::ofInt(2)}}),
                       Tuple::of({{Spec.col("weight"), Value::ofInt(3)}})));
  PreparedQuery Exact =
      R.prepareQuery(Spec.cols({"src", "dst"}), Spec.cols({"weight"}));
  std::atomic<bool> Holding{false}, Release{false};
  std::thread Older([&] {
    Transaction T(R);
    EXPECT_TRUE(T.queryForUpdate(Exact, {Value::ofInt(1), Value::ofInt(2)}));
    Holding = true;
    while (!Release.load())
      std::this_thread::yield();
    EXPECT_TRUE(T.commit());
  });
  ASSERT_TRUE(waitFor(Holding, 5000));
  for (unsigned Max : {1u, 7u, 50u}) {
    unsigned Scopes = 0;
    bool Committed = runTransaction(
        R,
        [&](Transaction &T) {
          ++Scopes;
          EXPECT_FALSE(
              T.queryForUpdate(Exact, {Value::ofInt(1), Value::ofInt(2)}));
          EXPECT_EQ(T.abortCause(), TxnAbortCause::Conflict);
          return true; // died: runTransaction retries
        },
        Max);
    EXPECT_FALSE(Committed);
    EXPECT_EQ(Scopes, Max);
  }
  Release = true;
  Older.join();
}

} // namespace
