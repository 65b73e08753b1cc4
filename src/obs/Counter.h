//===- obs/Counter.h - Striped event counter --------------------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one event-counter type of the runtime: perfbook's statistical
/// counter (ch. 5, "Counting"). A single shared atomic turns every
/// counted event into an RMW on one line bouncing between all cores;
/// here each thread hashes to one of a fixed set of line-padded stripes
/// (round-robin assignment at first use, so up to NumStripes threads
/// never collide at all) and readers sum the stripes. Relation op
/// counts, lock traffic, abort causes, plan-cache hits, restarts and
/// MVCC install/retire tallies all count here; the registry
/// (obs/Metrics.h) owns counters of its own type too, and exports the
/// subsystems' through snapshot-time callbacks.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_OBS_COUNTER_H
#define CRS_OBS_COUNTER_H

#include <atomic>
#include <cstdint>

namespace crs {
namespace obs {

/// A cache-line-striped relaxed counter. Monotonic: readers diff
/// successive loads, and exactness at an instant is not part of the
/// contract (the stripes are summed one by one).
class Counter {
public:
  void inc(uint64_t N = 1) {
    Stripes[threadStripe()].N.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t load() const {
    uint64_t Sum = 0;
    for (const Stripe &S : Stripes)
      Sum += S.N.load(std::memory_order_relaxed);
    return Sum;
  }

private:
  static constexpr unsigned NumStripes = 16;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> N{0};
  };
  static unsigned threadStripe() {
    static std::atomic<unsigned> Next{0};
    static thread_local const unsigned Mine =
        Next.fetch_add(1, std::memory_order_relaxed) % NumStripes;
    return Mine;
  }
  Stripe Stripes[NumStripes];
};

} // namespace obs
} // namespace crs

#endif // CRS_OBS_COUNTER_H
