//===- sync/Backoff.h - The one wait policy ----------------------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How a blocked thread waits, decided once: bounded spin, then
/// exponential backoff (perfbook ch. 7, livelock and starvation). The
/// protocol says when to retry; Backoff says how long to wait between
/// tries. Each pause() escalates one round: SpinRounds rounds of 1, 2,
/// 4, ... CPU pause hints, at most 32 a round so the waiter re-checks
/// about every microsecond (short waits end here, with no system call
/// and no clock read), then YieldRounds yields, then sleeps of 1, 2, 4,
/// ... microseconds capped at MaxSleepMicros, so an oversubscribed
/// waiter stops burning the CPU its holder needs. The constants are
/// fixed. A wait that gets past the spin phase records its duration,
/// from that point until the Backoff dies, in the global registry's
/// `sync.wait` histogram under its site's label.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_SYNC_BACKOFF_H
#define CRS_SYNC_BACKOFF_H

#include "obs/Metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <thread>

namespace crs {

/// The engine's wait loops; Backoff::record maps each to its label.
enum class WaitSite : uint8_t {
  GateEnter, GateDrain, QueryRestart, BackfillRestart, SkipListLink,
  LockWait, TxnOpRetry, TxnUndoShed, TxnRetry, CommitSlot, CommitDrain,
  EpochSync, NumSites
};

/// One wait loop's pacing: construct it before the loop, pause() once
/// per failed check.
class Backoff {
public:
  static constexpr unsigned SpinRounds = 32;
  static constexpr unsigned YieldRounds = 6;
  static constexpr unsigned MaxSleepMicros = 1000;

  explicit Backoff(WaitSite Site) : Site(Site) {}
  ~Backoff() {
    if (Start != 0)
      record(Site, obs::MetricsRegistry::nowNanos() - Start);
  }
  Backoff(const Backoff &) = delete;
  Backoff &operator=(const Backoff &) = delete;

  void pause() {
    unsigned R = Round;
    Round += Round < SleepFrom + SleepSteps; // saturates at the cap
    if (R < SpinRounds) {
      for (unsigned I = 0; I < (1u << std::min(R, 5u)); ++I)
        cpuRelax();
      return;
    }
    if (Start == 0)
      Start = obs::MetricsRegistry::nowNanos();
    if (unsigned Micros = sleepMicros(R))
      std::this_thread::sleep_for(std::chrono::microseconds(Micros));
    else
      std::this_thread::yield();
  }

  /// Round \p R's sleep in microseconds; 0 for spin and yield rounds.
  static constexpr unsigned sleepMicros(unsigned R) {
    return R < SleepFrom ? 0
                         : std::min(1u << std::min(R - SleepFrom, SleepSteps),
                                    MaxSleepMicros);
  }

private:
  static constexpr unsigned SleepFrom = SpinRounds + YieldRounds;
  static constexpr unsigned SleepSteps = 10; ///< 2^10 us is past the cap

  static void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  [[gnu::cold, gnu::noinline]] static void record(WaitSite S, uint64_t Ns) {
    static constexpr const char *Labels[] = {
        "gate_enter",    "gate_drain", "query_restart", "backfill_restart",
        "skiplist_link", "lock_wait",  "txn_op_retry",  "txn_undo_shed",
        "txn_retry",     "commit_slot", "commit_drain", "epoch_sync"};
    static_assert(std::size(Labels) == unsigned(WaitSite::NumSites));
    // Each site's histogram is looked up (under the registry mutex)
    // once, then cached: registration is never per wait.
    static std::atomic<obs::LatencyHistogram *> Hists[std::size(Labels)];
    std::atomic<obs::LatencyHistogram *> &Slot = Hists[unsigned(S)];
    obs::LatencyHistogram *H = Slot.load(std::memory_order_acquire);
    if (!H) {
      H = &obs::MetricsRegistry::global().histogram(
          "sync.wait", {{"site", Labels[unsigned(S)]}});
      Slot.store(H, std::memory_order_release);
    }
    H->record(Ns);
  }

  WaitSite Site;
  unsigned Round = 0;
  uint64_t Start = 0; ///< nowNanos() at the first pause past the spin phase
};

} // namespace crs

#endif // CRS_SYNC_BACKOFF_H
