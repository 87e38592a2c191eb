#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"

namespace qadist::simnet {

/// Discrete-event simulation kernel: a clock plus a time-ordered queue of
/// callbacks. All higher-level primitives (processes, resources, links)
/// reduce to `schedule()` calls against this kernel.
///
/// Determinism: events at equal timestamps fire in scheduling order (a
/// monotone sequence number breaks ties), so simulations are exactly
/// reproducible for a fixed seed.
///
/// Threading: a Simulation is single-threaded by design — the simulated
/// cluster's concurrency is virtual. Never touch one from two host threads.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `fn` to run at `now() + delay`. Negative delays are clamped
  /// to zero (events never fire in the past); a NaN delay panics — NaN
  /// compares false against everything, so admitting one would silently
  /// corrupt the event-heap ordering.
  void schedule(Seconds delay, std::function<void()> fn);

  /// Schedules `fn` at an absolute simulated time (>= now()).
  void schedule_at(Seconds when, std::function<void()> fn);

  /// Runs until the event queue drains. Returns the final clock value.
  Seconds run();

  /// Runs until the queue drains or the clock would pass `deadline`;
  /// the clock is left at min(deadline, last event time).
  Seconds run_until(Seconds deadline);

  /// Executes at most one event. Returns false if the queue was empty.
  bool step();

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  /// Heap key (24 bytes): the callback stays put in `slots_` while the key
  /// moves through the heap's sifts.
  struct Key {
    Seconds when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Key> heap_;  // binary min-heap on (when, seq)
  std::vector<std::function<void()>> slots_;
  std::vector<std::uint32_t> free_slots_;  // indices of empty slots_
};

}  // namespace qadist::simnet
