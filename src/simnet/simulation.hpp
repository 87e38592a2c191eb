#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/units.hpp"

namespace qadist::simnet {

/// Handle to a scheduled event, returned by Simulation::schedule(_at) and
/// accepted by cancel() and retime(). It stays valid across retime(); once
/// the event has fired or been cancelled the id is stale and every call
/// with it returns false. A default-constructed id is stale.
struct EventId {
  std::uint64_t ticket = std::numeric_limits<std::uint64_t>::max();
  std::uint32_t slot = 0;
};

/// Discrete-event simulation kernel: a clock plus a time-ordered queue of
/// callbacks. All higher-level primitives (processes, resources, links)
/// reduce to `schedule()` calls against this kernel.
///
/// Determinism: events fire in (time, sequence number) order, where every
/// schedule() and every retime() draws the next number of one monotone
/// sequence; so events at equal timestamps fire in scheduling order and
/// simulations are exactly reproducible for a fixed seed. A cancelled event
/// never fires and leaves the order of all others unchanged.
///
/// Queue: an indexed binary heap on (time, sequence) — each slot knows its
/// heap position, so cancel() and retime() work in place — plus a FIFO
/// lane for events scheduled at now(), which every zero-delay resume hits;
/// step() merges the lane's front with the heap's top by the same key.
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
  EventId schedule(Seconds delay, std::function<void()> fn);

  /// Schedules `fn` at an absolute simulated time (>= now()).
  EventId schedule_at(Seconds when, std::function<void()> fn);

  /// Withdraws a pending event: it will not fire. Returns false (and does
  /// nothing) when `id` is stale — its event already fired or was
  /// cancelled.
  bool cancel(EventId id);

  /// Moves a pending event to `now() + delay` (clamped and NaN-checked like
  /// schedule()) and gives it a fresh sequence number, so it orders among
  /// equal-time events exactly as a newly scheduled event would. `id`
  /// stays valid. Returns false (and does nothing) when `id` is stale.
  bool retime(EventId id, Seconds delay);

  /// Runs until no event is pending. Returns the final clock value: the
  /// time of the last event executed (cancelled events never move it).
  Seconds run();

  /// Runs until no event is pending or the clock would pass `deadline`;
  /// the clock is left at max(deadline, time of the last event executed).
  Seconds run_until(Seconds deadline);

  /// Executes at most one event. Returns false if none was pending.
  bool step();

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Events scheduled and not yet fired or cancelled.
  [[nodiscard]] std::size_t pending_events() const { return live_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  /// Heap key (24 bytes): the callback stays put in `fns_` while the key
  /// moves through the heap's sifts.
  struct Key {
    Seconds when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);
  static bool before(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Where a slot's event waits. `ticket` is the sequence number the event
  /// was scheduled with (its EventId's ticket, kept across retime()).
  struct Slot {
    std::uint64_t ticket;
    std::uint32_t pos;  // heap index, kInLane or kFree
  };
  static constexpr std::uint32_t kFree = 0xffffffffu;
  static constexpr std::uint32_t kInLane = 0xfffffffeu;

  /// A FIFO-lane entry; it is live only while its slot still holds the
  /// event it was pushed for (`slot.pos == kInLane`, `slot.ticket == seq`).
  /// Cancelled and retimed events leave their entry behind as a tombstone.
  struct LaneEntry {
    std::uint64_t seq;
    std::uint32_t slot;
  };

  [[nodiscard]] bool is_pending(EventId id) const;
  bool lane_ready();  // drops tombstones at the lane's front
  void release(std::uint32_t slot);
  void sift_up(std::size_t i, Key key);
  void fill_hole(std::size_t i, Key key);  // re-heaps with `key` at hole i
  void remove_from_heap(std::size_t i);

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Key> heap_;  // binary min-heap on (when, seq)
  std::vector<LaneEntry> lane_;  // events scheduled at now(), in seq order
  std::size_t lane_head_ = 0;
  std::vector<std::function<void()>> fns_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  // indices of empty slots
};

}  // namespace qadist::simnet
