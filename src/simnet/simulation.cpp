#include "simnet/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.hpp"

namespace qadist::simnet {

void Simulation::schedule(Seconds delay, std::function<void()> fn) {
  QADIST_CHECK(!std::isnan(delay),
               << "NaN delay would corrupt the event-queue ordering");
  if (delay < 0.0) delay = 0.0;
  schedule_at(now_ + delay, std::move(fn));
}

void Simulation::schedule_at(Seconds when, std::function<void()> fn) {
  QADIST_CHECK(fn != nullptr);
  QADIST_CHECK(!std::isnan(when),
               << "NaN timestamp would corrupt the event-queue ordering");
  if (when < now_) when = now_;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    QADIST_CHECK(slots_.size() < UINT32_MAX, << "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Key{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulation::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key top = heap_.back();
  heap_.pop_back();
  QADIST_CHECK(top.when >= now_,
               << "time went backwards: " << top.when << " < " << now_);
  // Move the callback out and free its slot before invoking it: the
  // callback may schedule into that very slot.
  std::function<void()> fn = std::move(slots_[top.slot]);
  free_slots_.push_back(top.slot);
  now_ = top.when;
  ++executed_;
  fn();
  return true;
}

Seconds Simulation::run() {
  while (step()) {
  }
  return now_;
}

Seconds Simulation::run_until(Seconds deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace qadist::simnet
