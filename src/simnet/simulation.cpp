#include "simnet/simulation.hpp"

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.hpp"

namespace qadist::simnet {

// The queue's hot helpers come first and are declared inline, so that
// schedule_at() and step() inline them; the sifts work on raw pointers.

inline void Simulation::release(std::uint32_t slot) {
  slots_[slot].pos = kFree;
  free_slots_.push_back(slot);
  --live_;
}

inline void Simulation::sift_up(std::size_t i, const Key key) {
  Key* const heap = heap_.data();
  Slot* const slots = slots_.data();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(key, heap[parent])) break;
    heap[i] = heap[parent];
    slots[heap[i].slot].pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap[i] = key;
  slots[key.slot].pos = static_cast<std::uint32_t>(i);
}

inline void Simulation::fill_hole(std::size_t i, const Key key) {
  // Floyd's method, as std::pop_heap does it: walk the hole down to a leaf
  // along the smaller children (one comparison per level), then sift `key`
  // up from there. Valid for a hole anywhere: when `key` belongs above `i`,
  // the sift carries it past `i`.
  Key* const heap = heap_.data();
  Slot* const slots = slots_.data();
  const std::size_t n = heap_.size();
  std::size_t child = 2 * i + 1;
  while (child + 1 < n) {
    if (before(heap[child + 1], heap[child])) ++child;
    heap[i] = heap[child];
    slots[heap[i].slot].pos = static_cast<std::uint32_t>(i);
    i = child;
    child = 2 * i + 1;
  }
  if (child < n) {
    heap[i] = heap[child];
    slots[heap[i].slot].pos = static_cast<std::uint32_t>(i);
    i = child;
  }
  sift_up(i, key);
}

inline void Simulation::remove_from_heap(std::size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) fill_hole(i, last);
}

inline bool Simulation::lane_ready() {
  while (lane_head_ < lane_.size()) {
    const LaneEntry& e = lane_[lane_head_];
    const Slot& s = slots_[e.slot];
    if (s.pos == kInLane && s.ticket == e.seq) return true;
    ++lane_head_;
  }
  if (lane_head_ > 0) {
    lane_.clear();
    lane_head_ = 0;
  }
  return false;
}

EventId Simulation::schedule(Seconds delay, std::function<void()> fn) {
  QADIST_CHECK(!std::isnan(delay),
               << "NaN delay would corrupt the event-queue ordering");
  if (delay < 0.0) delay = 0.0;
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulation::schedule_at(Seconds when, std::function<void()> fn) {
  QADIST_CHECK(fn != nullptr);
  QADIST_CHECK(!std::isnan(when),
               << "NaN timestamp would corrupt the event-queue ordering");
  if (when < now_) when = now_;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    QADIST_CHECK(slots_.size() < kInLane, << "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    fns_.push_back(std::move(fn));
    slots_.push_back(Slot{0, kFree});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    fns_[slot] = std::move(fn);
  }
  const std::uint64_t seq = next_seq_++;
  slots_[slot].ticket = seq;
  if (when == now_) {
    slots_[slot].pos = kInLane;
    lane_.push_back(LaneEntry{seq, slot});
  } else {
    const Key key{when, seq, slot};
    heap_.push_back(key);
    sift_up(heap_.size() - 1, key);
  }
  ++live_;
  return EventId{seq, slot};
}

bool Simulation::is_pending(EventId id) const {
  return id.slot < slots_.size() && slots_[id.slot].pos != kFree &&
         slots_[id.slot].ticket == id.ticket;
}

bool Simulation::cancel(EventId id) {
  if (!is_pending(id)) return false;
  const std::uint32_t pos = slots_[id.slot].pos;
  if (pos != kInLane) remove_from_heap(pos);
  fns_[id.slot] = nullptr;  // drop the captures now
  release(id.slot);
  return true;
}

bool Simulation::retime(EventId id, Seconds delay) {
  QADIST_CHECK(!std::isnan(delay),
               << "NaN delay would corrupt the event-queue ordering");
  if (!is_pending(id)) return false;
  if (delay < 0.0) delay = 0.0;
  const Key key{now_ + delay, next_seq_++, id.slot};
  const std::uint32_t pos = slots_[id.slot].pos;
  if (pos == kInLane) {
    // The lane entry becomes a tombstone; the heap orders the event by
    // its new key, equal-time lane entries included.
    heap_.push_back(key);
    sift_up(heap_.size() - 1, key);
  } else {
    fill_hole(pos, key);
  }
  return true;
}

bool Simulation::step() {
  const bool lane = lane_ready();
  if (!lane && heap_.empty()) return false;
  std::uint32_t slot = 0;
  // Lane events are due at now(); a heap event due at now() that was
  // scheduled earlier (smaller seq) still goes first.
  if (lane && (heap_.empty() ||
               !before(heap_.front(), Key{now_, lane_[lane_head_].seq, 0}))) {
    slot = lane_[lane_head_++].slot;
  } else {
    const Key top = heap_.front();
    QADIST_CHECK(top.when >= now_,
                 << "time went backwards: " << top.when << " < " << now_);
    remove_from_heap(0);
    now_ = top.when;
    slot = top.slot;
  }
  // Move the callback out and free its slot before invoking it: the
  // callback may schedule into that very slot.
  std::function<void()> fn = std::move(fns_[slot]);
  release(slot);
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
  // A live lane entry is due at now(); otherwise the heap's top is next.
  while (lane_ready() ? now_ <= deadline
                      : !heap_.empty() && heap_.front().when <= deadline) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace qadist::simnet
