#include "simnet/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace qadist::simnet {
namespace {

TEST(SimulationTest, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(SimulationTest, EqualTimesFireInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.schedule(1.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule(5.0, [&] {
    sim.schedule(-3.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 5.0);
}

TEST(SimulationTest, NanDelayPanics) {
  // A NaN delay would silently corrupt the event-queue ordering (every
  // comparison against it is false), so it must die loudly instead.
  Simulation sim;
  EXPECT_DEATH(sim.schedule(std::nan(""), [] {}), "NaN delay");
  EXPECT_DEATH(sim.schedule_at(std::nan(""), [] {}), "NaN");
}

TEST(SimulationTest, RunUntilStopsEarly) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, RunUntilAdvancesClockWhenIdle) {
  Simulation sim;
  sim.run_until(42.0);
  EXPECT_EQ(sim.now(), 42.0);
}

TEST(SimulationTest, StepExecutesExactlyOne) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulationTest, ScheduleAtAbsoluteTime) {
  Simulation sim;
  double t = -1;
  sim.schedule_at(7.5, [&] { t = sim.now(); });
  sim.run();
  EXPECT_EQ(t, 7.5);
}

// Oracle for the randomized ordering test below: a std::priority_queue
// ordered by (when, seq), the order the simulator promises. Every schedule
// and every retime pushes an entry with the next seq; `live_` maps each
// pending id to its current seq, so a cancelled or retimed event leaves
// its old entry behind as a tombstone that never fires.
class ReferenceQueue {
 public:
  void schedule(double delay, std::uint64_t id) { live_[id] = push(delay, id); }
  bool cancel(std::uint64_t id) { return live_.erase(id) > 0; }
  bool retime(std::uint64_t id, double delay) {
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    it->second = push(delay, id);
    return true;
  }
  // Fires every event due by `deadline`; `fire` may schedule more.
  void run_until(double deadline,
                 const std::function<void(std::uint64_t)>& fire) {
    drain(deadline, fire);
    if (now_ < deadline) now_ = deadline;
  }
  void run(const std::function<void(std::uint64_t)>& fire) {
    drain(std::numeric_limits<double>::infinity(), fire);
  }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return live_.size(); }

 private:
  using Entry = std::tuple<double, std::uint64_t, std::uint64_t>;
  std::uint64_t push(double delay, std::uint64_t id) {
    if (delay < 0.0) delay = 0.0;
    queue_.push({now_ + delay, seq_, id});
    return seq_++;
  }
  void drain(double deadline, const std::function<void(std::uint64_t)>& fire) {
    while (!queue_.empty() && std::get<0>(queue_.top()) <= deadline) {
      const auto [when, seq, id] = queue_.top();
      queue_.pop();
      const auto it = live_.find(id);
      if (it == live_.end() || it->second != seq) continue;  // tombstone
      live_.erase(it);
      now_ = when;
      fire(id);
    }
  }

  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_map<std::uint64_t, std::uint64_t> live_;
};

// What a firing event does, in order: schedule a child, or cancel or
// retime one of the most recently scheduled events (`back` counts back
// from the newest id, which may be the firing event itself or one that
// already fired). Delays sit on a coarse grid, so equal timestamps are
// common, and a negative delay clamps to now. A cancel followed by a
// schedule reuses the cancelled event's slot. The mean number of children
// is below one, so every run drains.
struct Op {
  enum Kind { kSchedule, kCancel, kRetime } kind;
  double delay;
  std::uint64_t back;
};

double grid_delay(Rng& rng) {
  return 0.5 * static_cast<double>(rng.below(5)) - 0.5;
}

std::vector<Op> script_of(std::uint64_t id) {
  Rng rng(0x51ed2701ULL ^ (id * 0x9e3779b97f4a7c15ULL));
  std::vector<Op> ops;
  const std::size_t n = rng.below(100) < 40 ? 0 : 1 + rng.below(3);
  for (std::size_t i = 0; i < n; ++i) {
    const auto roll = rng.below(100);
    if (roll < 50) {
      ops.push_back({Op::kSchedule, grid_delay(rng), 0});
    } else if (roll < 78) {
      ops.push_back({Op::kCancel, 0.0, rng.below(6)});
    } else {
      const double delay = grid_delay(rng);
      ops.push_back({Op::kRetime, delay, rng.below(6)});
    }
  }
  return ops;
}

TEST(SimulationTest, RandomScheduleFiresInReferenceOrder) {
  Simulation sim;
  ReferenceQueue ref;
  // Ids are handed out in scheduling order on each side, so they agree
  // for as long as the two firing orders do; `handles[id]` is the sim's
  // EventId for id.
  std::vector<EventId> handles;
  std::uint64_t ref_ids = 0;
  std::vector<std::pair<std::uint64_t, double>> fired;
  std::vector<std::pair<std::uint64_t, double>> ref_fired;
  // Every cancel/retime answer, in call order.
  std::vector<bool> answers;
  std::vector<bool> ref_answers;

  std::function<void(std::uint64_t)> fire_sim;
  const auto schedule_sim = [&](double delay) {
    const std::uint64_t id = handles.size();
    handles.push_back(sim.schedule(delay, [&, id] { fire_sim(id); }));
  };
  const auto apply_sim = [&](const Op& op) {
    if (op.kind == Op::kSchedule) return schedule_sim(op.delay);
    if (op.back >= handles.size()) return;
    const EventId target = handles[handles.size() - 1 - op.back];
    answers.push_back(op.kind == Op::kCancel ? sim.cancel(target)
                                             : sim.retime(target, op.delay));
  };
  fire_sim = [&](std::uint64_t id) {
    fired.emplace_back(id, sim.now());
    for (const Op& op : script_of(id)) apply_sim(op);
  };
  const auto apply_ref = [&](const Op& op) {
    if (op.kind == Op::kSchedule) return ref.schedule(op.delay, ref_ids++);
    if (op.back >= ref_ids) return;
    const std::uint64_t target = ref_ids - 1 - op.back;
    ref_answers.push_back(op.kind == Op::kCancel
                              ? ref.cancel(target)
                              : ref.retime(target, op.delay));
  };
  const std::function<void(std::uint64_t)> fire_ref =
      [&](std::uint64_t id) {
        ref_fired.emplace_back(id, ref.now());
        for (const Op& op : script_of(id)) apply_ref(op);
      };

  Rng rng(5);
  double cut = 0.0;
  for (int round = 0; round < 100; ++round) {
    // Roots with a delay <= 0 wait in the FIFO lane until the next run.
    const auto roots = rng.below(40);
    for (std::uint64_t i = 0; i < roots; ++i) {
      const Op op{Op::kSchedule,
                  0.5 * static_cast<double>(rng.below(8)) - 1.0, 0};
      apply_sim(op);
      apply_ref(op);
    }
    // Cancels and retimes from outside any event, against ids of any
    // age: pending ones, and ones that already fired or were cancelled.
    const auto pokes = rng.below(12);
    for (std::uint64_t i = 0; i < pokes; ++i) {
      const Op op{rng.below(2) == 0 ? Op::kCancel : Op::kRetime,
                  grid_delay(rng), rng.below(ref_ids + 1)};
      apply_sim(op);
      apply_ref(op);
    }
    // Cut-offs on the same grid; a zero step repeats the previous one.
    cut += 0.5 * static_cast<double>(rng.below(6));
    sim.run_until(cut);
    ref.run_until(cut, fire_ref);
    ASSERT_EQ(fired, ref_fired) << "round " << round;
    ASSERT_EQ(answers, ref_answers) << "round " << round;
    ASSERT_EQ(sim.now(), ref.now());
    ASSERT_EQ(sim.pending_events(), ref.pending());
  }
  sim.run();
  ref.run(fire_ref);
  EXPECT_EQ(fired, ref_fired);
  EXPECT_EQ(answers, ref_answers);
  EXPECT_EQ(sim.now(), ref.now());
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(ref.pending(), 0u);
  EXPECT_EQ(sim.executed_events(), fired.size());
  EXPECT_GT(fired.size(), 2000u);
  // Both answers occur, so stale ids were exercised as well as live ones.
  EXPECT_GT(std::count(answers.begin(), answers.end(), true), 200);
  EXPECT_GT(std::count(answers.begin(), answers.end(), false), 200);
}

TEST(SimulationTest, StaleIdsAreRejected) {
  Simulation sim;
  int fired = 0;
  const EventId done = sim.schedule(0.0, [&] { ++fired; });
  const EventId dropped = sim.schedule(1.0, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(dropped));
  EXPECT_FALSE(sim.cancel(dropped));
  EXPECT_FALSE(sim.retime(dropped, 2.0));
  EXPECT_FALSE(sim.cancel(EventId{}));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(done));
  EXPECT_FALSE(sim.retime(done, 1.0));
  // A new event reuses a freed slot; neither old id reaches it.
  const EventId reused = sim.schedule(1.0, [&] { ++fired; });
  EXPECT_TRUE(reused.slot == done.slot || reused.slot == dropped.slot);
  EXPECT_FALSE(sim.cancel(done));
  EXPECT_FALSE(sim.cancel(dropped));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DEATH(sim.retime(reused, std::nan("")), "NaN delay");
}

}  // namespace
}  // namespace qadist::simnet
