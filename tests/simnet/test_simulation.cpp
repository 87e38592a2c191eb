#include "simnet/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>
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
// ordered by (when, seq), the order the simulator promises.
class ReferenceQueue {
 public:
  void schedule(double delay, std::uint64_t id) {
    if (delay < 0.0) delay = 0.0;
    queue_.push({now_ + delay, seq_++, id});
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
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  using Entry = std::tuple<double, std::uint64_t, std::uint64_t>;
  void drain(double deadline, const std::function<void(std::uint64_t)>& fire) {
    while (!queue_.empty() && std::get<0>(queue_.top()) <= deadline) {
      const Entry top = queue_.top();
      queue_.pop();
      now_ = std::get<0>(top);
      fire(std::get<2>(top));
    }
  }

  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
};

// Event `id` schedules 0-2 children with delays on a coarse grid, so equal
// timestamps are common, and a negative delay clamps to now. The mean
// family size is below one, so every run drains.
std::vector<double> children_of(std::uint64_t id) {
  Rng rng(0x51ed2701ULL ^ (id * 0x9e3779b97f4a7c15ULL));
  std::size_t n = 0;
  if (rng.below(100) >= 45) n = rng.below(100) < 65 ? 1 : 2;
  std::vector<double> delays;
  for (std::size_t i = 0; i < n; ++i) {
    delays.push_back(0.5 * static_cast<double>(rng.below(5)) - 0.5);
  }
  return delays;
}

TEST(SimulationTest, RandomScheduleFiresInReferenceOrder) {
  Simulation sim;
  ReferenceQueue ref;
  // Ids are handed out in scheduling order on each side, so they agree
  // for as long as the two firing orders do.
  std::uint64_t sim_ids = 0;
  std::uint64_t ref_ids = 0;
  std::vector<std::pair<std::uint64_t, double>> fired;
  std::vector<std::pair<std::uint64_t, double>> ref_fired;

  std::function<void(double)> schedule_sim = [&](double delay) {
    const std::uint64_t id = sim_ids++;
    sim.schedule(delay, [&, id] {
      fired.emplace_back(id, sim.now());
      for (const double d : children_of(id)) schedule_sim(d);
    });
  };
  const std::function<void(std::uint64_t)> fire_ref =
      [&](std::uint64_t id) {
        ref_fired.emplace_back(id, ref.now());
        for (const double d : children_of(id)) ref.schedule(d, ref_ids++);
      };

  Rng rng(5);
  double cut = 0.0;
  for (int round = 0; round < 60; ++round) {
    const auto roots = rng.below(40);
    for (std::uint64_t i = 0; i < roots; ++i) {
      const double delay = 0.5 * static_cast<double>(rng.below(8)) - 1.0;
      schedule_sim(delay);
      ref.schedule(delay, ref_ids++);
    }
    // Cut-offs on the same grid; a zero step repeats the previous one.
    cut += 0.5 * static_cast<double>(rng.below(6));
    sim.run_until(cut);
    ref.run_until(cut, fire_ref);
    ASSERT_EQ(fired, ref_fired) << "round " << round;
    ASSERT_EQ(sim.now(), ref.now());
    ASSERT_EQ(sim.pending_events(), ref.pending());
  }
  sim.run();
  ref.run(fire_ref);
  EXPECT_EQ(fired, ref_fired);
  EXPECT_EQ(sim.now(), ref.now());
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed_events(), fired.size());
  EXPECT_GT(fired.size(), 2000u);
}

}  // namespace
}  // namespace qadist::simnet
