// GrayFaultPlan edge cases: overlapping windows have well-defined
// semantics (per-resource max across open windows, recovery when the last
// window closes), zero-length windows count but never degrade, and
// malformed plans (zero/negative/non-finite factors, negative onset, NaN
// recovery, unknown nodes) are rejected loudly at construction.

#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "simnet/simulation.hpp"
#include "support/test_world.hpp"
#include "workload/driver.hpp"

namespace qadist::cluster {
namespace {

using qadist::testing::test_world;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const std::vector<QuestionPlan>& plans() {
  static const std::vector<QuestionPlan> p = [] {
    const auto& world = test_world();
    const auto cost = CostModel::calibrate(
        *world.engine,
        std::span<const corpus::Question>(world.questions).subspan(0, 8));
    std::vector<QuestionPlan> out;
    for (std::size_t i = 0; i < 6; ++i) {
      out.push_back(make_plan(*world.engine, cost, world.questions[i]));
    }
    return out;
  }();
  return p;
}

// The system's run loop only terminates once every submitted question is
// accounted for, so each behavior test carries a small workload; the
// factor probes are scheduled directly on the simulation and fire at
// their instants regardless of when the questions finish.
void submit_small_workload(System& system) {
  OverloadWorkload workload;
  workload.count = 4;
  workload::Driver(system, plans()).submit({.overload = workload});
}

SystemConfig base_config() {
  SystemConfig cfg;
  cfg.nodes = 2;
  cfg.seed = 3;
  return cfg;
}

simnet::GrayFaultEvent gray(std::uint32_t node, double at,
                            double recover_after, double cpu, double disk,
                            double extra = 0.0) {
  simnet::GrayFaultEvent event;
  event.node = node;
  event.at = at;
  event.recover_after = recover_after;
  event.cpu_factor = cpu;
  event.disk_factor = disk;
  event.extra_latency = extra;
  return event;
}

TEST(GrayPlanTest, OverlappingWindowsTakePerResourceMax) {
  SystemConfig cfg = base_config();
  // Window A [10, 30): cpu 4x, disk 2x. Window B [20, 40): cpu 3x, disk 5x.
  cfg.gray.events.push_back(gray(0, 10.0, 20.0, 4.0, 2.0));
  cfg.gray.events.push_back(gray(0, 20.0, 20.0, 3.0, 5.0));

  simnet::Simulation sim;
  System system(sim, cfg);
  submit_small_workload(system);
  std::vector<std::pair<double, double>> observed;
  for (const double t : {15.0, 25.0, 35.0, 45.0}) {
    sim.schedule_at(t, [&system, &observed] {
      observed.emplace_back(system.node(0).gray_cpu_factor(),
                            system.node(0).gray_disk_factor());
    });
  }
  const Metrics m = system.run();

  ASSERT_EQ(observed.size(), 4u);
  EXPECT_DOUBLE_EQ(observed[0].first, 4.0);   // A only
  EXPECT_DOUBLE_EQ(observed[0].second, 2.0);
  EXPECT_DOUBLE_EQ(observed[1].first, 4.0);   // A and B: max per resource
  EXPECT_DOUBLE_EQ(observed[1].second, 5.0);
  EXPECT_DOUBLE_EQ(observed[2].first, 3.0);   // A closed, B still open
  EXPECT_DOUBLE_EQ(observed[2].second, 5.0);
  EXPECT_DOUBLE_EQ(observed[3].first, 1.0);   // all windows closed
  EXPECT_DOUBLE_EQ(observed[3].second, 1.0);
  EXPECT_EQ(m.gray_onsets, 2u);
  EXPECT_EQ(m.gray_recoveries, 2u);
}

TEST(GrayPlanTest, ZeroLengthWindowCountsButNeverDegrades) {
  SystemConfig cfg = base_config();
  cfg.gray.events.push_back(gray(0, 10.0, 0.0, 8.0, 8.0));

  simnet::Simulation sim;
  System system(sim, cfg);
  submit_small_workload(system);
  std::vector<double> observed;
  sim.schedule_at(10.5, [&system, &observed] {
    observed.push_back(system.node(0).gray_cpu_factor());
  });
  const Metrics m = system.run();

  ASSERT_EQ(observed.size(), 1u);
  EXPECT_DOUBLE_EQ(observed[0], 1.0);  // onset + recovery at the same instant
  EXPECT_EQ(m.gray_onsets, 1u);
  EXPECT_EQ(m.gray_recoveries, 1u);
}

TEST(GrayPlanTest, PermanentWindowNeverRecovers) {
  SystemConfig cfg = base_config();
  cfg.gray.events.push_back(gray(0, 10.0, -1.0, 6.0, 3.0));

  simnet::Simulation sim;
  System system(sim, cfg);
  submit_small_workload(system);
  std::vector<double> observed;
  sim.schedule_at(1000.0, [&system, &observed] {
    observed.push_back(system.node(0).gray_cpu_factor());
  });
  const Metrics m = system.run();

  ASSERT_EQ(observed.size(), 1u);
  EXPECT_DOUBLE_EQ(observed[0], 6.0);
  EXPECT_EQ(m.gray_onsets, 1u);
  EXPECT_EQ(m.gray_recoveries, 0u);
}

TEST(GrayPlanDeathTest, RejectsZeroCpuFactor) {
  SystemConfig cfg = base_config();
  cfg.gray.events.push_back(gray(0, 10.0, 20.0, 0.0, 2.0));
  EXPECT_DEATH(
      {
        simnet::Simulation sim;
        System system(sim, cfg);
      },
      "gray factors must be positive");
}

TEST(GrayPlanDeathTest, RejectsNegativeDiskFactor) {
  SystemConfig cfg = base_config();
  cfg.gray.events.push_back(gray(0, 10.0, 20.0, 2.0, -3.0));
  EXPECT_DEATH(
      {
        simnet::Simulation sim;
        System system(sim, cfg);
      },
      "gray factors must be positive");
}

TEST(GrayPlanDeathTest, RejectsNonFiniteFactor) {
  SystemConfig cfg = base_config();
  cfg.gray.events.push_back(gray(0, 10.0, 20.0, kNaN, 2.0));
  EXPECT_DEATH(
      {
        simnet::Simulation sim;
        System system(sim, cfg);
      },
      "gray factors must be positive");
}

TEST(GrayPlanDeathTest, RejectsNegativeOnsetTime) {
  SystemConfig cfg = base_config();
  cfg.gray.events.push_back(gray(0, -5.0, 20.0, 2.0, 2.0));
  EXPECT_DEATH(
      {
        simnet::Simulation sim;
        System system(sim, cfg);
      },
      "onset time must be finite");
}

TEST(GrayPlanDeathTest, RejectsNaNRecovery) {
  SystemConfig cfg = base_config();
  cfg.gray.events.push_back(gray(0, 10.0, kNaN, 2.0, 2.0));
  EXPECT_DEATH(
      {
        simnet::Simulation sim;
        System system(sim, cfg);
      },
      "recover_after must not be NaN");
}

TEST(GrayPlanDeathTest, RejectsNegativeExtraLatency) {
  SystemConfig cfg = base_config();
  cfg.gray.events.push_back(gray(0, 10.0, 20.0, 2.0, 2.0, -0.5));
  EXPECT_DEATH(
      {
        simnet::Simulation sim;
        System system(sim, cfg);
      },
      "extra_latency must be finite");
}

TEST(GrayPlanDeathTest, RejectsUnknownNode) {
  SystemConfig cfg = base_config();
  cfg.gray.events.push_back(gray(7, 10.0, 20.0, 2.0, 2.0));
  EXPECT_DEATH(
      {
        simnet::Simulation sim;
        System system(sim, cfg);
      },
      "unknown node");
}

}  // namespace
}  // namespace qadist::cluster
