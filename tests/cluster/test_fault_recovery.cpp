// Fault injection + recovery: a node crash mid-question must never lose
// the question. Worker crashes are recovered per partitioning strategy
// (SEND/ISEND re-partition over the survivors, RECV requeues onto the
// shared deque); host crashes restart the whole question on a survivor.

#include <gtest/gtest.h>

#include "cluster/system.hpp"
#include "support/test_world.hpp"
#include "support/instants.hpp"

namespace qadist::cluster {
namespace {

using parallel::Strategy;
using qadist::testing::test_world;

/// A private small plan set (the heavy fixture in test_system.cpp is not
/// needed here).
const std::vector<QuestionPlan>& plans() {
  static const std::vector<QuestionPlan> p = [] {
    const auto& world = test_world();
    const auto cost = CostModel::calibrate(
        *world.engine,
        std::span<const corpus::Question>(world.questions).subspan(0, 8));
    std::vector<QuestionPlan> out;
    for (std::size_t i = 0; i < 16; ++i) {
      out.push_back(make_plan(*world.engine, cost, world.questions[i]));
    }
    return out;
  }();
  return p;
}

SystemConfig config(std::size_t nodes, Policy policy = Policy::kDqa) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.dispatch.policy = policy;
  cfg.partition.ap_chunk = 8;  // the test corpus accepts ~60 paragraphs per question
  return cfg;
}

/// Loaded run with two worker crashes mid-flight. Questions arrive fast
/// enough that the crashed nodes are executing work when they die.
Metrics run_with_worker_crashes(SystemConfig cfg,
                                obs::Tracer* tracer = nullptr) {
  simnet::Simulation sim;
  cfg.faults.crashes.push_back(FaultEvent{1, 5.0});
  cfg.faults.crashes.push_back(FaultEvent{2, 45.0});
  System system(sim, cfg);
  if (tracer != nullptr) system.set_tracer(tracer);
  Seconds at = 0.0;
  for (std::size_t i = 0; i < 12; ++i) {
    system.submit(plans()[i], at);
    at += 20.0;
  }
  return system.run();
}

class FaultPerStrategy : public ::testing::TestWithParam<Strategy> {};

TEST_P(FaultPerStrategy, NoQuestionLostWhenWorkersCrash) {
  auto cfg = config(4);
  cfg.partition.ap_strategy = GetParam();
  const auto metrics = run_with_worker_crashes(cfg);
  EXPECT_EQ(metrics.completed, 12u);
  EXPECT_EQ(metrics.latencies.count(), 12u);
  EXPECT_EQ(metrics.crashes, 2u);
  // The cluster was busy at both crash times: something was actually lost
  // and recovered, not just dodged.
  EXPECT_GT(metrics.legs_lost + metrics.question_restarts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, FaultPerStrategy,
                         ::testing::Values(Strategy::kSend, Strategy::kIsend,
                                           Strategy::kRecv),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FaultRecoveryTest, PrSendStrategySurvivesCrashes) {
  auto cfg = config(4);
  cfg.partition.pr_strategy = Strategy::kSend;
  const auto metrics = run_with_worker_crashes(cfg);
  EXPECT_EQ(metrics.completed, 12u);
  EXPECT_EQ(metrics.crashes, 2u);
}

TEST(FaultRecoveryTest, HostCrashRestartsQuestionOnSurvivor) {
  simnet::Simulation sim;
  auto cfg = config(2, Policy::kDns);  // DNS: question 0 is hosted on node 0
  System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  system.submit(plans()[0], 0.0);
  system.schedule_crash(0, 5.0);  // well inside the question's service time
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.crashes, 1u);
  EXPECT_GE(metrics.question_restarts, 1u);
  EXPECT_GE(testing::count_instants(tracer, "resubmitting"), 1u);
  // The survivor did the work.
  EXPECT_GT(system.node(1).cpu().work_served(), 0.0);
  EXPECT_TRUE(system.node_crashed(0));
}

TEST(FaultRecoveryTest, RestartedNodeRejoinsThePool) {
  simnet::Simulation sim;
  auto cfg = config(2);
  System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  system.schedule_crash(1, 1.0, /*restart_after=*/10.0);
  // Submissions long after the reboot: the rejoined node must host again.
  Seconds at = 100.0;
  for (int i = 0; i < 6; ++i) {
    system.submit(plans()[static_cast<std::size_t>(i)], at);
    at += 200.0;
  }
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 6u);
  EXPECT_EQ(testing::count_instants(tracer, "restarted"), 1u);
  EXPECT_FALSE(system.node_crashed(1));
  EXPECT_GT(system.node(1).cpu().work_served(), 0.0);
}

TEST(FaultRecoveryTest, LastLiveNodeIsNeverCrashed) {
  simnet::Simulation sim;
  auto cfg = config(2);
  cfg.faults.crashes.push_back(FaultEvent{0, 5.0});
  cfg.faults.crashes.push_back(FaultEvent{1, 6.0});  // must be skipped
  System system(sim, cfg);
  system.submit(plans()[0], 0.0);
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.crashes, 1u);
  EXPECT_EQ(metrics.crashes_skipped, 1u);
  EXPECT_FALSE(system.node_crashed(1));
}

TEST(FaultRecoveryTest, RandomMtbfCrashesAreDeterministic) {
  const auto run = [] {
    simnet::Simulation sim;
    auto cfg = config(4);
    cfg.faults.mtbf = 60.0;
    cfg.faults.restart_after = 30.0;
    System system(sim, cfg);
    Seconds at = 0.0;
    for (std::size_t i = 0; i < 8; ++i) {
      system.submit(plans()[i], at);
      at += 30.0;
    }
    return system.run();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.completed, 8u);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.legs_lost, b.legs_lost);
  EXPECT_EQ(a.items_recovered, b.items_recovered);
  EXPECT_EQ(a.question_restarts, b.question_restarts);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(FaultRecoveryTest, RecoveryMetricsAreConsistent) {
  obs::Tracer tracer;
  auto cfg = config(4);
  cfg.partition.ap_strategy = Strategy::kIsend;
  const auto metrics = run_with_worker_crashes(cfg, &tracer);
  EXPECT_EQ(metrics.completed, 12u);
  // Recovery bookkeeping lines up: recovered items imply lost legs, and
  // every recovery latency sample came from a recovery event.
  if (metrics.items_recovered > 0) {
    EXPECT_GT(metrics.legs_lost, 0u);
    EXPECT_GT(metrics.recovery_latency.count(), 0u);
    EXPECT_GT(metrics.recovery_latency.mean(), 0.0);
    // Detection is one reply-timeout poll at most: the silence clock runs
    // from the last report, so a crash is noticed within kMembershipTimeout
    // of the poll preceding it — never more than one full timeout late.
    EXPECT_LE(metrics.recovery_latency.mean(), 2.0 * kMembershipTimeout);
  }
  EXPECT_EQ(testing::count_instants(tracer, "crashed"), 2u);
}

}  // namespace
}  // namespace qadist::cluster
