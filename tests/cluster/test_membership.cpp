#include <gtest/gtest.h>

#include "cluster/system.hpp"
#include "support/test_world.hpp"

namespace qadist::cluster {
namespace {

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
    for (std::size_t i = 0; i < 12; ++i) {
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
  cfg.partition.ap_chunk = 8;
  return cfg;
}

TEST(MembershipTest, LeftNodeReceivesNoNewWork) {
  simnet::Simulation sim;
  System system(sim, config(4));
  system.schedule_leave(3, 0.0);
  // Submissions well after the membership timeout has expired node 3.
  Seconds at = 10.0;
  for (int i = 0; i < 8; ++i) {
    system.submit(plans()[static_cast<std::size_t>(i)], at);
    at += 500.0;
  }
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 8u);
  // Node 3 never hosted or executed anything.
  EXPECT_EQ(system.node(3).cpu().work_served(), 0.0);
  EXPECT_GT(system.node(0).cpu().work_served(), 0.0);
}

TEST(MembershipTest, DnsQuestionsRerouteOffDeadNode) {
  // Even the DNS policy (no dispatchers) must not run work on a node that
  // left the pool: the front-end reroutes to a live member.
  simnet::Simulation sim;
  System system(sim, config(2, Policy::kDns));
  system.schedule_leave(1, 0.0);
  Seconds at = 10.0;
  for (int i = 0; i < 4; ++i) {
    system.submit(plans()[static_cast<std::size_t>(i)], at);
    at += 400.0;
  }
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 4u);
  EXPECT_EQ(system.node(1).cpu().work_served(), 0.0);
}

TEST(MembershipTest, JoiningNodeStartsReceivingWork) {
  simnet::Simulation sim;
  System system(sim, config(2));
  system.schedule_leave(1, 0.0);
  system.schedule_join(1, 1000.0);
  // First question while node 1 is out; later ones after it joined.
  system.submit(plans()[0], 10.0);
  Seconds at = 1100.0;
  for (int i = 1; i < 5; ++i) {
    system.submit(plans()[static_cast<std::size_t>(i)], at);
    at += 400.0;
  }
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 5u);
  // After rejoining, DQA partitioning pulls node 1 into PR/AP legs.
  EXPECT_GT(system.node(1).cpu().work_served(), 0.0);
}

TEST(MembershipTest, LoadTableShrinksAndRecovers) {
  simnet::Simulation sim;
  System system(sim, config(3));
  system.schedule_leave(2, 0.0);
  system.schedule_join(2, 50.0);
  system.submit(plans()[0], 10.0);   // keeps the run alive past t=50
  system.submit(plans()[1], 60.0);
  (void)system.run();
  // By the end all three broadcast again.
  EXPECT_EQ(system.load_table().size(), 3u);
}

// ------------------------------------------------------- memory pressure

TEST(MemoryPressureTest, MultiplierDisabledByDefault) {
  simnet::Simulation sim;
  Node node(sim, 0, NodeConfig{});
  for (int i = 0; i < 10; ++i) node.question_arrived();
  EXPECT_DOUBLE_EQ(node.work_multiplier(), 1.0);
}

TEST(MemoryPressureTest, MultiplierGrowsPastSlots) {
  simnet::Simulation sim;
  NodeConfig cfg;
  cfg.thrash_exponent = 1.0;
  Node node(sim, 0, cfg);
  for (int i = 0; i < 4; ++i) node.question_arrived();
  EXPECT_DOUBLE_EQ(node.work_multiplier(), 1.0);  // at capacity: no thrash
  node.question_arrived();
  EXPECT_DOUBLE_EQ(node.work_multiplier(), 5.0 / 4.0);
  for (int i = 0; i < 3; ++i) node.question_arrived();
  EXPECT_DOUBLE_EQ(node.work_multiplier(), 2.0);
  node.question_departed();
  EXPECT_DOUBLE_EQ(node.work_multiplier(), 7.0 / 4.0);
}

TEST(MemoryPressureTest, ThrashingSlowsOverloadedRuns) {
  const auto run = [&](double exponent) {
    simnet::Simulation sim;
    auto cfg = config(2);
    cfg.node.thrash_exponent = exponent;
    System system(sim, cfg);
    // 12 questions dumped at once on 2 nodes: deep residency.
    for (std::size_t i = 0; i < 12; ++i) {
      system.submit(plans()[i], static_cast<double>(i));
    }
    return system.run();
  };
  const auto without = run(0.0);
  const auto with = run(1.0);
  EXPECT_EQ(without.completed, 12u);
  EXPECT_EQ(with.completed, 12u);
  EXPECT_GT(with.latencies.mean(), 1.2 * without.latencies.mean());
}

TEST(MemoryPressureTest, NoEffectAtLowLoad) {
  const auto run = [&](double exponent) {
    simnet::Simulation sim;
    auto cfg = config(4);
    cfg.node.thrash_exponent = exponent;
    System system(sim, cfg);
    system.submit(plans()[0], 0.0);
    return system.run();
  };
  EXPECT_DOUBLE_EQ(run(0.0).latencies.mean(), run(2.0).latencies.mean());
}

}  // namespace
}  // namespace qadist::cluster
