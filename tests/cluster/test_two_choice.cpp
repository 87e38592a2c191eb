// The power-of-two-choices extension policy and the per-node work metrics.

#include <gtest/gtest.h>

#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "support/test_world.hpp"
#include "workload/driver.hpp"

namespace qadist::cluster {
namespace {

using qadist::testing::test_world;

const std::vector<QuestionPlan>& tc_plans() {
  static const std::vector<QuestionPlan> p = [] {
    const auto& world = test_world();
    const auto cost = CostModel::calibrate(
        *world.engine,
        std::span<const corpus::Question>(world.questions).subspan(0, 8));
    std::vector<QuestionPlan> out;
    for (std::size_t i = 0; i < 24; ++i) {
      out.push_back(make_plan(*world.engine, cost, world.questions[i]));
    }
    apply_bimodal_mix(out);
    return out;
  }();
  return p;
}

Metrics run_policy(Policy policy, std::uint64_t seed = 3) {
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.dispatch.policy = policy;
  cfg.partition.ap_chunk = 8;
  cfg.seed = seed;
  System system(sim, cfg);
  OverloadWorkload workload;
  workload.seed = seed;
  workload::Driver(system, tc_plans()).submit({.overload = workload});
  return system.run();
}

TEST(TwoChoiceTest, CompletesAndMigrates) {
  const auto m = run_policy(Policy::kTwoChoice);
  EXPECT_EQ(m.completed, 32u);
  // Roughly half the samples should land off the DNS node.
  EXPECT_GT(m.migrations_qa, 0u);
  EXPECT_EQ(m.migrations_pr, 0u);  // no embedded dispatchers
  EXPECT_EQ(m.migrations_ap, 0u);
}

TEST(TwoChoiceTest, DeterministicForFixedSeed) {
  const auto a = run_policy(Policy::kTwoChoice, 9);
  const auto b = run_policy(Policy::kTwoChoice, 9);
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
  EXPECT_EQ(a.migrations_qa, b.migrations_qa);
}

TEST(TwoChoiceTest, DifferentSeedsDiffer) {
  const auto a = run_policy(Policy::kTwoChoice, 1);
  const auto b = run_policy(Policy::kTwoChoice, 2);
  EXPECT_NE(a.migrations_qa, b.migrations_qa);
}

TEST(TwoChoiceTest, Name) {
  EXPECT_EQ(to_string(Policy::kTwoChoice), "TWO-CHOICE");
}

TEST(NodeWorkMetricsTest, PerNodeWorkRecorded) {
  const auto m = run_policy(Policy::kDqa);
  ASSERT_EQ(m.node_cpu_work.size(), 4u);
  ASSERT_EQ(m.node_disk_bytes.size(), 4u);
  double total_cpu = 0.0;
  for (double w : m.node_cpu_work) {
    EXPECT_GT(w, 0.0);
    total_cpu += w;
  }
  // Total served CPU matches the workload's demand (plus per-batch answer
  // extraction overheads), so it must be at least the plan total.
  double plan_cpu = 0.0;
  for (std::size_t i = 0; i < 32; ++i) {
    plan_cpu += tc_plans()[(i * 7 + 3 * 13) % tc_plans().size()]
                    .total_cpu_seconds();
  }
  EXPECT_GE(total_cpu, plan_cpu * 0.99);
}

TEST(NodeWorkMetricsTest, ImbalanceIsAtLeastOne) {
  for (Policy policy : {Policy::kDns, Policy::kInter, Policy::kDqa,
                        Policy::kTwoChoice}) {
    const auto m = run_policy(policy);
    EXPECT_GE(m.cpu_work_imbalance(), 1.0);
    EXPECT_LT(m.cpu_work_imbalance(), 4.0);  // nothing pathological
  }
}

TEST(NodeWorkMetricsTest, DqaBalancesBetterThanDns) {
  const auto dns = run_policy(Policy::kDns);
  const auto dqa = run_policy(Policy::kDqa);
  EXPECT_LT(dqa.cpu_work_imbalance(), dns.cpu_work_imbalance());
}

TEST(NodeWorkMetricsTest, EmptyMetricsImbalanceIsOne) {
  Metrics m;
  EXPECT_DOUBLE_EQ(m.cpu_work_imbalance(), 1.0);
}

}  // namespace
}  // namespace qadist::cluster
