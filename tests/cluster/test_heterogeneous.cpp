// Heterogeneous clusters (extension): nodes with different CPU speeds.
// The load balancer sees slow nodes' backlogs through the broadcasts and
// routes work toward the fast nodes.

#include <gtest/gtest.h>

#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "support/test_world.hpp"
#include "workload/driver.hpp"

namespace qadist::cluster {
namespace {

using qadist::testing::test_world;

const std::vector<QuestionPlan>& het_plans() {
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

SystemConfig het_config(Policy policy) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.dispatch.policy = policy;
  cfg.partition.ap_chunk = 8;
  cfg.node_cpu_speeds = {2.0, 2.0, 0.5, 0.5};  // two fast, two slow
  return cfg;
}

TEST(HeterogeneousTest, SpeedArityIsChecked) {
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.node_cpu_speeds = {1.0, 1.0};  // wrong arity
  EXPECT_DEATH({ System system(sim, cfg); }, "arity mismatch");
}

TEST(HeterogeneousTest, FastNodeFinishesQuestionFaster) {
  // Same question on a 1-node cluster at speed 1 vs speed 2: the CPU part
  // halves, the disk part does not.
  const auto latency = [&](double speed) {
    simnet::Simulation sim;
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.partition.ap_chunk = 8;
    cfg.node.cpu_speed = speed;
    System system(sim, cfg);
    system.submit(het_plans()[1], 0.0);
    return system.run().latencies.mean();
  };
  const double slow = latency(1.0);
  const double fast = latency(2.0);
  EXPECT_LT(fast, slow);
  EXPECT_GT(fast, slow / 2.0);  // the disk part does not speed up
}

TEST(HeterogeneousTest, LoadBalancerRoutesWorkToFastNodes) {
  simnet::Simulation sim;
  System system(sim, het_config(Policy::kDqa));
  OverloadWorkload workload;
  workload.seed = 11;
  workload::Driver(system, het_plans()).submit({.overload = workload});
  const auto m = system.run();
  EXPECT_EQ(m.completed, 32u);
  // Fast nodes (0,1) must serve more CPU-seconds than slow nodes (2,3).
  const double fast = m.node_cpu_work[0] + m.node_cpu_work[1];
  const double slow = m.node_cpu_work[2] + m.node_cpu_work[3];
  EXPECT_GT(fast, 1.3 * slow);
}

TEST(HeterogeneousTest, DqaBeatsDnsByMoreOnHeterogeneousCluster) {
  // Round-robin ignores speeds entirely; DQA's load feedback compensates.
  const auto run = [&](Policy policy, bool heterogeneous) {
    simnet::Simulation sim;
    auto cfg = het_config(policy);
    if (!heterogeneous) cfg.node_cpu_speeds = {1.25, 1.25, 1.25, 1.25};
    System system(sim, cfg);
    OverloadWorkload workload;
    workload.seed = 11;
    workload::Driver(system, het_plans()).submit({.overload = workload});
    return system.run().latencies.mean();
  };
  const double gain_homogeneous =
      run(Policy::kDns, false) / run(Policy::kDqa, false);
  const double gain_heterogeneous =
      run(Policy::kDns, true) / run(Policy::kDqa, true);
  EXPECT_GT(gain_heterogeneous, gain_homogeneous);
}

}  // namespace
}  // namespace qadist::cluster
