// Edge cases of the simulated distributed system: single-node clusters,
// strategy validation, overhead knobs, trace transparency.

#include <gtest/gtest.h>

#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "support/test_world.hpp"

namespace qadist::cluster {
namespace {

using qadist::testing::test_world;

const std::vector<QuestionPlan>& edge_plans() {
  static const std::vector<QuestionPlan> p = [] {
    const auto& world = test_world();
    const auto cost = CostModel::calibrate(
        *world.engine,
        std::span<const corpus::Question>(world.questions).subspan(0, 8));
    std::vector<QuestionPlan> out;
    for (std::size_t i = 0; i < 8; ++i) {
      out.push_back(make_plan(*world.engine, cost, world.questions[i]));
    }
    return out;
  }();
  return p;
}

SystemConfig cfg(std::size_t nodes, Policy policy = Policy::kDqa) {
  SystemConfig c;
  c.nodes = nodes;
  c.dispatch.policy = policy;
  c.partition.ap_chunk = 8;
  return c;
}

TEST(SystemEdgeTest, SingleNodeClusterHasNoNetworkOverhead) {
  simnet::Simulation sim;
  System system(sim, cfg(1));
  system.submit(edge_plans()[0], 0.0);
  const auto m = system.run();
  EXPECT_EQ(m.completed, 1u);
  // No remote legs: every transfer-overhead component is zero.
  EXPECT_DOUBLE_EQ(m.overhead.keyword_send.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.overhead.paragraph_receive.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.overhead.paragraph_send.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.overhead.answer_receive.mean(), 0.0);
  EXPECT_EQ(m.migrations_qa, 0u);
}

TEST(SystemEdgeTest, IsendForPrIsRejected) {
  simnet::Simulation sim;
  auto c = cfg(4);
  c.partition.pr_strategy = parallel::Strategy::kIsend;
  EXPECT_DEATH({ System system(sim, c); }, "ISEND does not apply to PR");
}

TEST(SystemEdgeTest, PrSendStrategyCompletes) {
  simnet::Simulation sim;
  auto c = cfg(4);
  c.partition.pr_strategy = parallel::Strategy::kSend;
  System system(sim, c);
  system.submit(edge_plans()[0], 0.0);
  const auto m = system.run();
  EXPECT_EQ(m.completed, 1u);
}

TEST(SystemEdgeTest, ApSendAndIsendComplete) {
  for (auto strategy :
       {parallel::Strategy::kSend, parallel::Strategy::kIsend}) {
    simnet::Simulation sim;
    auto c = cfg(4);
    c.partition.ap_strategy = strategy;
    System system(sim, c);
    system.submit(edge_plans()[1], 0.0);
    EXPECT_EQ(system.run().completed, 1u);
  }
}

TEST(SystemEdgeTest, TraceDoesNotPerturbTiming) {
  const auto run = [&](bool traced) {
    simnet::Simulation sim;
    System system(sim, cfg(4));
    obs::Tracer tracer;
    if (traced) system.set_tracer(&tracer);
    system.submit(edge_plans()[2], 0.0);
    return system.run().latencies.mean();
  };
  EXPECT_DOUBLE_EQ(run(false), run(true));
}

TEST(SystemEdgeTest, ZeroPerMessageOverheadLowersOverheads) {
  const auto run = [&](Seconds overhead) {
    simnet::Simulation sim;
    auto c = cfg(4);
    c.net.per_message_overhead = overhead;
    System system(sim, c);
    system.submit(edge_plans()[3], 0.0);
    return system.run();
  };
  const auto with = run(2e-3);
  const auto without = run(0.0);
  EXPECT_LT(without.overhead.total_mean(), with.overhead.total_mean());
  EXPECT_LE(without.latencies.mean(), with.latencies.mean());
}

TEST(SystemEdgeTest, MorePerBatchCpuSlowsSmallChunks) {
  const auto ap_time = [&](Seconds per_batch) {
    simnet::Simulation sim;
    auto c = cfg(4);
    c.partition.ap_chunk = 2;  // many batches
    c.partition.per_batch_answer_cpu = per_batch;
    System system(sim, c);
    system.submit(edge_plans()[0], 0.0);
    return system.run().t_ap.mean();
  };
  EXPECT_LT(ap_time(0.0), ap_time(0.5));
}

TEST(SystemEdgeTest, SubmitAfterRunIsRejected) {
  simnet::Simulation sim;
  System system(sim, cfg(1));
  system.submit(edge_plans()[0], 0.0);
  (void)system.run();
  EXPECT_DEATH(system.submit(edge_plans()[0], 1.0), "submit after run");
}

TEST(SystemEdgeTest, ManyNodesFewQuestions) {
  simnet::Simulation sim;
  System system(sim, cfg(16));
  system.submit(edge_plans()[0], 0.0);
  const auto m = system.run();
  EXPECT_EQ(m.completed, 1u);
  // Partitioning across 16 idle nodes must still beat the 1-node run.
  simnet::Simulation sim1;
  System one(sim1, cfg(1));
  one.submit(edge_plans()[0], 0.0);
  EXPECT_LT(m.latencies.mean(), one.run().latencies.mean());
}

TEST(SystemEdgeTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(to_string(Policy::kDns), "DNS");
  EXPECT_EQ(to_string(Policy::kInter), "INTER");
  EXPECT_EQ(to_string(Policy::kDqa), "DQA");
}

}  // namespace
}  // namespace qadist::cluster
