#include "cluster/system.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "support/test_world.hpp"
#include "obs/export.hpp"

namespace qadist::cluster {
namespace {

using qadist::testing::test_world;

/// Shared plans: building them runs the real pipeline, so do it once.
struct ClusterFixture {
  CostModel cost;
  std::vector<QuestionPlan> plans;

  ClusterFixture()
      : cost(CostModel::calibrate(
            *test_world().engine,
            std::span<const corpus::Question>(test_world().questions)
                .subspan(0, 16))) {
    const auto& world = test_world();
    // The full question set: a rich plan pool gives the load balancers the
    // service-time variance that real workloads have. Every other plan is
    // scaled to TREC-8 weight, mirroring the paper's mixed TREC-8/TREC-9
    // high-load workload (48 s vs 94 s average service).
    for (const auto& question : world.questions) {
      plans.push_back(make_plan(*world.engine, cost, question));
    }
    for (std::size_t i = 0; i < plans.size(); i += 2) {
      scale_plan(plans[i], 48.0 / 94.0);
    }
  }
};

const ClusterFixture& fixture() {
  static const ClusterFixture f;
  return f;
}

SystemConfig base_config(std::size_t nodes, Policy policy) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.dispatch.policy = policy;
  return cfg;
}

/// High-load run per the paper's Sec. 6.1 protocol: 8·N questions arriving
/// at twice the system's aggregate service rate (the paper's "twice the
/// number of questions that will generate an overload state"), with the
/// same arrival sequence across policies. Mean sequential service is
/// ~158 s (Table 8), so gaps are uniform in [0, 158/N].
Metrics run_high_load(Policy policy, std::size_t nodes,
                      std::uint64_t seed = 2024) {
  const auto& f = fixture();
  simnet::Simulation sim;
  auto cfg = base_config(nodes, policy);
  // RECV chunk scaled to this corpus' ~60 accepted paragraphs (the paper's
  // optimum of 40 corresponds to ~880 accepted paragraphs).
  cfg.partition.ap_chunk = 8;
  System system(sim, cfg);
  const std::size_t questions = 8 * nodes;
  Rng arrivals(seed);
  Seconds at = 0.0;
  for (std::size_t i = 0; i < questions; ++i) {
    system.submit(f.plans[(i * 7 + seed * 13) % f.plans.size()], at);
    at += arrivals.uniform(0.0, 158.0 / static_cast<double>(nodes));
  }
  return system.run();
}

TEST(SystemTest, SingleQuestionSingleNodeMatchesSequentialTime) {
  const auto& f = fixture();
  simnet::Simulation sim;
  System system(sim, base_config(1, Policy::kDns));
  system.submit(f.plans[0], 0.0);
  const auto metrics = system.run();
  ASSERT_EQ(metrics.completed, 1u);
  const double expected =
      f.plans[0].total_cpu_seconds() +
      f.plans[0].total_disk_bytes() / kDiskBandwidth.bytes_per_second;
  EXPECT_NEAR(metrics.latencies.mean(), expected, expected * 0.05);
}

TEST(SystemTest, LowLoadPartitioningSpeedsUpQuestions) {
  const auto& f = fixture();
  // One question at a time on 1 vs 4 nodes (paper Sec. 6.2 protocol).
  const auto run_serial = [&](std::size_t nodes) {
    simnet::Simulation sim;
    auto cfg = base_config(nodes, Policy::kDqa);
    // The test corpus accepts ~60 paragraphs per question (the paper's
    // collection accepted ~880); scale the RECV chunk down accordingly.
    cfg.partition.ap_chunk = 4;
    System system(sim, cfg);
    Seconds at = 0.0;
    for (std::size_t i = 0; i < 8; ++i) {
      system.submit(f.plans[i], at);
      at += 400.0;  // far apart: system fully drains between questions
    }
    return system.run();
  };
  const auto one = run_serial(1);
  const auto four = run_serial(4);
  const double speedup = one.latencies.mean() / four.latencies.mean();
  // Paper Table 10: measured 3.67 on 4 processors. Accept a broad band —
  // the workload differs — but demand real speedup.
  EXPECT_GT(speedup, 2.0) << "1-node " << one.latencies.mean() << "s, 4-node "
                          << four.latencies.mean() << "s";
  EXPECT_LE(speedup, 4.0 + 0.1);
}

TEST(SystemTest, HighLoadPolicyOrderingOnThroughput) {
  // Paper Tables 5-6 ordering: DQA > INTER > DNS on throughput and the
  // reverse on latency. Individual runs are makespan-noisy, so average a
  // few seeds (the benches use more).
  double tput[3] = {0, 0, 0};
  double lat[3] = {0, 0, 0};
  const Policy policies[3] = {Policy::kDns, Policy::kInter, Policy::kDqa};
  const int seeds = 6;
  for (int s = 0; s < seeds; ++s) {
    for (int p = 0; p < 3; ++p) {
      const auto m = run_high_load(policies[p], 8, 1000 + s);
      tput[p] += m.throughput_qpm();
      lat[p] += m.latencies.mean();
    }
  }
  EXPECT_GT(tput[1], tput[0]) << "INTER vs DNS throughput";
  EXPECT_GT(tput[2], tput[1]) << "DQA vs INTER throughput";
  EXPECT_LT(lat[1], lat[0]) << "INTER vs DNS latency";
  EXPECT_LT(lat[2], lat[1]) << "DQA vs INTER latency";
}

TEST(SystemTest, MigrationCountsFollowPolicy) {
  const auto dns = run_high_load(Policy::kDns, 4);
  EXPECT_EQ(dns.migrations_qa, 0u);
  EXPECT_EQ(dns.migrations_pr, 0u);
  EXPECT_EQ(dns.migrations_ap, 0u);

  const auto inter = run_high_load(Policy::kInter, 4);
  EXPECT_GT(inter.migrations_qa, 0u);
  EXPECT_EQ(inter.migrations_pr, 0u);
  EXPECT_EQ(inter.migrations_ap, 0u);

  const auto dqa = run_high_load(Policy::kDqa, 4);
  // The embedded dispatchers must be active (paper Table 7's point). Note
  // no expectation on dqa.migrations_qa: with the 2x anti-ping-pong
  // migration threshold, DQA's embedded dispatchers keep the inter-node
  // gap below one round-trip question-load, so whole-question migrations
  // can legitimately drop to zero.
  EXPECT_GT(dqa.migrations_pr + dqa.migrations_ap, 0u);
}

TEST(SystemTest, DeterministicAcrossRuns) {
  const auto a = run_high_load(Policy::kDqa, 4);
  const auto b = run_high_load(Policy::kDqa, 4);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.migrations_qa, b.migrations_qa);
  EXPECT_EQ(a.migrations_pr, b.migrations_pr);
  EXPECT_EQ(a.migrations_ap, b.migrations_ap);
}

TEST(SystemTest, AllQuestionsComplete) {
  const auto metrics = run_high_load(Policy::kDqa, 4);
  EXPECT_EQ(metrics.completed, 32u);
  EXPECT_EQ(metrics.latencies.count(), 32u);
  EXPECT_GT(metrics.makespan, 0.0);
}

TEST(SystemTest, OverheadIsSmallFractionAtLowLoad) {
  // Paper Table 9: the distribution overhead is < 3% of the response time.
  const auto& f = fixture();
  simnet::Simulation sim;
  System system(sim, base_config(4, Policy::kDqa));
  system.submit(f.plans[0], 0.0);
  const auto metrics = system.run();
  EXPECT_LT(metrics.overhead.total_mean(), 0.05 * metrics.latencies.mean());
}

TEST(SystemTest, TraceRecordsLifecycle) {
  const auto& f = fixture();
  simnet::Simulation sim;
  System system(sim, base_config(4, Policy::kDqa));
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  system.submit(f.plans[0], 0.0);
  (void)system.run();
  ASSERT_FALSE(tracer.instants().empty());
  const auto text = obs::render_text(tracer);
  EXPECT_NE(text.find("started question"), std::string::npos);
  EXPECT_NE(text.find("finished collection"), std::string::npos);
  EXPECT_NE(text.find("accepted"), std::string::npos);
  EXPECT_NE(text.find("answered question"), std::string::npos);
}

TEST(SystemTest, ModuleTimesRecorded) {
  const auto metrics = run_high_load(Policy::kDqa, 4);
  EXPECT_GT(metrics.t_qp.mean(), 0.0);
  EXPECT_GT(metrics.t_pr.mean(), 0.0);
  EXPECT_GT(metrics.t_ap.mean(), 0.0);
  // AP dominates (paper Table 2/8).
  EXPECT_GT(metrics.t_ap.mean(), metrics.t_pr.mean());
}

TEST(SystemTest, RecvChunkSizeAffectsOnlyOverheadNotCompletion) {
  const auto& f = fixture();
  for (std::size_t chunk : {5u, 40u, 100u}) {
    simnet::Simulation sim;
    auto cfg = base_config(4, Policy::kDqa);
    cfg.partition.ap_chunk = chunk;
    System system(sim, cfg);
    system.submit(f.plans[1], 0.0);
    const auto metrics = system.run();
    EXPECT_EQ(metrics.completed, 1u) << "chunk=" << chunk;
  }
}

}  // namespace
}  // namespace qadist::cluster
