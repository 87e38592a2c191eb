#include "cluster/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "support/test_world.hpp"
#include "workload/driver.hpp"

namespace qadist::cluster {
namespace {

using qadist::testing::test_world;

std::vector<QuestionPlan> small_plans() {
  const auto& world = test_world();
  const auto cost = CostModel::calibrate(
      *world.engine,
      std::span<const corpus::Question>(world.questions).subspan(0, 8));
  std::vector<QuestionPlan> out;
  for (std::size_t i = 0; i < 10; ++i) {
    out.push_back(make_plan(*world.engine, cost, world.questions[i]));
  }
  return out;
}

TEST(WorkloadTest, MeanServiceMatchesManualComputation) {
  const auto plans = small_plans();
  const auto disk = Bandwidth::from_mbps(250);
  double manual = 0.0;
  for (const auto& p : plans) {
    manual += p.total_cpu_seconds() +
              p.total_disk_bytes() / disk.bytes_per_second;
  }
  manual /= static_cast<double>(plans.size());
  EXPECT_NEAR(mean_service_seconds(plans, disk), manual, 1e-9);
  EXPECT_EQ(mean_service_seconds({}, disk), 0.0);
}

TEST(WorkloadTest, BimodalMixScalesAlternatePlans) {
  auto plans = small_plans();
  std::vector<double> before;
  for (const auto& p : plans) before.push_back(p.total_cpu_seconds());
  apply_bimodal_mix(plans, 0.5);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const double expected = (i % 2 == 0) ? before[i] * 0.5 : before[i];
    EXPECT_NEAR(plans[i].total_cpu_seconds(), expected, 1e-9) << i;
  }
}

TEST(WorkloadTest, OverloadSubmitsEightPerNodeByDefault) {
  const auto plans = small_plans();
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 3;
  cfg.partition.ap_chunk = 8;
  System system(sim, cfg);
  workload::Driver(system, plans).submit({});  // overload, 8N questions
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 24u);  // 8 x 3 nodes
}

TEST(WorkloadTest, OverloadArrivalRateMatchesFactor) {
  const auto plans = small_plans();
  const double service = mean_service_seconds(plans, Bandwidth::from_mbps(250));
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.partition.ap_chunk = 8;
  System system(sim, cfg);
  OverloadWorkload workload;
  workload.count = 64;
  workload.overload_factor = 2.0;
  workload.seed = 5;
  workload::Driver(system, plans).submit({.overload = workload});
  const auto metrics = system.run();
  // The last arrival should land near count x mean_gap, where mean_gap =
  // service / (overload x nodes). Uniform gaps: wide tolerance.
  const double expected_window = 64.0 * service / (2.0 * 4.0);
  EXPECT_GT(metrics.makespan, 0.5 * expected_window);
  EXPECT_EQ(metrics.completed, 64u);
}

TEST(WorkloadTest, SerialDrainsBetweenQuestions) {
  const auto plans = small_plans();
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.partition.ap_chunk = 8;
  System system(sim, cfg);
  SerialWorkload workload;
  workload.count = 5;
  workload::Driver(system, plans)
      .submit({.shape = workload::WorkloadShape::kSerial, .serial = workload});
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 5u);
  // Fully drained between questions: the max latency is far below the gap,
  // so no queueing — p95 close to the mean of individual runtimes.
  EXPECT_LT(metrics.latencies.max(),
            10.0 * mean_service_seconds(plans, Bandwidth::from_mbps(250)));
}

TEST(WorkloadTest, SerialStrideSelectsPlans) {
  const auto plans = small_plans();
  // stride 2 offset 1 picks plans 1,3,5,...; verify via determinism: two
  // systems given the same selection produce identical latencies.
  const auto run = [&] {
    simnet::Simulation sim;
    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.partition.ap_chunk = 8;
    System system(sim, cfg);
    SerialWorkload workload;
    workload.count = 4;
    workload.offset = 1;
    workload.stride = 2;
    workload::Driver(system, plans)
        .submit({.shape = workload::WorkloadShape::kSerial, .serial = workload});
    return system.run();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
}

TEST(WorkloadTest, PickSequenceLegacyPathMatchesHistoricFormula) {
  // repeat_exponent == 0 must reproduce the pre-Zipf deterministic scan
  // bit-for-bit, so every existing seeded experiment keeps its stream.
  OverloadWorkload workload;
  workload.seed = 11;
  const auto picks = overload_pick_sequence(workload, 10, 25);
  ASSERT_EQ(picks.size(), 25u);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    EXPECT_EQ(picks[i], (i * 7 + workload.seed * 13) % 10) << i;
  }
}

TEST(WorkloadTest, PickSequenceZipfIsDeterministicAndBounded) {
  OverloadWorkload workload;
  workload.seed = 4;
  workload.repeat_exponent = 1.0;
  workload.distinct_questions = 6;
  const auto a = overload_pick_sequence(workload, 50, 100);
  const auto b = overload_pick_sequence(workload, 50, 100);
  EXPECT_EQ(a, b);
  std::set<std::size_t> unique(a.begin(), a.end());
  EXPECT_LE(unique.size(), 6u);  // the configured distinct population
  for (const auto pick : a) EXPECT_LT(pick, 50u);

  workload.seed = 5;  // a different seed draws a different stream
  const auto c = overload_pick_sequence(workload, 50, 100);
  EXPECT_NE(a, c);
}

TEST(WorkloadTest, ZipfRotationKeepsDistinctCountExact) {
  // The rank -> plan rotation (rank + seed*13) % plan_count is injective
  // over ranks [0, distinct), so a long enough stream must touch exactly
  // `distinct_questions` distinct plans — no collisions shrinking the
  // population, no leaks past it.
  OverloadWorkload workload;
  workload.seed = 3;
  workload.repeat_exponent = 0.8;  // modest skew so tail ranks appear
  workload.distinct_questions = 8;
  const auto picks = overload_pick_sequence(workload, 40, 2000);
  const std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 8u);
  for (const auto pick : picks) EXPECT_LT(pick, 40u);

  // distinct_questions past the plan count clamps to the plan count.
  workload.distinct_questions = 100;
  const auto clamped = overload_pick_sequence(workload, 5, 2000);
  const std::set<std::size_t> clamped_unique(clamped.begin(), clamped.end());
  EXPECT_EQ(clamped_unique.size(), 5u);
}

TEST(WorkloadDeathTest, OverloadPanicsOnZeroWorkPlanSet) {
  // A zero-work plan set used to collapse every arrival gap to zero and
  // submit the whole stream at t=0 silently; now it trips a check.
  auto plans = small_plans();
  for (auto& p : plans) scale_plan(p, 0.0);
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 2;
  cfg.partition.ap_chunk = 8;
  System system(sim, cfg);
  EXPECT_DEATH(workload::Driver(system, plans).submit({}),
               "zero mean service");
}

TEST(WorkloadTest, PickSequenceSkewConcentratesRepeats) {
  const auto top_share = [](double exponent) {
    OverloadWorkload workload;
    workload.seed = 21;
    workload.repeat_exponent = exponent;
    workload.distinct_questions = 40;
    const auto picks = overload_pick_sequence(workload, 100, 400);
    std::map<std::size_t, std::size_t> freq;
    for (const auto p : picks) ++freq[p];
    std::size_t top = 0;
    for (const auto& [pick, count] : freq) top = std::max(top, count);
    return static_cast<double>(top) / static_cast<double>(picks.size());
  };
  // Stronger skew => the most popular question takes a larger share of
  // the stream (at s=1.5 over 40 ranks, rank 0 alone is ~60%).
  EXPECT_GT(top_share(1.5), 2.0 * top_share(0.3));
}

TEST(WorkloadTest, ZipfOverloadSubmitsTheSequenceItAdvertises) {
  const auto plans = small_plans();
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 2;
  cfg.partition.ap_chunk = 8;
  cfg.cache.answers.max_entries = 32;
  cfg.cache.paragraphs.max_entries = 32;
  System system(sim, cfg);
  OverloadWorkload workload;
  workload.count = 16;
  workload.seed = 2;
  workload.repeat_exponent = 1.0;
  workload.distinct_questions = 3;
  // Prewarm exactly the advertised picks: if the overload run used any
  // other sequence, at least one question would miss.
  const auto picks =
      overload_pick_sequence(workload, plans.size(), workload.count);
  for (const auto pick : picks) system.prewarm(plans[pick]);
  workload::Driver(system, plans).submit({.overload = workload});
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 16u);
  EXPECT_EQ(metrics.cache_hits, 16u);
  EXPECT_EQ(metrics.cache_misses, 0u);
}

TEST(WorkloadTest, SameSeedSameArrivalsAcrossPolicies) {
  const auto plans = small_plans();
  const auto first_completion = [&](Policy policy) {
    simnet::Simulation sim;
    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.dispatch.policy = policy;
    cfg.partition.ap_chunk = 8;
    System system(sim, cfg);
    OverloadWorkload workload;
    workload.count = 6;
    workload.seed = 9;
    workload::Driver(system, plans).submit({.overload = workload});
    const auto m = system.run();
    return m.submitted;
  };
  EXPECT_EQ(first_completion(Policy::kDns), first_completion(Policy::kDqa));
}

}  // namespace
}  // namespace qadist::cluster
