#include <gtest/gtest.h>

#include <vector>

#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "obs/span.hpp"
#include "support/test_world.hpp"
#include "workload/driver.hpp"

namespace qadist::cluster {
namespace {

using qadist::testing::test_world;

/// A small plan pool built once (planning runs the real pipeline).
const std::vector<QuestionPlan>& plans() {
  static const std::vector<QuestionPlan> all = [] {
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
  return all;
}

SystemConfig cached_config(std::size_t nodes) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.partition.ap_chunk = 8;
  cfg.cache.answers.max_entries = 64;
  cfg.cache.paragraphs.max_entries = 64;
  return cfg;
}

TEST(CacheSystemTest, PrewarmedAnswerShortCircuitsThePipeline) {
  // Uncached reference latency for the same question.
  double uncached = 0.0;
  {
    simnet::Simulation sim;
    SystemConfig cfg = cached_config(1);
    cfg.cache = {};  // caches off
    System system(sim, cfg);
    system.submit(plans()[0], 0.0);
    uncached = system.run().latencies.mean();
  }

  simnet::Simulation sim;
  System system(sim, cached_config(1));
  system.prewarm(plans()[0]);
  EXPECT_TRUE(system.answer_cached(0, plans()[0]));
  system.submit(plans()[0], 0.0);
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.cache_hits, 1u);
  EXPECT_EQ(metrics.cache_misses, 0u);
  // The hit pays only dispatch + the cache probe, not the ~100 s pipeline.
  EXPECT_LT(metrics.latencies.mean(), 0.05 * uncached);
  EXPECT_GT(uncached, 1.0);
}

TEST(CacheSystemTest, ParagraphCacheSkipsDiskBoundRetrieval) {
  // Only the paragraph cache is enabled: the answer probe misses, but the
  // PR stage (the disk-bound bulk of the question) is skipped.
  double uncached = 0.0;
  {
    simnet::Simulation sim;
    SystemConfig cfg = cached_config(1);
    cfg.cache = {};
    System system(sim, cfg);
    system.submit(plans()[1], 0.0);
    uncached = system.run().latencies.mean();
  }

  simnet::Simulation sim;
  SystemConfig cfg = cached_config(1);
  cfg.cache.answers.max_entries = 0;  // paragraph cache only
  System system(sim, cfg);
  system.prewarm(plans()[1]);
  EXPECT_FALSE(system.answer_cached(0, plans()[1]));
  system.submit(plans()[1], 0.0);
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.cache_hits, 0u);
  EXPECT_EQ(metrics.pr_cache_hits, 1u);
  // Faster than the full pipeline, but it still runs QP/PS/PO/AP.
  EXPECT_LT(metrics.latencies.mean(), uncached);
  EXPECT_GT(metrics.latencies.mean(), 0.05 * uncached);
  EXPECT_DOUBLE_EQ(metrics.t_pr.mean(), 0.0);  // PR never ran
}

TEST(CacheSystemTest, CrashInvalidatesTheNodesShard) {
  // Learn which node the affinity hash prefers for this plan.
  sched::NodeId preferred = 0;
  {
    simnet::Simulation sim;
    System probe(sim, cached_config(2));
    const auto node = probe.preferred_node(plans()[0]);
    ASSERT_TRUE(node.has_value());
    preferred = *node;
  }

  simnet::Simulation sim;
  SystemConfig cfg = cached_config(2);
  cfg.faults.crashes.push_back(FaultEvent{preferred, 5.0});
  System system(sim, cfg);
  system.prewarm(plans()[0]);
  EXPECT_TRUE(system.answer_cached(preferred, plans()[0]));
  // Submitted after the crash: the warm shard is gone, so this must be a
  // miss, recompute on a survivor, and still drain.
  system.submit(plans()[0], 10.0);
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.cache_hits, 0u);
  EXPECT_GE(metrics.cache_invalidations, 2u);  // answer + paragraph entries
  EXPECT_EQ(metrics.crashes, 1u);
}

TEST(CacheSystemTest, SurvivingShardsKeepServingAfterACrash) {
  // Warm both nodes' shards with their own plans, crash one node, submit
  // everything: the surviving shard's questions still hit.
  simnet::Simulation sim;
  SystemConfig cfg = cached_config(2);
  cfg.faults.crashes.push_back(FaultEvent{0, 5.0});
  System system(sim, cfg);
  std::size_t survivor_plans = 0;
  for (const auto& plan : plans()) {
    system.prewarm(plan);
    const auto node = system.preferred_node(plan);
    if (node.has_value() && *node == 1) ++survivor_plans;
  }
  Seconds at = 10.0;
  for (const auto& plan : plans()) {
    system.submit(plan, at);
    at += 1.0;
  }
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, plans().size());
  // Every plan warmed on node 1 should still be served from cache (node 1
  // is never overloaded enough here to reroute a cached question).
  EXPECT_GE(metrics.cache_hits, survivor_plans);
  EXPECT_GT(metrics.cache_invalidations, 0u);
}

TEST(CacheSystemTest, SameSeedSameHitSequence) {
  const auto run_once = [](std::uint64_t seed) {
    simnet::Simulation sim;
    SystemConfig cfg = cached_config(2);
    cfg.seed = seed;
    System system(sim, cfg);
    OverloadWorkload load;
    load.seed = seed;
    load.count = 24;
    load.repeat_exponent = 1.0;
    load.distinct_questions = 4;
    workload::Driver(system, plans()).submit({.overload = load});
    return system.run();
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.pr_cache_hits, b.pr_cache_hits);
  EXPECT_EQ(a.affinity_routes, b.affinity_routes);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_GT(a.cache_hits, 0u);  // the skewed stream actually repeats
}

TEST(CacheSystemTest, TracingDoesNotPerturbCachedRuns) {
  const auto run_once = [](bool traced) {
    simnet::Simulation sim;
    System system(sim, cached_config(2));
    obs::Tracer tracer;
    if (traced) system.set_tracer(&tracer);
    OverloadWorkload load;
    load.seed = 3;
    load.count = 16;
    load.repeat_exponent = 1.0;
    load.distinct_questions = 4;
    workload::Driver(system, plans()).submit({.overload = load});
    const auto metrics = system.run();
    if (traced) {
      EXPECT_GT(tracer.spans().size(), 0u);
    }
    return metrics;
  };
  const auto untraced = run_once(false);
  const auto traced = run_once(true);
  EXPECT_DOUBLE_EQ(untraced.makespan, traced.makespan);
  EXPECT_EQ(untraced.cache_hits, traced.cache_hits);
  EXPECT_EQ(untraced.cache_misses, traced.cache_misses);
}

TEST(CacheSystemTest, UncachedConfigReportsZeroCacheActivity) {
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 2;
  cfg.partition.ap_chunk = 8;
  System system(sim, cfg);
  system.submit(plans()[0], 0.0);
  system.submit(plans()[0], 1.0);  // a repeat, but no cache to serve it
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.cache_hits + metrics.cache_misses, 0u);
  EXPECT_EQ(metrics.affinity_routes + metrics.affinity_fallbacks, 0u);
}

}  // namespace
}  // namespace qadist::cluster
