// Selective search + broker tier at cluster level: every knob at its
// default (or an explicit no-op: top-k = shard count, 0 brokers) stays
// bit-identical to the flat exhaustive path; selection prunes work
// without marking answers degraded (pruned answers stay cacheable);
// a broker tier drains a batch through broker legs; a crashed designated
// broker re-routes through a surviving group member; and a broker
// subtree with nobody left degrades the answer — which flows through
// degraded_answer_fraction and must never enter the answer cache (the
// PR 4 rule, extended to broker-produced partial answers).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "broker/stats.hpp"
#include "cluster/system.hpp"
#include "support/test_world.hpp"
#include "support/instants.hpp"

namespace qadist::cluster {
namespace {

using qadist::testing::test_world;

const std::vector<QuestionPlan>& plans() {
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

SystemConfig brokered_config(std::size_t nodes, std::size_t num_shards,
                             std::size_t replication, std::size_t brokers) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.partition.ap_chunk = 8;
  cfg.shard.num_shards = num_shards;
  cfg.shard.replication = replication;
  cfg.broker.brokers = brokers;
  return cfg;
}

Metrics run_batch(const SystemConfig& cfg, std::size_t count, Seconds spacing,
                  const obs::MetricsRegistry** registry_out = nullptr) {
  static std::vector<std::unique_ptr<simnet::Simulation>> sims;
  static std::vector<std::unique_ptr<System>> systems;
  sims.push_back(std::make_unique<simnet::Simulation>());
  systems.push_back(std::make_unique<System>(*sims.back(), cfg));
  System& system = *systems.back();
  Seconds at = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    system.submit(plans()[i % plans().size()], at);
    at += spacing;
  }
  const auto metrics = system.run();
  if (registry_out != nullptr) *registry_out = &system.registry();
  return metrics;
}

double counter_value(const obs::MetricsRegistry& registry,
                     std::string_view name) {
  const auto* c = registry.find_counter(name);
  return c != nullptr ? c->value() : 0.0;
}

// --- No-op knobs are bit-identical to the flat exhaustive path --------

TEST(BrokerSystemTest, NoOpSelectionIsBitIdenticalToExhaustiveSearch) {
  SystemConfig plain = brokered_config(4, 8, 2, 0);
  SystemConfig noop = brokered_config(4, 8, 2, 0);
  noop.broker.top_k = 8;           // k = num_shards: exhaustive by contract
  noop.broker.selectivity = 1.0;   // and the fraction axis at its no-op
  const obs::MetricsRegistry* reg = nullptr;
  const auto a = run_batch(plain, 6, 20.0);
  const auto b = run_batch(noop, 6, 20.0, &reg);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.migrations_pr, b.migrations_pr);
  EXPECT_EQ(a.questions_degraded, b.questions_degraded);
  // Nothing was ever pruned or routed through a broker.
  ASSERT_NE(reg, nullptr);
  EXPECT_DOUBLE_EQ(counter_value(*reg, "selection_questions_pruned"), 0.0);
  EXPECT_DOUBLE_EQ(counter_value(*reg, "broker_legs"), 0.0);
}

// --- Selective search -------------------------------------------------

TEST(BrokerSystemTest, SelectionPrunesWorkWithoutDegradingAnswers) {
  SystemConfig cfg = brokered_config(4, 8, 2, 0);
  cfg.broker.selectivity = 0.5;  // top 4 of 8 shards per question
  const obs::MetricsRegistry* reg = nullptr;
  const auto metrics = run_batch(cfg, 6, 20.0, &reg);
  EXPECT_EQ(metrics.completed, 6u);
  // Pruning is a routing decision, not a failure: no degradation.
  EXPECT_EQ(metrics.questions_degraded, 0u);
  EXPECT_EQ(metrics.shard_units_unserved, 0u);
  ASSERT_NE(reg, nullptr);
  EXPECT_GT(counter_value(*reg, "selection_questions_pruned"), 0.0);
  EXPECT_GT(counter_value(*reg, "selection_units_pruned"), 0.0);
  const auto* gauge = reg->find_gauge("degraded_answer_fraction");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
}

TEST(BrokerSystemTest, SelectionPrunedAnswersAreCacheable) {
  // A pruned answer is an approximate answer the operator asked for —
  // unlike a degraded one it may enter the answer cache.
  SystemConfig cfg = brokered_config(4, 8, 2, 0);
  cfg.broker.selectivity = 0.5;
  cfg.cache.answers.max_entries = 64;
  simnet::Simulation sim;
  System system(sim, cfg);
  system.submit(plans()[0], 0.0);
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.questions_degraded, 0u);
  bool cached = false;
  for (sched::NodeId n = 0; n < 4; ++n) {
    cached = cached || system.answer_cached(n, plans()[0]);
  }
  EXPECT_TRUE(cached);
}

TEST(BrokerSystemTest, CoriStatsDriveSelectionAtSystemLevel) {
  // Wire in a real CollectionStats (no term evidence: every belief is the
  // default, so CORI keeps the lowest shard ids). The system must score
  // through it rather than the work proxy and still drain cleanly.
  SystemConfig cfg = brokered_config(4, 8, 2, 0);
  cfg.broker.top_k = 3;
  std::vector<ir::ShardTermStats> shards(8);
  for (auto& s : shards) {
    s.words = 1000;
    s.paragraphs = 100;
  }
  cfg.broker.stats = std::make_shared<broker::CollectionStats>(
      broker::CollectionStats::from_shard_stats(std::move(shards)));
  const obs::MetricsRegistry* reg = nullptr;
  const auto metrics = run_batch(cfg, 4, 25.0, &reg);
  EXPECT_EQ(metrics.completed, 4u);
  EXPECT_EQ(metrics.questions_degraded, 0u);
  ASSERT_NE(reg, nullptr);
  EXPECT_GT(counter_value(*reg, "selection_questions_pruned"), 0.0);
}

// --- Broker/mediator tier ---------------------------------------------

TEST(BrokerSystemTest, BrokeredBatchDrainsThroughBrokerLegs) {
  SystemConfig cfg = brokered_config(6, 8, 2, 2);
  const obs::MetricsRegistry* reg = nullptr;
  const auto metrics = run_batch(cfg, 6, 20.0, &reg);
  EXPECT_EQ(metrics.completed, 6u);
  EXPECT_EQ(metrics.questions_degraded, 0u);
  EXPECT_EQ(metrics.shard_units_unserved, 0u);
  ASSERT_NE(reg, nullptr);
  EXPECT_GT(counter_value(*reg, "broker_legs"), 0.0);
  EXPECT_DOUBLE_EQ(counter_value(*reg, "broker_reroutes"), 0.0);
}

TEST(BrokerSystemTest, CrashedDesignatedBrokerReroutesThroughItsGroup) {
  simnet::Simulation sim;
  SystemConfig cfg = brokered_config(6, 8, 2, 2);
  System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  // Groups are {0,1,2} and {3,4,5}; node 3 fronts group 1. Kill it before
  // any question arrives: every group-1 slice must route through a
  // surviving group member instead.
  system.schedule_crash(3, 1.0);
  ASSERT_GE(plans()[0].pr_units.size(), 2u);  // odd units live in group 1
  Seconds at = 10.0;
  for (std::size_t i = 0; i < 4; ++i) {
    system.submit(plans()[i], at);
    at += 20.0;
  }
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 4u);
  EXPECT_EQ(metrics.crashes, 1u);
  // R=2 inside a 3-node group always leaves a live holder, so the
  // re-routed slices are served in full.
  EXPECT_EQ(metrics.questions_degraded, 0u);
  const auto* reroutes = system.registry().find_counter("broker_reroutes");
  ASSERT_NE(reroutes, nullptr);
  EXPECT_GE(reroutes->value(), 4.0);  // one per group-1 slice, at least
}

// --- Degraded broker answers: accounting + the cache rule -------------

TEST(BrokerSystemTest, DeadBrokerSubtreeDegradesAndNeverEntersTheCache) {
  simnet::Simulation sim;
  // Groups {0,1} and {2,3}, R=1: killing nodes 2 and 3 leaves group 1
  // with no broker and no replica — its slice can only be dropped.
  SystemConfig cfg = brokered_config(4, 8, 1, 2);
  cfg.cache.answers.max_entries = 64;
  System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  system.schedule_crash(2, 1.0);
  system.schedule_crash(3, 1.0);
  ASSERT_GE(plans()[0].pr_units.size(), 2u);
  system.submit(plans()[0], 10.0);
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.questions_degraded, 1u);
  EXPECT_GE(metrics.shard_units_unserved, 1u);
  EXPECT_GE(testing::count_instants(tracer, "no usable broker"), 1u);
  // The partial answer flows through the degraded accounting...
  const auto* gauge =
      system.registry().find_gauge("degraded_answer_fraction");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.0);
  // ...and was never admitted to any node's answer cache.
  for (sched::NodeId n = 0; n < 4; ++n) {
    EXPECT_FALSE(system.answer_cached(n, plans()[0]));
  }
}

TEST(BrokerSystemTest, BrokeredRunsAreDeterministic) {
  const auto run_once = [] {
    simnet::Simulation sim;
    SystemConfig cfg = brokered_config(6, 8, 2, 2);
    cfg.broker.selectivity = 0.5;
    cfg.faults.crashes.push_back(FaultEvent{3, 5.0, /*restart_after=*/60.0});
    System system(sim, cfg);
    Seconds at = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      system.submit(plans()[i], at);
      at += 15.0;
    }
    return system.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.questions_degraded, b.questions_degraded);
  EXPECT_EQ(a.shard_units_unserved, b.shard_units_unserved);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace qadist::cluster
