// Sharded corpus subsystem at cluster level: full replication stays
// bit-identical to the unsharded system, partial replication constrains PR
// placement to replica holders and cuts per-node storage, a holder crash
// fails over and re-replicates in the background, an unavailable shard
// degrades rather than blocks, and a rejoined holder re-validates its
// copies. Also the rejoin cache-clear regression (a leave/rejoin must cold
// the node's caches exactly like a crash does).

#include <gtest/gtest.h>

#include <vector>

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

SystemConfig sharded_config(std::size_t nodes, std::size_t num_shards,
                            std::size_t replication) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.partition.ap_chunk = 8;
  cfg.shard.num_shards = num_shards;
  cfg.shard.replication = replication;
  return cfg;
}

Metrics run_batch(const SystemConfig& cfg, std::size_t count,
                  Seconds spacing, Seconds start = 0.0) {
  simnet::Simulation sim;
  System system(sim, cfg);
  Seconds at = start;
  for (std::size_t i = 0; i < count; ++i) {
    system.submit(plans()[i % plans().size()], at);
    at += spacing;
  }
  return system.run();
}

TEST(ShardSystemTest, FullReplicationMatchesUnshardedBitForBit) {
  SystemConfig plain = sharded_config(4, 0, 0);  // sharding off
  SystemConfig full = sharded_config(4, 6, 0);   // R = nodes (default)
  const auto a = run_batch(plain, 4, 30.0);
  const auto b = run_batch(full, 4, 30.0);
  // Same event sequence: the map exists but placement is unconstrained,
  // so only the storage accounting differs.
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
  EXPECT_EQ(a.migrations_pr, b.migrations_pr);
  EXPECT_EQ(a.migrations_qa, b.migrations_qa);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_TRUE(a.node_storage_bytes.empty());
  ASSERT_EQ(b.node_storage_bytes.size(), 4u);
  for (double bytes : b.node_storage_bytes) {
    EXPECT_DOUBLE_EQ(bytes, 6.0 * static_cast<double>(shard::kShardBytes));
  }
}

TEST(ShardSystemTest, PartialReplicationCutsPerNodeStorageAndStillDrains) {
  const auto full = run_batch(sharded_config(4, 8, 0), 6, 20.0);
  const auto partial = run_batch(sharded_config(4, 8, 2), 6, 20.0);
  EXPECT_EQ(partial.completed, 6u);
  EXPECT_EQ(partial.questions_degraded, 0u);  // every shard has live holders
  EXPECT_EQ(partial.shard_units_unserved, 0u);
  // R=2 of 4: half the replicas, so the worst node stores well under the
  // everything-everywhere footprint.
  EXPECT_GT(partial.max_storage_bytes(), 0.0);
  EXPECT_LT(partial.max_storage_bytes(), full.max_storage_bytes());
  double total = 0.0;
  for (double bytes : partial.node_storage_bytes) total += bytes;
  EXPECT_DOUBLE_EQ(
      total, 8.0 * 2.0 * static_cast<double>(shard::kShardBytes));
}

TEST(ShardSystemTest, CrashedHolderFailsOverAndRebuildsInBackground) {
  simnet::Simulation sim;
  SystemConfig cfg = sharded_config(4, 8, 2);
  System system(sim, cfg);
  const shard::ShardMap* map = system.shard_map();
  ASSERT_NE(map, nullptr);
  // Crash a node known to hold replicas (every ready source is a holder).
  const sched::NodeId victim =
      static_cast<sched::NodeId>(*map->ready_source(0));
  const std::size_t lost = map->shards_of(victim).size();
  ASSERT_GT(lost, 0u);
  system.schedule_crash(victim, 5.0);
  Seconds at = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    system.submit(plans()[i], at);
    at += 20.0;
  }
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 6u);
  EXPECT_EQ(metrics.crashes, 1u);
  // One failover per lost shard (R=2 on 4 nodes always leaves both a
  // surviving source and a spare target), and with no further faults every
  // rebuild runs to completion before the simulation drains.
  EXPECT_EQ(metrics.shard_failovers, lost);
  EXPECT_EQ(metrics.shard_rebuilds, lost);
  EXPECT_EQ(metrics.shard_rebuild_bytes,
            lost * static_cast<std::size_t>(shard::kShardBytes));
  EXPECT_EQ(metrics.shard_rebuild_seconds.count(), lost);
  // Every copy pays at least the rebuild-bandwidth pacing floor.
  const double floor = shard::kRebuildBandwidth.transfer_time(
      static_cast<double>(shard::kShardBytes));
  EXPECT_GE(metrics.shard_rebuild_seconds.min(), floor);
  // The map healed: replication is restored on the survivors.
  EXPECT_EQ(map->replica_count(victim), 0u);
  for (shard::ShardId s = 0; s < 8; ++s) {
    EXPECT_EQ(map->ready_holders(s).size(), 2u);
  }
}

TEST(ShardSystemTest, UnavailableShardDegradesInsteadOfBlocking) {
  simnet::Simulation sim;
  SystemConfig cfg = sharded_config(2, 4, 1);  // R=1: no failover source
  System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  const shard::ShardMap* map = system.shard_map();
  ASSERT_NE(map, nullptr);
  const sched::NodeId victim =
      static_cast<sched::NodeId>(*map->ready_source(0));
  system.schedule_crash(victim, 1.0);
  ASSERT_GE(plans()[0].pr_units.size(), 1u);  // unit 0 lives on shard 0
  system.submit(plans()[0], 10.0);
  const auto metrics = system.run();
  // The question completes — degraded by the dead holder's corpus slice —
  // and nothing was rebuilt (no surviving replica to copy from).
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.questions_degraded, 1u);
  EXPECT_GE(metrics.shard_units_unserved, 1u);
  EXPECT_EQ(metrics.shard_rebuilds, 0u);
  EXPECT_GE(testing::count_instants(tracer, "no ready replica"), 1u);
  EXPECT_GE(testing::count_instants(tracer, "unavailable"), 1u);
}

TEST(ShardSystemTest, RestartedHolderRevalidatesItsShards) {
  simnet::Simulation sim;
  SystemConfig cfg = sharded_config(4, 8, 2);
  System system(sim, cfg);
  const shard::ShardMap* map = system.shard_map();
  ASSERT_NE(map, nullptr);
  const sched::NodeId victim =
      static_cast<sched::NodeId>(*map->ready_source(0));
  const auto lost = map->shards_of(victim);
  system.schedule_crash(victim, 5.0, /*restart_after=*/120.0);
  Seconds at = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    system.submit(plans()[i], at);
    at += 60.0;
  }
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 4u);
  // The rejoined node re-scanned every stashed copy before serving again.
  EXPECT_EQ(metrics.shard_revalidations, lost.size());
  for (shard::ShardId s : lost) {
    EXPECT_TRUE(map->ready(static_cast<shard::NodeId>(victim), s));
  }
}

TEST(ShardSystemTest, ShardedRunsAreDeterministic) {
  const auto run_once = [] {
    simnet::Simulation sim;
    SystemConfig cfg = sharded_config(4, 8, 2);
    cfg.faults.crashes.push_back(FaultEvent{1, 5.0, /*restart_after=*/60.0});
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
  EXPECT_EQ(a.shard_failovers, b.shard_failovers);
  EXPECT_EQ(a.shard_rebuilds, b.shard_rebuilds);
  EXPECT_EQ(a.shard_revalidations, b.shard_revalidations);
  EXPECT_EQ(a.questions_degraded, b.questions_degraded);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

// --- Rejoin cache-clear regression -----------------------------------
// A peer confirmed dead by the failure detector and heard from again went
// through an unobserved outage; its cache shards must come back cold,
// exactly as a crash-restart's do. Before the fix, a graceful
// leave + rejoin kept the stale entries.

TEST(ShardSystemTest, RejoinAfterConfirmedDeathClearsTheNodesCaches) {
  SystemConfig cfg;
  cfg.nodes = 3;
  cfg.partition.ap_chunk = 8;
  cfg.cache.answers.max_entries = 64;
  cfg.cache.paragraphs.max_entries = 64;

  sched::NodeId preferred = 0;
  {
    simnet::Simulation sim;
    System probe(sim, cfg);
    const auto node = probe.preferred_node(plans()[0]);
    ASSERT_TRUE(node.has_value());
    preferred = *node;
  }

  simnet::Simulation sim;
  System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  system.prewarm(plans()[0]);
  ASSERT_TRUE(system.answer_cached(preferred, plans()[0]));
  // Graceful leave at 1 s: silence hardens into kDead at the membership
  // timeout; the rejoin broadcast at 20 s is the first sign of life.
  system.schedule_leave(preferred, 1.0);
  system.schedule_join(preferred, 20.0);
  // An unrelated question keeps the cluster running past the rejoin.
  system.submit(plans()[1], 40.0);
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_GE(metrics.detector_rejoins, 1u);
  EXPECT_GE(metrics.rejoin_cache_clears, 1u);
  // The prewarmed entry did not survive the outage.
  EXPECT_FALSE(system.answer_cached(preferred, plans()[0]));
  EXPECT_GE(system.answer_cache_stats(preferred).invalidations, 1u);
  EXPECT_GE(testing::count_instants(tracer, "rejoined after confirmed death"), 1u);
}

TEST(ShardSystemTest, CrashOfNonHolderLeavesTheMapAlone) {
  simnet::Simulation sim;
  // 1 shard, R=2 on 4 nodes: two nodes are guaranteed to hold nothing.
  SystemConfig cfg = sharded_config(4, 1, 2);
  System system(sim, cfg);
  const shard::ShardMap* map = system.shard_map();
  ASSERT_NE(map, nullptr);
  sched::NodeId idle = 0;
  bool found = false;
  for (sched::NodeId n = 0; n < 4 && !found; ++n) {
    if (map->replica_count(static_cast<shard::NodeId>(n)) == 0) {
      idle = n;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  system.schedule_crash(idle, 5.0);
  system.submit(plans()[0], 10.0);
  const auto metrics = system.run();
  EXPECT_EQ(metrics.completed, 1u);
  EXPECT_EQ(metrics.shard_failovers, 0u);
  EXPECT_EQ(metrics.shard_rebuilds, 0u);
  EXPECT_EQ(metrics.questions_degraded, 0u);
}

}  // namespace
}  // namespace qadist::cluster
