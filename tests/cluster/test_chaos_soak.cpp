// Chaos soak: random message loss, duplication, jitter, a scripted
// partition, AND random node crashes with restarts, all at once, for ten
// simulated minutes. The invariant under test is liveness — every
// submitted question either completes in full or completes flagged
// degraded; nothing hangs — plus bit-level determinism of the whole run.
//
// Runs as its own ctest binary (it soaks longer than a unit test should)
// and honors QADIST_CHAOS_SEED so CI can pin the schedule while a local
// run can explore other seeds.

#include <gtest/gtest.h>

#include <cstdlib>

#include "cluster/system.hpp"
#include "common/rng.hpp"
#include "support/test_world.hpp"

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
    for (std::size_t i = 0; i < 16; ++i) {
      out.push_back(make_plan(*world.engine, cost, world.questions[i]));
    }
    return out;
  }();
  return p;
}

std::uint64_t chaos_seed() {
  const char* env = std::getenv("QADIST_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1913;
  return std::strtoull(env, nullptr, 10);
}

/// `brokered` adds a two-level broker tier (2 groups of 3) with CORI-style
/// selection at 0.5 on top of the sharded corpus; `broker_legs`, when set,
/// receives how many broker legs the run issued.
Metrics soak(std::uint64_t seed, bool sharded = false, bool gray = false,
             bool brokered = false, double* broker_legs = nullptr) {
  simnet::Simulation sim;
  SystemConfig cfg;
  if (gray) {
    // Random gray-fault schedule derived from the soak seed: three
    // degradation windows at random nodes/times/severities, plus the full
    // tail toolkit to react to them. Same seed, same schedule — the replay
    // test still holds bit for bit.
    Rng gray_rng(seed ^ 0xa0761d6478bd642fULL);
    for (int i = 0; i < 3; ++i) {
      simnet::GrayFaultEvent ev;
      ev.node = static_cast<sched::NodeId>(gray_rng.uniform_u64(0, 5));
      ev.at = gray_rng.uniform(0.0, 400.0);
      ev.recover_after = gray_rng.uniform(30.0, 150.0);
      ev.cpu_factor = gray_rng.uniform(2.0, 10.0);
      ev.disk_factor = gray_rng.uniform(2.0, 10.0);
      cfg.gray.events.push_back(ev);
    }
    cfg.tail.hedge = true;
    cfg.tail.tied = true;
    cfg.tail.latency_aware = true;
  }
  if (sharded || brokered) {
    // Partially-replicated corpus on top of all the chaos: crashes now also
    // cost shard failovers, background rebuilds, and rejoin re-validation.
    cfg.shard.num_shards = 8;
    cfg.shard.replication = 2;
  }
  if (brokered) {
    // Brokers front each group; a crashed broker's slice re-routes through
    // an acting broker while its in-group workers may be orphaned mid-leg.
    cfg.broker.brokers = 2;
    cfg.broker.selectivity = 0.5;
  }
  cfg.nodes = 6;
  cfg.seed = seed;
  cfg.dispatch.policy = Policy::kDqa;
  cfg.partition.ap_strategy = parallel::Strategy::kRecv;
  cfg.partition.ap_chunk = 8;
  // The network misbehaves constantly...
  cfg.net.faults.drop_probability = 0.03;
  cfg.net.faults.duplicate_probability = 0.01;
  cfg.net.faults.jitter_min = 0.001;
  cfg.net.faults.jitter_max = 0.02;
  // ...two nodes fall off the network for a minute mid-soak...
  cfg.net.faults.partitions.push_back(
      simnet::PartitionWindow{60.0, 120.0, {4, 5}});
  // ...and on top of that, nodes crash at random and reboot cold.
  cfg.faults.mtbf = 120.0;
  cfg.faults.restart_after = 45.0;
  // Generous budget: degradation is allowed, hanging is not.
  cfg.net.reliability.question_deadline = 240.0;
  cfg.cache.answers.max_entries = 64;
  cfg.cache.paragraphs.max_entries = 64;

  System system(sim, cfg);
  Seconds at = 0.0;
  for (std::size_t i = 0; i < 30; ++i) {
    system.submit(plans()[i % plans().size()], at);
    at += 20.0;  // 30 questions over 10 simulated minutes
  }
  const Metrics m = system.run();
  if (broker_legs != nullptr) {
    *broker_legs = system.registry().find_counter("broker_legs")->value();
  }
  return m;
}

TEST(ChaosSoakTest, EveryQuestionCompletesOrDegradesNeverHangs) {
  const auto m = soak(chaos_seed());
  EXPECT_EQ(m.submitted, 30u);
  EXPECT_EQ(m.completed, 30u);
  EXPECT_EQ(m.latencies.count(), 30u);
  // Degraded answers are completions too; they are counted inside the 30,
  // never in addition to it.
  EXPECT_LE(m.questions_degraded, m.completed);
  // The chaos actually happened.
  EXPECT_GT(m.net_drops, 0u);
  EXPECT_GT(m.net_partition_drops, 0u);
  EXPECT_GT(m.net_retries, 0u);
  EXPECT_GT(m.crashes, 0u);
}

TEST(ChaosSoakTest, SameSeedReplaysBitIdentically) {
  const std::uint64_t seed = chaos_seed();
  const auto a = soak(seed);
  const auto b = soak(seed);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.net_drops, b.net_drops);
  EXPECT_EQ(a.net_duplicates, b.net_duplicates);
  EXPECT_EQ(a.net_retries, b.net_retries);
  EXPECT_EQ(a.net_send_failures, b.net_send_failures);
  EXPECT_EQ(a.legs_unreachable, b.legs_unreachable);
  EXPECT_EQ(a.detector_suspicions, b.detector_suspicions);
  EXPECT_EQ(a.detector_deaths, b.detector_deaths);
  EXPECT_EQ(a.detector_rejoins, b.detector_rejoins);
  EXPECT_EQ(a.questions_degraded, b.questions_degraded);
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
}

TEST(ChaosSoakTest, ShardedSoakCompletesOrDegradesNeverHangs) {
  const auto m = soak(chaos_seed(), /*sharded=*/true);
  EXPECT_EQ(m.submitted, 30u);
  EXPECT_EQ(m.completed, 30u);
  EXPECT_EQ(m.latencies.count(), 30u);
  EXPECT_LE(m.questions_degraded, m.completed);
  EXPECT_GT(m.crashes, 0u);
  // Shard bookkeeping stays self-consistent under chaos: completed
  // rebuilds never exceed the failovers that scheduled them, and every
  // completed rebuild copied exactly one shard artifact.
  EXPECT_LE(m.shard_rebuilds, m.shard_failovers);
  EXPECT_EQ(m.shard_rebuild_bytes, m.shard_rebuilds * 64_MB);
  EXPECT_EQ(m.shard_rebuild_seconds.count(), m.shard_rebuilds);
}

TEST(ChaosSoakTest, GraySoakCompletesOrDegradesNeverHangs) {
  // All of the above chaos plus three random gray-degradation windows and
  // the tail toolkit (hedging + tied cancellation + latency-aware
  // selection) reacting to them under fire.
  const auto m = soak(chaos_seed(), /*sharded=*/false, /*gray=*/true);
  EXPECT_EQ(m.submitted, 30u);
  EXPECT_EQ(m.completed, 30u);
  EXPECT_EQ(m.latencies.count(), 30u);
  EXPECT_LE(m.questions_degraded, m.completed);
  EXPECT_EQ(m.gray_onsets, 3u);
  // Hedge accounting stays consistent even with crashes and partitions
  // racing the hedges: settled races never exceed issued backups.
  EXPECT_LE(m.hedge_wins + m.hedge_losses, m.hedges_issued);
}

TEST(ChaosSoakTest, GraySoakReplaysBitIdentically) {
  const std::uint64_t seed = chaos_seed();
  const auto a = soak(seed, /*sharded=*/false, /*gray=*/true);
  const auto b = soak(seed, /*sharded=*/false, /*gray=*/true);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.gray_onsets, b.gray_onsets);
  EXPECT_EQ(a.gray_recoveries, b.gray_recoveries);
  EXPECT_EQ(a.hedges_issued, b.hedges_issued);
  EXPECT_EQ(a.hedge_wins, b.hedge_wins);
  EXPECT_EQ(a.hedge_losses, b.hedge_losses);
  EXPECT_EQ(a.legs_cancelled, b.legs_cancelled);
  EXPECT_EQ(a.straggler_avoidances, b.straggler_avoidances);
  EXPECT_EQ(a.questions_degraded, b.questions_degraded);
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
}

TEST(ChaosSoakTest, ShardedSoakReplaysBitIdentically) {
  const std::uint64_t seed = chaos_seed();
  const auto a = soak(seed, /*sharded=*/true);
  const auto b = soak(seed, /*sharded=*/true);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.shard_failovers, b.shard_failovers);
  EXPECT_EQ(a.shard_rebuilds, b.shard_rebuilds);
  EXPECT_EQ(a.shard_revalidations, b.shard_revalidations);
  EXPECT_EQ(a.shard_units_unserved, b.shard_units_unserved);
  EXPECT_EQ(a.questions_degraded, b.questions_degraded);
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
}

TEST(ChaosSoakTest, BrokeredSoakCompletesOrDegradesNeverHangs) {
  // All of the above chaos through the broker tier: broker crashes,
  // orphaned in-group workers and unreachable brokers race the host's
  // re-routing and the deadline.
  double broker_legs = 0.0;
  const auto m = soak(chaos_seed(), /*sharded=*/true, /*gray=*/false,
                      /*brokered=*/true, &broker_legs);
  EXPECT_EQ(m.submitted, 30u);
  EXPECT_EQ(m.completed, 30u);
  EXPECT_EQ(m.latencies.count(), 30u);
  EXPECT_LE(m.questions_degraded, m.completed);
  EXPECT_GT(m.crashes, 0u);
  EXPECT_GT(broker_legs, 0.0);
}

TEST(ChaosSoakTest, BrokeredSoakReplaysBitIdentically) {
  const std::uint64_t seed = chaos_seed();
  double legs_a = 0.0;
  double legs_b = 0.0;
  const auto a = soak(seed, true, false, /*brokered=*/true, &legs_a);
  const auto b = soak(seed, true, false, /*brokered=*/true, &legs_b);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(legs_a, legs_b);
  EXPECT_EQ(a.legs_lost, b.legs_lost);
  EXPECT_EQ(a.recovery_legs, b.recovery_legs);
  EXPECT_EQ(a.legs_unreachable, b.legs_unreachable);
  EXPECT_EQ(a.shard_units_unserved, b.shard_units_unserved);
  EXPECT_EQ(a.questions_degraded, b.questions_degraded);
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
}

}  // namespace
}  // namespace qadist::cluster
