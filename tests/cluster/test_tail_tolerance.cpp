// Gray faults and the tail-tolerance toolkit (cfg.gray / cfg.tail).
//
// Two families of guarantees:
//  * Pinning — with cfg.tail and cfg.gray at their defaults the system is
//    bit-identical to the pre-toolkit build: the golden constants below
//    were captured from the seed commit, and every EXPECT_DOUBLE_EQ is an
//    exact (not approximate) comparison. Any drift here means the
//    default-disabled path executes different arithmetic than before.
//  * Behavior — with the toolkit on, hedged runs drain completely, tied
//    losers cancel without zombie spans, the latency decomposition still
//    telescopes, and the failure detector stays blind to gray-slow nodes.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "obs/critical_path.hpp"
#include "obs/span.hpp"
#include "support/test_world.hpp"
#include "workload/driver.hpp"

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

// ---------------------------------------------------------------------------
// Pinning: cfg.tail disabled == pre-PR behavior, bit for bit.

struct GoldenRun {
  Metrics metrics;
  std::size_t spans = 0;
  double span_start_sum = 0.0;
  double span_end_sum = 0.0;
};

GoldenRun golden_scenario(bool sharded) {
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 6;
  cfg.seed = 42;
  cfg.dispatch.policy = Policy::kDqa;
  cfg.partition.ap_strategy = parallel::Strategy::kRecv;
  cfg.partition.ap_chunk = 8;
  if (sharded) {
    cfg.shard.num_shards = 8;
    cfg.shard.replication = 2;
  }
  System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);

  OverloadWorkload workload;
  workload.count = 24;
  workload.seed = 5;
  workload::Driver(system, plans()).submit({.overload = workload});

  GoldenRun out;
  out.metrics = system.run();
  out.spans = tracer.spans().size();
  for (const auto& s : tracer.spans()) {
    out.span_start_sum += s.start;
    out.span_end_sum += s.end;
  }
  return out;
}

TEST(TailPinningTest, DisabledTailIsBitIdenticalToPreToolkitBuild) {
  const GoldenRun run = golden_scenario(/*sharded=*/false);
  const Samples& lat = run.metrics.latencies;
  EXPECT_DOUBLE_EQ(run.metrics.makespan, 775.36570072796212);
  EXPECT_EQ(lat.count(), 24u);
  EXPECT_DOUBLE_EQ(lat.mean(), 222.18277746675463);
  EXPECT_DOUBLE_EQ(lat.stddev(), 106.94527020607119);
  EXPECT_DOUBLE_EQ(lat.min(), 67.719574094712442);
  EXPECT_DOUBLE_EQ(lat.max(), 418.24967198507818);
  EXPECT_DOUBLE_EQ(lat.quantile(0.5), 222.96603597938031);
  EXPECT_DOUBLE_EQ(lat.quantile(0.95), 390.54545095696812);
  // The span digest pins the entire event schedule, not just the summary
  // stats: a single re-ordered or re-timed coroutine resumption moves it.
  EXPECT_EQ(run.spans, 511u);
  EXPECT_DOUBLE_EQ(run.span_start_sum, 95812.519198851922);
  EXPECT_DOUBLE_EQ(run.span_end_sum, 115087.59435374184);
  // And the toolkit really was off.
  EXPECT_EQ(run.metrics.hedges_issued, 0u);
  EXPECT_EQ(run.metrics.legs_cancelled, 0u);
  EXPECT_EQ(run.metrics.straggler_avoidances, 0u);
  EXPECT_EQ(run.metrics.gray_onsets, 0u);
}

TEST(TailPinningTest, DisabledTailIsBitIdenticalShardedVariant) {
  const GoldenRun run = golden_scenario(/*sharded=*/true);
  const Samples& lat = run.metrics.latencies;
  EXPECT_DOUBLE_EQ(run.metrics.makespan, 792.20730903250535);
  EXPECT_EQ(lat.count(), 24u);
  EXPECT_DOUBLE_EQ(lat.mean(), 243.20300295798816);
  EXPECT_DOUBLE_EQ(lat.stddev(), 105.59967097603098);
  EXPECT_DOUBLE_EQ(lat.min(), 86.990668840128123);
  EXPECT_DOUBLE_EQ(lat.max(), 435.09128028962141);
  EXPECT_DOUBLE_EQ(lat.quantile(0.5), 276.85229484212118);
  EXPECT_DOUBLE_EQ(lat.quantile(0.95), 386.14349700682209);
  EXPECT_EQ(run.spans, 462u);
  EXPECT_DOUBLE_EQ(run.span_start_sum, 89007.404799228389);
  EXPECT_DOUBLE_EQ(run.span_end_sum, 109686.91212788821);
}

// ---------------------------------------------------------------------------
// Behavior with the toolkit on: a 12-node cluster at moderate load with
// one 10x gray-slow node (CPU and disk; heartbeats unaffected).

struct TailRun {
  Metrics metrics;
  std::vector<obs::SpanRecord> spans;
  std::vector<obs::QuestionBreakdown> questions;
};

TailRun tail_scenario(bool hedge, bool tied, bool latency_aware,
                      bool sharded = false) {
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 12;
  cfg.seed = 42;
  cfg.dispatch.policy = Policy::kDqa;
  cfg.partition.ap_strategy = parallel::Strategy::kRecv;
  cfg.partition.ap_chunk = 8;
  if (sharded) {
    cfg.shard.num_shards = 8;
    cfg.shard.replication = 2;
  }
  cfg.tail.hedge = hedge;
  cfg.tail.tied = tied;
  cfg.tail.latency_aware = latency_aware;
  simnet::GrayFaultEvent ev;
  ev.node = 2;
  ev.at = 50.0;
  ev.cpu_factor = 10.0;
  ev.disk_factor = 10.0;
  cfg.gray.events.push_back(ev);

  System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  OverloadWorkload workload;
  workload.count = 48;
  workload.overload_factor = 0.6;  // moderate: tails come from the gray node
  workload.seed = 5;
  workload::Driver(system, plans()).submit({.overload = workload});

  TailRun out;
  out.metrics = system.run();
  out.spans = tracer.spans();
  out.questions = obs::analyze_questions(tracer);
  return out;
}

TEST(TailToleranceTest, HedgedRunDrainsCompletely) {
  const TailRun run = tail_scenario(true, true, true);
  const Metrics& m = run.metrics;
  // Drain invariant: everything submitted is accounted for, nothing hangs.
  EXPECT_EQ(m.submitted, 48u);
  EXPECT_EQ(m.completed + m.questions_rejected + m.questions_shed,
            m.submitted);
  EXPECT_EQ(m.latencies.count(), m.completed);
  // The machinery actually engaged.
  EXPECT_GT(m.hedges_issued, 0u);
  EXPECT_GT(m.hedge_wins, 0u);
  EXPECT_GT(m.legs_cancelled, 0u);
  EXPECT_GT(m.gray_onsets, 0u);
  // Each hedge race settles at most once: one win or loss per group, and
  // groups never outnumber the backup legs that created them.
  EXPECT_LE(m.hedge_wins + m.hedge_losses, m.hedges_issued);
  EXPECT_GE(m.hedge_wins + m.hedge_losses, 1u);
}

TEST(TailToleranceTest, CancelledLegsAreNeverZombieSpans) {
  const TailRun run = tail_scenario(true, true, true);
  std::size_t losers = 0;
  for (const obs::SpanRecord& s : run.spans) {
    // Every span the run produced is closed — an abandoned leg whose span
    // stayed open would be a zombie the coordinator forgot.
    EXPECT_TRUE(s.closed) << "open span: " << s.name;
    if (obs::attr_int(s.attrs, "hedge_loser").value_or(0) != 0) {
      ++losers;
      // In tied mode every loser was cancelled, and its interval ends at
      // resolution — never after the run.
      EXPECT_EQ(obs::attr_int(s.attrs, "cancelled").value_or(0), 1);
      EXPECT_LE(s.end, run.metrics.makespan + 1e-9);
    }
  }
  EXPECT_GT(losers, 0u);
}

TEST(TailToleranceTest, CriticalPathTelescopesOnHedgedRuns) {
  for (const bool sharded : {false, true}) {
    const TailRun run = tail_scenario(true, true, true, sharded);
    ASSERT_FALSE(run.questions.empty());
    for (const obs::QuestionBreakdown& q : run.questions) {
      EXPECT_NEAR(q.component_sum(), q.total,
                  1e-6 * std::max(1.0, q.total))
          << "question " << q.question << " sharded=" << sharded;
      EXPECT_GE(q.hedge_wasted, 0.0);
    }
    const obs::RunAttribution attribution = obs::attribute_run(run.questions);
    // Some loser work must surface as waste when hedges resolved.
    if (run.metrics.hedge_losses + run.metrics.hedge_wins > 0) {
      EXPECT_GT(attribution.hedge_wasted, 0.0);
    }
  }
}

TEST(TailToleranceTest, HedgingImprovesTailUnderGraySlowNode) {
  const TailRun none = tail_scenario(false, false, false);
  const TailRun full = tail_scenario(true, true, true);
  // The whole point: with one 10x-slow node, hedging + tied + selection
  // pulls the tail in by a wide margin.
  EXPECT_LT(full.metrics.latencies.quantile(0.95),
            0.5 * none.metrics.latencies.quantile(0.95));
  EXPECT_EQ(full.metrics.completed, none.metrics.completed);
}

TEST(GrayFaultTest, DetectorStaysBlindToLosslessGraySlowNode) {
  // A gray-slow node keeps its heartbeats and loses no messages: the
  // failure detector must never flap it off alive — that blindness is
  // what motivates the latency-signal toolkit.
  const TailRun run = tail_scenario(false, false, false);
  EXPECT_EQ(run.metrics.detector_suspicions, 0u);
  EXPECT_EQ(run.metrics.detector_deaths, 0u);
  EXPECT_EQ(run.metrics.completed, run.metrics.submitted);
  EXPECT_EQ(run.metrics.gray_onsets, 1u);
  EXPECT_EQ(run.metrics.gray_recoveries, 0u);  // no recover_after scripted
}

TEST(GrayFaultTest, RecoveryWindowClosesAndCounts) {
  simnet::Simulation sim;
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.seed = 7;
  cfg.partition.ap_chunk = 8;
  simnet::GrayFaultEvent ev;
  ev.node = 1;
  ev.at = 10.0;
  ev.recover_after = 120.0;
  ev.disk_factor = 10.0;
  cfg.gray.events.push_back(ev);
  System system(sim, cfg);
  OverloadWorkload workload;
  workload.count = 12;
  workload.seed = 3;
  workload::Driver(system, plans()).submit({.overload = workload});
  const Metrics m = system.run();
  EXPECT_EQ(m.completed, 12u);
  EXPECT_EQ(m.gray_onsets, 1u);
  EXPECT_EQ(m.gray_recoveries, 1u);
}

}  // namespace
}  // namespace qadist::cluster
