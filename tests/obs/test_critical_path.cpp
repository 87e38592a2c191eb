#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>

#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "obs/critical_path.hpp"
#include "obs/span.hpp"
#include "support/test_world.hpp"
#include "workload/driver.hpp"

namespace qadist::obs {
namespace {

// Golden span tree, built by hand so every component is known exactly:
//
//   question [10, 100], latency_seconds = 95  ->  queue wait 5
//     cache lookup [10, 10.5]
//     QP           [10.5, 11.5]
//     (0.5 restart gap -> retry)
//     PR           [12, 40]
//       PR leg A   [12, 30]   net 0.25
//       PR leg B   [13, 38]   net 2.0, backoff 1.5   <- critical (retried)
//         PS       [20, 24]
//       (2.0 gather tail -> merge)
//     (0.5 restart gap -> retry)
//     PO           [40.5, 41]
//     AP           [41, 90]
//       AP leg C   [41, 80]   net 0.5
//       AP leg D   [42, 90]   net 1.0               <- critical
//     (10.0 answer merge tail -> merge)
Tracer golden_tracer() {
  Tracer tracer;
  const auto track = tracer.new_track();
  const SpanId q = tracer.begin_span(10.0, "question", 0, track, kNoSpan,
                                     {{"question", std::int64_t{7}}});
  const SpanId cache = tracer.begin_span(10.0, "cache lookup", 0, track, q);
  tracer.end_span(cache, 10.5);
  const SpanId qp = tracer.begin_span(10.5, "QP", 0, track, q);
  tracer.end_span(qp, 11.5);

  const SpanId pr = tracer.begin_span(12.0, "PR", 0, track, q);
  const SpanId leg_a =
      tracer.begin_span(12.0, "PR leg", 1, tracer.new_track(), pr);
  tracer.end_span(leg_a, 30.0, {{"net_seconds", 0.25}});
  const SpanId leg_b =
      tracer.begin_span(13.0, "PR leg", 2, tracer.new_track(), pr);
  const SpanId ps = tracer.begin_span(20.0, "PS", 2, tracer.new_track(), leg_b);
  tracer.end_span(ps, 24.0);
  tracer.end_span(leg_b, 38.0,
                  {{"net_seconds", 2.0}, {"backoff_seconds", 1.5}});
  tracer.end_span(pr, 40.0);

  const SpanId po = tracer.begin_span(40.5, "PO", 0, track, q);
  tracer.end_span(po, 41.0);

  const SpanId ap = tracer.begin_span(41.0, "AP", 0, track, q);
  const SpanId leg_c =
      tracer.begin_span(41.0, "AP leg", 1, tracer.new_track(), ap);
  tracer.end_span(leg_c, 80.0, {{"net_seconds", 0.5}});
  const SpanId leg_d =
      tracer.begin_span(42.0, "AP leg", 3, tracer.new_track(), ap);
  tracer.end_span(leg_d, 90.0, {{"net_seconds", 1.0}});
  tracer.end_span(ap, 90.0);

  tracer.end_span(q, 100.0,
                  {{"latency_seconds", 95.0},
                   {"restarts", std::int64_t{1}},
                   {"cached", std::int64_t{0}},
                   {"degraded", std::int64_t{1}}});
  return tracer;
}

TEST(CriticalPathTest, GoldenSpanTreeDecomposesExactly) {
  const Tracer tracer = golden_tracer();
  const auto questions = analyze_questions(tracer);
  ASSERT_EQ(questions.size(), 1u);
  const QuestionBreakdown& b = questions.front();

  EXPECT_EQ(b.question, 7);
  EXPECT_EQ(b.restarts, 1);
  EXPECT_FALSE(b.cached);
  EXPECT_TRUE(b.degraded);

  EXPECT_DOUBLE_EQ(b.total, 95.0);
  EXPECT_DOUBLE_EQ(b.queue, 5.0);
  EXPECT_DOUBLE_EQ(b.service.cache_lookup, 0.5);
  EXPECT_DOUBLE_EQ(b.service.qp, 1.0);
  // Critical PR leg: (38 - 13) minus net 2.0, backoff 1.5, PS 4.0.
  EXPECT_DOUBLE_EQ(b.service.pr, 17.5);
  EXPECT_DOUBLE_EQ(b.service.ps, 4.0);
  EXPECT_DOUBLE_EQ(b.service.po, 0.5);
  // Critical AP leg: (90 - 42) minus net 1.0.
  EXPECT_DOUBLE_EQ(b.service.ap, 47.0);
  // Critical legs' wire time only: 2.0 (PR) + 1.0 (AP).
  EXPECT_DOUBLE_EQ(b.network, 3.0);
  // Two 0.5 inter-stage gaps + 1.0 PR spawn delay + 1.5 backoff +
  // 1.0 AP spawn delay.
  EXPECT_DOUBLE_EQ(b.retry, 4.5);
  // 2.0 PR gather tail + 10.0 final answer merge.
  EXPECT_DOUBLE_EQ(b.merge, 12.0);

  EXPECT_DOUBLE_EQ(b.component_sum(), b.total);

  ASSERT_EQ(b.critical_legs.size(), 2u);
  EXPECT_EQ(b.critical_legs[0].stage, "PR");
  EXPECT_EQ(b.critical_legs[0].node, 2u);
  EXPECT_DOUBLE_EQ(b.critical_legs[0].seconds, 25.0);
  EXPECT_EQ(b.critical_legs[1].stage, "AP");
  EXPECT_EQ(b.critical_legs[1].node, 3u);
  EXPECT_DOUBLE_EQ(b.critical_legs[1].seconds, 48.0);
}

TEST(CriticalPathTest, RunAttributionAggregatesAndBlames) {
  const Tracer tracer = golden_tracer();
  const RunAttribution run = attribute_run(tracer);
  EXPECT_EQ(run.questions, 1u);
  EXPECT_EQ(run.cached, 0u);
  EXPECT_EQ(run.degraded, 1u);
  EXPECT_DOUBLE_EQ(run.total, 95.0);
  EXPECT_DOUBLE_EQ(run.share(run.queue), 5.0 / 95.0);
  // Nodes 2 (PR) and 3 (AP) decided the fork-join stages.
  ASSERT_EQ(run.critical_leg_counts.size(), 4u);
  EXPECT_EQ(run.critical_leg_counts[2], 1u);
  EXPECT_EQ(run.critical_leg_counts[3], 1u);
  const std::string rendered = render_attribution(run);
  EXPECT_NE(rendered.find("queue wait"), std::string::npos);
  EXPECT_NE(rendered.find("N3=1"), std::string::npos);
}

TEST(CriticalPathTest, StageWithoutLegsIsSupervisionTime) {
  Tracer tracer;
  const auto track = tracer.new_track();
  const SpanId q = tracer.begin_span(5.0, "question", 0, track);
  const SpanId pr = tracer.begin_span(5.0, "PR", 0, track, q);
  tracer.end_span(pr, 8.0);  // every unit unplaced: no legs
  tracer.end_span(q, 9.0);

  const auto questions = analyze_questions(tracer);
  ASSERT_EQ(questions.size(), 1u);
  const QuestionBreakdown& b = questions.front();
  EXPECT_DOUBLE_EQ(b.total, 4.0);  // falls back to the span duration
  EXPECT_DOUBLE_EQ(b.queue, 0.0);
  EXPECT_DOUBLE_EQ(b.service.total(), 0.0);
  EXPECT_DOUBLE_EQ(b.merge, 4.0);  // 3.0 legless stage + 1.0 tail
  EXPECT_DOUBLE_EQ(b.component_sum(), b.total);
  EXPECT_TRUE(b.critical_legs.empty());
}

TEST(CriticalPathTest, OpenAndForeignSpansAreSkipped) {
  Tracer tracer;
  const auto track = tracer.new_track();
  tracer.begin_span(0.0, "question", 0, track);  // never closed
  const SpanId other = tracer.begin_span(0.0, "heartbeat", 0, track);
  tracer.end_span(other, 1.0);
  EXPECT_TRUE(analyze_questions(tracer).empty());
}

// Property over real simulations, healthy and faulty: the decomposition
// telescopes, so queue + service + network + retry + merge must equal the
// measured latency for every traced question.
TEST(CriticalPathTest, ComponentSumsEqualLatencyOnRealRuns) {
  using cluster::CostModel;
  using cluster::QuestionPlan;
  using cluster::SystemConfig;
  const auto& world = qadist::testing::test_world();
  const auto cost = CostModel::calibrate(
      *world.engine,
      std::span<const corpus::Question>(world.questions).subspan(0, 8));
  std::vector<QuestionPlan> plans;
  for (std::size_t i = 0; i < 12; ++i) {
    plans.push_back(make_plan(*world.engine, cost, world.questions[i]));
  }

  for (const bool lossy : {false, true}) {
    simnet::Simulation sim;
    SystemConfig cfg;
    cfg.nodes = 4;
    cfg.partition.ap_chunk = 8;
    cfg.admission.max_concurrent = 4;  // real admission-queue waits
    cfg.admission.queue_capacity = 64;
    if (lossy) {
      cfg.net.faults.drop_probability = 0.05;
      cfg.net.faults.duplicate_probability = 0.02;
      cfg.net.faults.jitter_min = 0.001;
      cfg.net.faults.jitter_max = 0.010;
    }
    cluster::System system(sim, cfg);
    Tracer tracer;
    system.set_tracer(&tracer);
    cluster::OverloadWorkload workload;
    workload.count = 24;
    workload.seed = 7;
    workload::Driver(system, plans).submit({.overload = workload});
    [[maybe_unused]] const auto metrics = system.run();

    const auto questions = analyze_questions(tracer);
    ASSERT_FALSE(questions.empty()) << (lossy ? "lossy" : "healthy");
    for (const QuestionBreakdown& b : questions) {
      EXPECT_NEAR(b.component_sum(), b.total,
                  1e-6 * std::max(1.0, b.total))
          << (lossy ? "lossy" : "healthy") << " question " << b.question;
      EXPECT_GE(b.queue, 0.0);
      EXPECT_GE(b.network, 0.0);
      EXPECT_GE(b.retry, 0.0);
      EXPECT_GE(b.merge, 0.0);
    }
  }
}

}  // namespace
}  // namespace qadist::obs
