// Runner invariants and scoring, tested pure: counter_violations over
// hand-built Metrics, coverage signatures, and the fitness / pathology
// functions — no simulation required.

#include "fuzz/runner.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qadist::fuzz {
namespace {

bool mentions(const std::vector<std::string>& violations,
              const std::string& needle) {
  return std::any_of(violations.begin(), violations.end(),
                     [&needle](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

// A consistent finished run: 4 submitted, all completed, nothing else.
cluster::Metrics clean_metrics() {
  cluster::Metrics m;
  m.submitted = 4;
  m.completed = 4;
  for (const double latency : {1.0, 2.0, 3.0, 4.0}) m.latencies.add(latency);
  return m;
}

TEST(CounterViolationsTest, CleanRunHasNone) {
  EXPECT_TRUE(counter_violations(clean_metrics(), Scenario{}).empty());
}

TEST(CounterViolationsTest, CatchesDrainAccountingHoles) {
  cluster::Metrics m = clean_metrics();
  m.submitted = 5;  // one question vanished
  EXPECT_TRUE(mentions(counter_violations(m, Scenario{}),
                       "drain accounting broke"));
}

TEST(CounterViolationsTest, CatchesLatencySampleMismatch) {
  cluster::Metrics m = clean_metrics();
  m.latencies.add(9.0);  // 5 samples, 4 completions
  EXPECT_TRUE(mentions(counter_violations(m, Scenario{}), "latency samples"));
}

TEST(CounterViolationsTest, CatchesDegradedExceedingCompleted) {
  cluster::Metrics m = clean_metrics();
  m.questions_degraded = 5;
  EXPECT_TRUE(mentions(counter_violations(m, Scenario{}), "exceeds completed"));
}

TEST(CounterViolationsTest, CatchesUnfiredCrashSchedule) {
  Scenario s;
  s.crashes.push_back({1, 10.0, -1.0});
  // Metrics say no crash was ever applied or skipped.
  EXPECT_TRUE(mentions(counter_violations(clean_metrics(), s),
                       "crash accounting broke"));
  cluster::Metrics m = clean_metrics();
  m.crashes = 1;
  EXPECT_TRUE(counter_violations(m, s).empty());
}

TEST(CounterViolationsTest, CatchesGrayWindowMiscounts) {
  Scenario s;
  simnet::GrayFaultEvent recovering;
  recovering.node = 0;
  recovering.at = 5.0;
  recovering.recover_after = 10.0;
  s.gray.push_back(recovering);
  simnet::GrayFaultEvent permanent = recovering;
  permanent.recover_after = -1.0;
  s.gray.push_back(permanent);

  cluster::Metrics m = clean_metrics();
  m.gray_onsets = 2;
  m.gray_recoveries = 1;  // only the recovering window closes
  EXPECT_TRUE(counter_violations(m, s).empty());

  m.gray_recoveries = 2;  // the permanent window must never "recover"
  EXPECT_TRUE(mentions(counter_violations(m, s), "gray recoveries"));
  m.gray_recoveries = 1;
  m.gray_onsets = 1;
  EXPECT_TRUE(mentions(counter_violations(m, s), "gray onsets"));
}

TEST(CounterViolationsTest, CatchesHedgingWithoutHedgesEnabled) {
  cluster::Metrics m = clean_metrics();
  m.hedges_issued = 3;
  m.legs_spawned = 10;
  EXPECT_TRUE(mentions(counter_violations(m, Scenario{}),
                       "with hedging disabled"));
  Scenario hedged;
  hedged.hedge = true;
  EXPECT_TRUE(counter_violations(m, hedged).empty());
}

TEST(CounterViolationsTest, CatchesCancellationsWithoutTiedRequests) {
  Scenario s;
  s.hedge = true;
  cluster::Metrics m = clean_metrics();
  m.legs_spawned = 10;
  m.hedges_issued = 4;
  m.legs_cancelled = 2;
  EXPECT_TRUE(mentions(counter_violations(m, s),
                       "with tied requests disabled"));
  s.tied = true;
  EXPECT_TRUE(counter_violations(m, s).empty());
  // A settled race may cancel several loser legs, but never more than
  // were ever spawned.
  m.legs_cancelled = 11;
  EXPECT_TRUE(mentions(counter_violations(m, s), "exceed spawned legs"));
}

TEST(CounterViolationsTest, CatchesAdmissionCountersWithAdmissionOff) {
  cluster::Metrics m = clean_metrics();
  m.submitted = 5;
  m.questions_rejected = 1;  // drain accounting balances...
  EXPECT_TRUE(mentions(counter_violations(m, Scenario{}),
                       "with admission disabled"));  // ...but the knob is off
  Scenario admitted;
  admitted.max_concurrent = 2;
  EXPECT_TRUE(counter_violations(m, admitted).empty());
}

TEST(CoverageTest, EmptyMetricsHaveEmptySignature) {
  EXPECT_EQ(coverage_signature(cluster::Metrics{}), 0u);
  EXPECT_TRUE(coverage_names(0).empty());
}

TEST(CoverageTest, SignatureNamesTheSubsystemsThatFired) {
  cluster::Metrics m;
  m.crashes = 2;
  m.migrations_ap = 1;
  m.hedges_issued = 7;
  const std::uint64_t sig = coverage_signature(m);
  const std::vector<std::string> names = coverage_names(sig);
  EXPECT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::find(names.begin(), names.end(), "crashes") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "migrations") !=
              names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "hedges_issued") !=
              names.end());
  // Saved corpora key on the bit positions: 33 named bits, these at 0, 27
  // and 32.
  EXPECT_EQ(sig, (std::uint64_t{1} << 0) | (std::uint64_t{1} << 27) |
                     (std::uint64_t{1} << 32));
  EXPECT_EQ(coverage_names(~std::uint64_t{0}).size(), 33u);
  // Counts don't matter, only which families fired.
  cluster::Metrics same;
  same.crashes = 99;
  same.migrations_qa = 3;
  same.hedges_issued = 1;
  EXPECT_EQ(coverage_signature(same), sig);
}

TEST(FitnessTest, MonotoneInTailLatencyAndDegradation) {
  const Baseline b{.p99 = 10.0, .max_latency = 20.0, .degraded_fraction = 0.0};
  Observation healthy;
  healthy.p99 = 10.0;
  healthy.max_latency = 20.0;
  Observation slow = healthy;
  slow.p99 = 30.0;
  EXPECT_GT(fitness(slow, b), fitness(healthy, b));
  Observation degraded = healthy;
  degraded.degraded_fraction = 0.3;
  EXPECT_GT(fitness(degraded, b), fitness(healthy, b));
  Observation shed = healthy;
  shed.shed_fraction = 0.3;
  EXPECT_GT(fitness(shed, b), fitness(healthy, b));
}

TEST(PathologicalTest, RequiresTheConfiguredRatioOrDegradedFloor) {
  const Baseline b{.p99 = 10.0, .max_latency = 20.0, .degraded_fraction = 0.0};
  Observation o;
  o.p99 = 29.0;
  EXPECT_FALSE(pathological(o, b, 3.0));
  o.p99 = 30.0;
  EXPECT_TRUE(pathological(o, b, 3.0));
  o.p99 = 10.0;
  o.degraded_fraction = 0.1;  // below the 15% absolute floor
  EXPECT_FALSE(pathological(o, b, 3.0));
  o.degraded_fraction = 0.2;
  EXPECT_TRUE(pathological(o, b, 3.0));
}

}  // namespace
}  // namespace qadist::fuzz
