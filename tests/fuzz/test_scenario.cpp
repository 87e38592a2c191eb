// Scenario wire format: canonical JSON round-trips every field exactly
// (including full-64-bit seeds, which travel as decimal strings because
// JSON numbers are doubles), corrupt or truncated files die loudly
// (mirroring ir::persist), and problem() rejects everything the System
// or Driver would panic on.

#include "fuzz/scenario.hpp"

#include <cstdlib>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace qadist::fuzz {
namespace {

constexpr std::uint64_t kBigSeed = 0xDEADBEEFCAFEBABEULL;  // > 2^53

// A scenario exercising every field group, with awkward doubles and
// full-range seeds. Valid for a 10-plan set.
Scenario full_scenario() {
  Scenario s;
  s.name = "kitchen-sink";
  s.seed = kBigSeed;
  s.nodes = 6;
  s.traffic.shape = workload::ArrivalShape::kFlashCrowd;
  s.traffic.rate_qps = 0.1;
  s.traffic.count = 40;
  s.traffic.seed = (std::uint64_t{1} << 63) + 12345;
  s.traffic.flash_at = 10.5;
  s.traffic.flash_duration = 1.0 / 3.0;
  s.traffic.flash_multiplier = 8.0;
  s.traffic.repeat_exponent = 1.2;
  s.traffic.distinct_questions = 3;
  s.plan_offset = 1;
  s.plan_stride = 2;
  s.ap_chunk = 16;
  s.num_shards = 8;
  s.replication = 2;
  s.brokers = 3;
  s.selectivity = 0.5;
  s.top_k = 2;
  s.crashes.push_back({2, 33.5, 45.0});
  s.crashes.push_back({0, 10.0, -1.0});
  s.drop_probability = 0.05;
  s.duplicate_probability = 0.01;
  s.jitter_min = 0.001;
  s.jitter_max = 0.01;
  simnet::PartitionWindow window;
  window.from = 5.25;
  window.until = 17.75;
  window.isolated = {1, 3};
  s.partitions.push_back(window);
  simnet::GrayFaultEvent gray;
  gray.node = 4;
  gray.at = 20.0;
  gray.recover_after = 30.0;
  gray.cpu_factor = 4.5;
  gray.disk_factor = 2.25;
  gray.extra_latency = 0.015;
  s.gray.push_back(gray);
  s.max_concurrent = 12;
  s.queue_capacity = 8;
  s.admission_policy = cluster::AdmissionPolicy::kShedOldest;
  s.load_threshold = 2.5;
  s.hedge = true;
  s.tied = true;
  s.latency_aware = true;
  s.hedge_quantile = 0.9;
  s.answer_cache_entries = 128;
  s.paragraph_cache_entries = 32;
  s.cache_ttl = 600.0;
  s.question_deadline = 120.0;
  s.pin.present = true;
  s.pin.p99_seconds = 1234.5678901234567;
  s.pin.degraded_fraction = 0.25;
  s.pin.baseline_p99_seconds = 81.373;
  s.pin.slack = 0.25;
  s.pin.digest = "makespan=12.5 mean=3.25 p99=9 submitted=4";
  return s;
}

TEST(ScenarioJsonTest, RoundTripsEveryFieldExactly) {
  const Scenario s = full_scenario();
  ASSERT_EQ(s.problem(10), std::nullopt);

  const Scenario r = scenario_from_json(to_json(s));
  EXPECT_EQ(r.name, s.name);
  EXPECT_EQ(r.seed, s.seed);
  EXPECT_EQ(r.nodes, s.nodes);
  EXPECT_EQ(r.traffic.shape, s.traffic.shape);
  EXPECT_EQ(r.traffic.rate_qps, s.traffic.rate_qps);
  EXPECT_EQ(r.traffic.count, s.traffic.count);
  EXPECT_EQ(r.traffic.seed, s.traffic.seed);
  EXPECT_EQ(r.traffic.flash_duration, s.traffic.flash_duration);
  EXPECT_EQ(r.traffic.repeat_exponent, s.traffic.repeat_exponent);
  EXPECT_EQ(r.traffic.distinct_questions, s.traffic.distinct_questions);
  EXPECT_EQ(r.plan_offset, s.plan_offset);
  EXPECT_EQ(r.plan_stride, s.plan_stride);
  EXPECT_EQ(r.ap_chunk, s.ap_chunk);
  EXPECT_EQ(r.num_shards, s.num_shards);
  EXPECT_EQ(r.replication, s.replication);
  EXPECT_EQ(r.brokers, s.brokers);
  EXPECT_EQ(r.selectivity, s.selectivity);
  EXPECT_EQ(r.top_k, s.top_k);
  ASSERT_EQ(r.crashes.size(), 2u);
  EXPECT_EQ(r.crashes[0].node, 2u);
  EXPECT_EQ(r.crashes[0].at, 33.5);
  EXPECT_EQ(r.crashes[0].restart_after, 45.0);
  EXPECT_EQ(r.crashes[1].restart_after, -1.0);
  EXPECT_EQ(r.drop_probability, s.drop_probability);
  ASSERT_EQ(r.partitions.size(), 1u);
  EXPECT_EQ(r.partitions[0].from, 5.25);
  EXPECT_EQ(r.partitions[0].isolated, (std::vector<std::uint32_t>{1, 3}));
  ASSERT_EQ(r.gray.size(), 1u);
  EXPECT_EQ(r.gray[0].cpu_factor, 4.5);
  EXPECT_EQ(r.gray[0].extra_latency, 0.015);
  EXPECT_EQ(r.max_concurrent, s.max_concurrent);
  EXPECT_EQ(r.admission_policy, s.admission_policy);
  EXPECT_EQ(r.hedge, s.hedge);
  EXPECT_EQ(r.tied, s.tied);
  EXPECT_EQ(r.hedge_quantile, s.hedge_quantile);
  EXPECT_EQ(r.answer_cache_entries, s.answer_cache_entries);
  EXPECT_EQ(r.cache_ttl, s.cache_ttl);
  EXPECT_EQ(r.question_deadline, s.question_deadline);
  ASSERT_TRUE(r.pin.present);
  EXPECT_EQ(r.pin.p99_seconds, s.pin.p99_seconds);
  EXPECT_EQ(r.pin.slack, s.pin.slack);
  EXPECT_EQ(r.pin.digest, s.pin.digest);
}

TEST(ScenarioJsonTest, SerializationIsCanonical) {
  // serialize -> parse -> serialize is a fixed point: byte-for-byte equal.
  const std::string first = to_json(full_scenario());
  EXPECT_EQ(to_json(scenario_from_json(first)), first);
}

TEST(ScenarioJsonTest, SeedsTravelAsDecimalStrings) {
  // A full-range 64-bit seed cannot survive a JSON number (doubles carry
  // 2^53); the wire format quotes it.
  const std::string json = to_json(full_scenario());
  EXPECT_NE(json.find("\"seed\":\"16045690984503098046\""), std::string::npos);
  const Scenario r = scenario_from_json(json);
  EXPECT_EQ(r.seed, kBigSeed);
  EXPECT_EQ(r.traffic.seed, (std::uint64_t{1} << 63) + 12345);
}

TEST(ScenarioJsonTest, PinIsOmittedWhenAbsent) {
  Scenario s = full_scenario();
  s.pin = Pin{};
  const std::string json = to_json(s);
  EXPECT_EQ(json.find("\"pin\""), std::string::npos);
  EXPECT_FALSE(scenario_from_json(json).pin.present);
}

TEST(ScenarioJsonTest, FormatDoubleRoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-9, 12345.678901234567, 1e300,
                         7.0, -0.125, 81.37299999999999}) {
    EXPECT_EQ(std::strtod(format_double(v).c_str(), nullptr), v)
        << "value " << v << " did not round-trip";
  }
}

// ---- corrupt / truncated / mistyped inputs die loudly (ir::persist
// idiom: a broken committed artifact is a build-stopping event).

TEST(ScenarioJsonDeathTest, RejectsEmptyInput) {
  EXPECT_DEATH((void)scenario_from_json(""), "malformed or truncated");
}

TEST(ScenarioJsonDeathTest, RejectsTruncatedInput) {
  const std::string json = to_json(full_scenario());
  EXPECT_DEATH((void)scenario_from_json(json.substr(0, json.size() / 2)),
               "malformed or truncated");
}

TEST(ScenarioJsonDeathTest, RejectsWrongSchemaTag) {
  EXPECT_DEATH((void)scenario_from_json(R"({"schema":"bogus-v9"})"),
               "schema mismatch");
}

TEST(ScenarioJsonDeathTest, RejectsMissingField) {
  EXPECT_DEATH((void)scenario_from_json(R"({"schema":"qadist-scenario-v1"})"),
               "missing field");
}

TEST(ScenarioJsonDeathTest, RejectsMissingBrokerKnobs) {
  // The broker knobs are required like every other field: a scenario
  // without them does not parse.
  std::string json = to_json(full_scenario());
  const auto at = json.find(",\"brokers\":");
  ASSERT_NE(at, std::string::npos);
  json.erase(at, json.find(",\"selectivity\":", at) - at);
  EXPECT_DEATH((void)scenario_from_json(json), "missing field \"brokers\"");
}

TEST(ScenarioJsonDeathTest, RejectsNumericSeed) {
  // Seeds must be strings on the wire; a bare number is a schema error.
  std::string json = to_json(full_scenario());
  const std::string quoted = "\"seed\":\"16045690984503098046\"";
  const auto at = json.find(quoted);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, quoted.size(), "\"seed\":16045690984503098046");
  EXPECT_DEATH((void)scenario_from_json(json), "must be a string");
}

TEST(ScenarioJsonDeathTest, RejectsNonDigitSeed) {
  EXPECT_DEATH(
      (void)scenario_from_json(
          R"({"schema":"qadist-scenario-v1","name":"x","seed":"12x4"})"),
      "decimal digit string");
}

TEST(ScenarioJsonDeathTest, RejectsOutOfRangeSeed) {
  EXPECT_DEATH((void)scenario_from_json(
                   R"({"schema":"qadist-scenario-v1","name":"x",)"
                   R"("seed":"99999999999999999999999"})"),
               "out of range");
}

// ---- problem(): at least as strict as the System + Driver checks.

TEST(ScenarioProblemTest, ReferenceScenarioIsValid) {
  const Scenario s = reference_scenario(12, 118.0);
  EXPECT_EQ(s.problem(100), std::nullopt);
  EXPECT_EQ(s.nodes, 12u);
  EXPECT_EQ(s.traffic.count, 96u);
  EXPECT_DOUBLE_EQ(s.traffic.rate_qps, 0.5 * 12.0 / 118.0);
}

TEST(ScenarioProblemTest, RejectsBadInputs) {
  const auto problem_of = [](auto&& tweak) {
    Scenario s = reference_scenario(8, 100.0);
    tweak(s);
    const auto issue = s.problem(50);
    return issue.value_or("(valid)");
  };
  EXPECT_NE(problem_of([](Scenario& s) { s.nodes = 1; }).find("nodes"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) {
              s.traffic.rate_qps = std::numeric_limits<double>::quiet_NaN();
            }).find("rate_qps"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) { s.traffic.count = 0; })
                .find("traffic.count"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) {
              s.crashes.push_back({99, 1.0, -1.0});
            }).find("unknown node"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) {
              s.crashes.push_back({1, 1.0e9, -1.0});
            }).find("crash instant outside"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) {
              simnet::GrayFaultEvent g;
              g.node = 0;
              g.at = 1.0;
              g.cpu_factor = 0.5;  // gray means slower, never faster
              s.gray.push_back(g);
            }).find("gray factors"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) {
              simnet::PartitionWindow w;
              w.from = 1.0;
              w.until = 2.0;
              for (std::uint32_t n = 0; n < 8; ++n) w.isolated.push_back(n);
              s.partitions.push_back(w);
            }).find("at least one connected"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) { s.question_deadline = 5.0; })
                .find("question_deadline"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) { s.plan_offset = 50; })
                .find("selects no plans"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) {
              s.num_shards = 8;
              s.replication = 2;
              s.brokers = 9;  // more brokers than nodes
            }).find("brokers"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) {
              s.num_shards = 0;
              s.selectivity = 0.5;  // selection without a sharded corpus
            }).find("sharded corpus"),
            std::string::npos);
  EXPECT_NE(problem_of([](Scenario& s) {
              s.num_shards = 8;
              s.replication = 2;
              s.selectivity = 0.0;
            }).find("selectivity"),
            std::string::npos);
}

TEST(ScenarioProblemTest, PlanSubsetAppliesOffsetAndStride) {
  Scenario s;
  s.plan_offset = 1;
  s.plan_stride = 3;
  EXPECT_EQ(s.plan_subset(10), (std::vector<std::size_t>{1, 4, 7}));
  s.plan_offset = 0;
  s.plan_stride = 1;
  EXPECT_EQ(s.plan_subset(3), (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace qadist::fuzz
