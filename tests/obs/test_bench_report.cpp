#include "support/bench_report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "support/mini_json.hpp"

namespace qadist::bench {
namespace {

using qadist::testing::parse_json;

TEST(BenchReport, JsonRoundTrip) {
  BenchReport report("unit_test");
  report.config("seeds", std::int64_t{10});
  report.config("protocol", "high-load 2x");
  report.config("scale", 0.5);

  Samples samples;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) samples.add(x);
  report.metric("latency_seconds", {{"nodes", "4"}}, samples, 2.9);
  report.metric("throughput_qpm", {{"nodes", "4"}, {"policy", "DNS"}}, 2.61);

  RunningStats stats;
  stats.add(10.0);
  stats.add(20.0);
  report.metric("overhead_seconds", {}, stats);

  const auto doc = parse_json(report.to_json());
  ASSERT_TRUE(doc.has_value()) << report.to_json();
  EXPECT_EQ(doc->at("schema").string, "qadist-bench-v1");
  EXPECT_EQ(doc->at("bench").string, "unit_test");

  const auto& config = doc->at("config");
  EXPECT_DOUBLE_EQ(config.at("seeds").number, 10.0);
  EXPECT_EQ(config.at("protocol").string, "high-load 2x");
  EXPECT_DOUBLE_EQ(config.at("scale").number, 0.5);

  const auto& metrics = doc->at("metrics").items();
  ASSERT_EQ(metrics.size(), 3u);

  const auto& dist = metrics[0];
  EXPECT_EQ(dist.at("name").string, "latency_seconds");
  EXPECT_EQ(dist.at("labels").at("nodes").string, "4");
  EXPECT_DOUBLE_EQ(dist.at("count").number, 5.0);
  EXPECT_DOUBLE_EQ(dist.at("mean").number, 3.0);
  EXPECT_DOUBLE_EQ(dist.at("max").number, 5.0);
  EXPECT_DOUBLE_EQ(dist.at("paper_expected").number, 2.9);
  EXPECT_GE(dist.at("p95").number, dist.at("p50").number);

  const auto& scalar = metrics[1];
  EXPECT_DOUBLE_EQ(scalar.at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(scalar.at("mean").number, 2.61);
  EXPECT_DOUBLE_EQ(scalar.at("p50").number, 2.61);
  EXPECT_DOUBLE_EQ(scalar.at("max").number, 2.61);
  EXPECT_EQ(scalar.at("labels").at("policy").string, "DNS");
  // No paper value was supplied, so the key must be absent entirely.
  EXPECT_EQ(scalar.at("paper_expected").kind,
            testing::JsonValue::Kind::kNull);

  const auto& running = metrics[2];
  EXPECT_DOUBLE_EQ(running.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(running.at("mean").number, 15.0);
  EXPECT_DOUBLE_EQ(running.at("p50").number, 15.0);  // RunningStats: mean
  EXPECT_DOUBLE_EQ(running.at("max").number, 20.0);
}

TEST(BenchReport, WritesOneMetricPerLine) {
  BenchReport report("lines");
  report.config("seed", std::int64_t{7});
  report.metric("makespan_seconds", {{"strategy", "SEND"}}, 1.5);
  report.metric("makespan_seconds", {{"strategy", "RECV"}}, 2.5, 3.0);
  const std::string json = report.to_json();

  std::vector<std::string> lines;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << json;
  EXPECT_NE(lines[0].find("\"config\":{\"seed\":7}"), std::string::npos);
  EXPECT_EQ(lines[1],
            "{\"name\":\"makespan_seconds\",\"labels\":{\"strategy\":"
            "\"SEND\"},\"count\":1,\"mean\":1.5,\"p50\":1.5,\"p95\":1.5,"
            "\"max\":1.5},");
  EXPECT_NE(lines[2].find("\"RECV\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"paper_expected\":3"), std::string::npos);
  EXPECT_EQ(lines[3], "]}");

  const auto doc = parse_json(json);
  ASSERT_TRUE(doc.has_value()) << json;
  ASSERT_EQ(doc->at("metrics").items().size(), 2u);
  EXPECT_DOUBLE_EQ(doc->at("metrics").items()[1].at("mean").number, 2.5);

  const auto empty = parse_json(BenchReport("empty").to_json());
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->at("metrics").items().empty());
}

TEST(BenchReport, OutputPathHonorsResultsDirOverride) {
  BenchReport report("paths");
  ::unsetenv("QADIST_RESULTS_DIR");
  EXPECT_EQ(report.output_path(), "results/BENCH_paths.json");

  ::setenv("QADIST_RESULTS_DIR", "/tmp/qadist_custom", 1);
  EXPECT_EQ(report.output_path(), "/tmp/qadist_custom/BENCH_paths.json");
  ::unsetenv("QADIST_RESULTS_DIR");
}

TEST(BenchReport, WriteCreatesFileThatParses) {
  const std::string dir = ::testing::TempDir() + "/qadist_bench_report";
  ::setenv("QADIST_RESULTS_DIR", dir.c_str(), 1);
  BenchReport report("write_test");
  report.metric("m", {}, 1.5);
  ASSERT_TRUE(report.write());
  ::unsetenv("QADIST_RESULTS_DIR");

  std::ifstream in(dir + "/BENCH_write_test.json");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = parse_json(buf.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("bench").string, "write_test");
  EXPECT_EQ(doc->at("metrics").items().size(), 1u);
}

}  // namespace
}  // namespace qadist::bench
