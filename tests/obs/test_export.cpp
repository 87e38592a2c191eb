#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cost_model.hpp"
#include "cluster/plan.hpp"
#include "cluster/system.hpp"
#include "obs/span.hpp"
#include "support/mini_json.hpp"
#include "support/test_world.hpp"

namespace qadist::obs {
namespace {

using qadist::testing::parse_json;
using qadist::testing::test_world;

/// One traced 2-node run shared by the golden-file tests (plan building
/// runs the real Q/A pipeline, so do it once).
struct TracedRun {
  Tracer tracer;
  std::size_t questions = 0;
  Seconds makespan = 0.0;
};

const TracedRun& traced_run() {
  static TracedRun* run = [] {
    auto* r = new TracedRun;
    const auto& world = test_world();
    const auto cost = cluster::CostModel::calibrate(
        *world.engine,
        std::span<const corpus::Question>(world.questions).subspan(0, 8));
    static std::vector<cluster::QuestionPlan> plans;
    for (std::size_t i = 0; i < 3; ++i) {
      plans.push_back(cluster::make_plan(*world.engine, cost,
                                         world.questions[i]));
    }
    simnet::Simulation sim;
    cluster::SystemConfig cfg;
    cfg.nodes = 2;
    cfg.partition.ap_chunk = 8;
    cluster::System system(sim, cfg);
    system.set_tracer(&r->tracer);
    Seconds at = 0.0;
    for (const auto& plan : plans) {
      system.submit(plan, at);
      at += 5.0;
    }
    const auto metrics = system.run();
    r->questions = metrics.completed;
    r->makespan = metrics.makespan;
    return r;
  }();
  return *run;
}

TEST(RenderText, UsesOneBasedNodeNames) {
  Tracer tracer;
  tracer.instant(0.0, 0, "hello");
  tracer.instant(12.34, 3, "done");
  EXPECT_EQ(render_text(tracer), "[0.00s] N1 hello\n[12.34s] N4 done\n");
}

TEST(RenderText, StableSortsByTime) {
  // Coordinator-side recovery events are recorded when a loss is
  // detected, not in time order; the rendering sorts by timestamp but
  // keeps the recording order of simultaneous events.
  Tracer tracer;
  tracer.instant(5.0, 1, "late");
  tracer.instant(1.0, 0, "early");
  tracer.instant(5.0, 2, "late tie");
  EXPECT_EQ(render_text(tracer),
            "[1.00s] N1 early\n[5.00s] N2 late\n[5.00s] N3 late tie\n");
  EXPECT_EQ(tracer.instants()[0].text, "late");  // recording order kept
  EXPECT_EQ(render_text(Tracer{}), "");
}

TEST(TracedSystemRun, EverySpanClosesAndEveryStageIsCovered) {
  const TracedRun& run = traced_run();
  ASSERT_EQ(run.questions, 3u);
  EXPECT_EQ(run.tracer.open_spans(), 0u);
  // At least one span per stage per question (PS is per PR unit, so >=).
  for (const char* stage : {"question", "QP", "PR", "PS", "PO", "AP"}) {
    EXPECT_GE(run.tracer.count_spans(stage), run.questions)
        << "missing spans for stage " << stage;
  }
  // The Fig. 7 text view renders the same instant stream.
  const std::string text = render_text(run.tracer);
  EXPECT_NE(text.find("started question"), std::string::npos);
  EXPECT_NE(text.find("answered question"), std::string::npos);
}

TEST(TracedSystemRun, ChromeTraceIsValidAndTimeOrdered) {
  const TracedRun& run = traced_run();
  std::ostringstream os;
  write_chrome_trace(run.tracer, os);
  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.has_value()) << "Chrome trace is not valid JSON";
  const auto& events = doc->at("traceEvents").items();

  std::size_t spans = 0;
  std::size_t metadata = 0;
  std::map<std::string, std::size_t> by_name;
  std::map<std::pair<double, double>, double> last_ts;  // (pid,tid) -> ts
  for (const auto& ev : events) {
    const std::string ph = ev.at("ph").string;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    if (ph == "X") {
      ++spans;
      ++by_name[ev.at("name").string];
      EXPECT_GE(ev.at("dur").number, 0.0);
    }
    const auto key = std::make_pair(ev.at("pid").number, ev.at("tid").number);
    const double ts = ev.at("ts").number;
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "timestamps regress on pid/tid track";
      it->second = ts;
    } else {
      last_ts.emplace(key, ts);
    }
  }
  EXPECT_EQ(metadata, 2u);  // one process_name per node
  // All spans closed, so every span record became a complete event.
  EXPECT_EQ(spans, run.tracer.spans().size());
  for (const char* stage : {"question", "QP", "PR", "PS", "PO", "AP"}) {
    EXPECT_GE(by_name[stage], run.questions) << stage;
  }
  const std::size_t expected = run.tracer.spans().size() +
                               run.tracer.instants().size() +
                               run.tracer.counter_samples().size() + metadata;
  EXPECT_EQ(events.size(), expected);
}

TEST(TracedSystemRun, JsonlEveryLineParses) {
  const TracedRun& run = traced_run();
  std::ostringstream os;
  write_jsonl(run.tracer, os);
  std::istringstream lines(os.str());
  std::string line;
  std::size_t count = 0;
  double prev_time = 0.0;
  while (std::getline(lines, line)) {
    const auto doc = parse_json(line);
    ASSERT_TRUE(doc.has_value()) << "bad JSONL line: " << line;
    const std::string type = doc->at("type").string;
    EXPECT_TRUE(type == "span" || type == "instant" || type == "counter");
    const double time = type == "span" ? doc->at("start").number
                                       : doc->at("time").number;
    EXPECT_GE(time, prev_time) << "JSONL not time-sorted";
    prev_time = time;
    ++count;
  }
  EXPECT_EQ(count, run.tracer.spans().size() + run.tracer.instants().size() +
                       run.tracer.counter_samples().size());
}

TEST(TracedSystemRun, FileExportsRoundTrip) {
  const TracedRun& run = traced_run();
  const std::string dir = ::testing::TempDir();
  const std::string chrome = dir + "/qadist_trace.chrome.json";
  const std::string jsonl = dir + "/qadist_trace.jsonl";
  ASSERT_TRUE(export_chrome_trace_file(run.tracer, chrome));
  ASSERT_TRUE(export_jsonl_file(run.tracer, jsonl));
  std::ifstream in(chrome);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(parse_json(buf.str()).has_value());
}

TEST(TracedSystemRun, TracingDoesNotChangeSimulatedResults) {
  // Same workload without any tracer attached: simulated time must be
  // bit-identical (observation is passive).
  const auto& world = test_world();
  const auto cost = cluster::CostModel::calibrate(
      *world.engine,
      std::span<const corpus::Question>(world.questions).subspan(0, 8));
  std::vector<cluster::QuestionPlan> plans;
  for (std::size_t i = 0; i < 3; ++i) {
    plans.push_back(
        cluster::make_plan(*world.engine, cost, world.questions[i]));
  }
  simnet::Simulation sim;
  cluster::SystemConfig cfg;
  cfg.nodes = 2;
  cfg.partition.ap_chunk = 8;
  cluster::System system(sim, cfg);
  Seconds at = 0.0;
  for (const auto& plan : plans) {
    system.submit(plan, at);
    at += 5.0;
  }
  const auto metrics = system.run();
  EXPECT_DOUBLE_EQ(metrics.makespan, traced_run().makespan);
}

TEST(ChromeTraceExport, OpenSpansAreSkipped) {
  Tracer tracer;
  const auto track = tracer.new_track();
  tracer.begin_span(0.0, "open", 0, track);
  const SpanId closed = tracer.begin_span(1.0, "closed", 0, track);
  tracer.end_span(closed, 2.0);
  std::ostringstream os;
  write_chrome_trace(tracer, os);
  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.has_value());
  std::size_t complete = 0;
  for (const auto& ev : doc->at("traceEvents").items()) {
    if (ev.at("ph").string == "X") {
      ++complete;
      EXPECT_EQ(ev.at("name").string, "closed");
    }
  }
  EXPECT_EQ(complete, 1u);
}

TEST(MetricsJsonExport, WritesRegistrySnapshot) {
  MetricsRegistry reg;
  reg.counter("questions_completed").inc(3.0);
  std::ostringstream os;
  write_metrics_json(reg, os);
  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("counters").items().size(), 1u);
}

}  // namespace
}  // namespace qadist::obs
