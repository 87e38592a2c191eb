#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include "support/mini_json.hpp"

namespace qadist::obs {
namespace {

TEST(MetricsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("questions");
  Counter& b = reg.counter("questions");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2.0);
  EXPECT_DOUBLE_EQ(a.value(), 3.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, LabelsDistinguishSeries) {
  MetricsRegistry reg;
  Counter& qa = reg.counter("migrations", {{"stage", "qa"}});
  Counter& pr = reg.counter("migrations", {{"stage", "pr"}});
  EXPECT_NE(&qa, &pr);
  qa.inc();
  EXPECT_DOUBLE_EQ(qa.value(), 1.0);
  EXPECT_DOUBLE_EQ(pr.value(), 0.0);
  EXPECT_EQ(reg.counters().size(), 2u);
}

TEST(MetricsRegistry, LabelOrderIsNormalized) {
  MetricsRegistry reg;
  Counter& a = reg.counter("c", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("c", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  // And the stored labels come back key-sorted.
  ASSERT_EQ(a.labels().size(), 2u);
  EXPECT_EQ(a.labels()[0].first, "a");
  EXPECT_EQ(a.labels()[1].first, "b");
}

TEST(MetricsRegistry, GaugeAndHistogram) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("load", {{"node", "0"}});
  g.set(0.5);
  g.set(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);

  HistogramMetric& h = reg.histogram("latency");
  h.observe(1.0);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.stats().mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.samples().quantile(1.0), 3.0);
}

TEST(MetricsRegistryDeathTest, RejectsSameNameDifferentKind) {
  MetricsRegistry reg;
  reg.counter("questions");
  EXPECT_DEATH(reg.gauge("questions"), "");
  EXPECT_DEATH(reg.histogram("questions"), "");
}

TEST(MetricsRegistryDeathTest, RejectsDuplicateLabelKeys) {
  MetricsRegistry reg;
  EXPECT_DEATH(reg.counter("c", {{"k", "1"}, {"k", "2"}}), "");
}

TEST(MetricsRegistry, CounterRejectsNegativeDelta) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  EXPECT_DEATH(c.inc(-1.0), "");
}

TEST(MetricsRegistry, PointersSurviveGrowth) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first");
  for (int i = 0; i < 1000; ++i) {
    reg.counter(std::string("c").append(std::to_string(i))).inc();
  }
  first.inc();  // must still be valid storage
  EXPECT_DOUBLE_EQ(reg.counter("first").value(), 1.0);
}

TEST(MetricsRegistry, ToJsonParsesBack) {
  MetricsRegistry reg;
  reg.counter("questions").inc(5.0);
  reg.gauge("makespan", {{"run", "a"}}).set(12.5);
  HistogramMetric& h = reg.histogram("latency");
  for (double x : {1.0, 2.0, 3.0, 4.0}) h.observe(x);
  reg.histogram("empty_series");  // registered but never observed

  const auto doc = testing::parse_json(reg.to_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->at("counters").items().size(), 1u);
  EXPECT_EQ(doc->at("gauges").items().size(), 1u);
  EXPECT_EQ(doc->at("histograms").items().size(), 2u);

  const auto& counter = doc->at("counters").items()[0];
  EXPECT_EQ(counter.at("name").string, "questions");
  EXPECT_DOUBLE_EQ(counter.at("value").number, 5.0);

  const auto& gauge = doc->at("gauges").items()[0];
  EXPECT_EQ(gauge.at("labels").at("run").string, "a");
  EXPECT_DOUBLE_EQ(gauge.at("value").number, 12.5);

  for (const auto& hist : doc->at("histograms").items()) {
    if (hist.at("name").string != "latency") continue;
    EXPECT_DOUBLE_EQ(hist.at("count").number, 4.0);
    EXPECT_DOUBLE_EQ(hist.at("mean").number, 2.5);
    EXPECT_DOUBLE_EQ(hist.at("max").number, 4.0);
  }
}

}  // namespace
}  // namespace qadist::obs
