#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace qadist::obs {
namespace {

TEST(Tracer, SpanLifecycle) {
  Tracer tracer;
  const auto track = tracer.new_track();
  const SpanId parent = tracer.begin_span(1.0, "question", 0, track);
  const SpanId child =
      tracer.begin_span(1.5, "QP", 0, track, parent, {{"k", std::int64_t{7}}});
  EXPECT_EQ(tracer.open_spans(), 2u);

  tracer.end_span(child, 2.0);
  tracer.end_span(parent, 3.0, {{"latency_seconds", 2.0}});
  EXPECT_EQ(tracer.open_spans(), 0u);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const SpanRecord& q = tracer.spans()[0];
  const SpanRecord& qp = tracer.spans()[1];
  EXPECT_EQ(q.name, "question");
  EXPECT_TRUE(q.closed);
  EXPECT_DOUBLE_EQ(q.start, 1.0);
  EXPECT_DOUBLE_EQ(q.end, 3.0);
  EXPECT_EQ(qp.parent, q.id);
  EXPECT_EQ(qp.track, q.track);
  // end_span appended the extra attr.
  ASSERT_EQ(q.attrs.size(), 1u);
  EXPECT_EQ(q.attrs[0].first, "latency_seconds");
}

TEST(Tracer, NestedSpansOrderedWithinTrack) {
  // A question span with sequential stage children: children start after
  // the parent and close before it, in submission order.
  Tracer tracer;
  const auto track = tracer.new_track();
  const SpanId q = tracer.begin_span(0.0, "question", 0, track);
  double t = 0.0;
  for (const char* stage : {"QP", "PR", "PO", "AP"}) {
    const SpanId s = tracer.begin_span(t, stage, 0, track, q);
    t += 1.0;
    tracer.end_span(s, t);
  }
  tracer.end_span(q, t);

  ASSERT_EQ(tracer.spans().size(), 5u);
  double prev_start = -1.0;
  for (std::size_t i = 1; i < tracer.spans().size(); ++i) {
    const SpanRecord& s = tracer.spans()[i];
    EXPECT_EQ(s.parent, q);
    EXPECT_GE(s.start, prev_start);   // stages are sequential
    EXPECT_LE(s.end, t);              // nested inside the parent interval
    EXPECT_GE(s.start, 0.0);
    prev_start = s.start;
  }
  EXPECT_EQ(tracer.count_spans("question"), 1u);
  EXPECT_EQ(tracer.count_spans("QP"), 1u);
  EXPECT_EQ(tracer.count_spans("missing"), 0u);
}

TEST(Tracer, TracksAreDistinct) {
  Tracer tracer;
  const auto a = tracer.new_track();
  const auto b = tracer.new_track();
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);  // track 0 is reserved for per-node instants
}

TEST(TracerDeathTest, EndBeforeStartPanics) {
  Tracer tracer;
  const SpanId s = tracer.begin_span(5.0, "x", 0, tracer.new_track());
  EXPECT_DEATH(tracer.end_span(s, 4.0), "");
}

TEST(TracerDeathTest, DoubleClosePanics) {
  Tracer tracer;
  const SpanId s = tracer.begin_span(0.0, "x", 0, tracer.new_track());
  tracer.end_span(s, 1.0);
  EXPECT_DEATH(tracer.end_span(s, 2.0), "");
}

TEST(Tracer, InstantsKeepRecordingOrderAndAttrs) {
  Tracer tracer;
  tracer.instant(2.5, 1, "crashed", {{"kind", std::string("crash")}});
  tracer.instant(3.0, 0, "recovered");

  ASSERT_EQ(tracer.instants().size(), 2u);
  EXPECT_EQ(tracer.instants()[0].text, "crashed");
  EXPECT_EQ(tracer.instants()[0].node, 1u);
  EXPECT_DOUBLE_EQ(tracer.instants()[0].time, 2.5);
  EXPECT_EQ(tracer.instants()[0].attrs.size(), 1u);
}

TEST(Tracer, CounterSamples) {
  Tracer tracer;
  tracer.counter_sample(1.0, 0, "cpu_util", 0.5);
  tracer.counter_sample(2.0, 0, "cpu_util", 0.8);
  ASSERT_EQ(tracer.counter_samples().size(), 2u);
  EXPECT_EQ(tracer.counter_samples()[1].name, "cpu_util");
  EXPECT_DOUBLE_EQ(tracer.counter_samples()[1].value, 0.8);
}

}  // namespace
}  // namespace qadist::obs
