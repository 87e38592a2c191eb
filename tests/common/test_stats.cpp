#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace qadist {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  Rng rng(99);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    whole.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copy
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SamplesTest, QuantilesOfKnownSet) {
  Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(SamplesTest, QuantileInterpolates) {
  Samples s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.1), 1.0);
}

TEST(SamplesTest, InsertAfterQueryResorts) {
  Samples s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(SamplesTest, QuantileOrFallsBackOnlyWhenEmpty) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.quantile_or(0.5, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(s.quantile_or(0.95, 0.0), 0.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.quantile_or(0.5, -1.0), 7.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.quantile_or(0.5, -1.0), 8.0);  // real interpolation
}

TEST(SamplesTest, SummaryMentionsCount) {
  Samples s;
  s.add(1.0);
  EXPECT_NE(s.summary().find("n=1"), std::string::npos);
}

TEST(SamplesTest, ConstQuantileLeavesReservoirUnsorted) {
  // Regression: quantile() used to sort `values_` inside a const method
  // (mutable members), so a const view was secretly a writer. The const
  // path must now be pure.
  Samples s;
  s.add(5.0);
  s.add(1.0);
  s.add(3.0);
  const Samples& view = s;
  EXPECT_DOUBLE_EQ(view.quantile(0.5), 3.0);
  EXPECT_FALSE(view.is_sorted());  // untouched by the const query
  EXPECT_DOUBLE_EQ(view.min(), 1.0);
  EXPECT_DOUBLE_EQ(view.max(), 5.0);
  s.sort();
  EXPECT_TRUE(view.is_sorted());
  EXPECT_DOUBLE_EQ(view.quantile(0.5), 3.0);
}

TEST(SamplesTest, ConcurrentConstQuantilesAreRaceFree) {
  // TSan-level regression for the same bug: concurrent const readers of an
  // unsorted reservoir raced on the lazy sort. Each thread must now see a
  // consistent answer with no writes to the shared state.
  Samples s;
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) s.add(rng.uniform(0.0, 100.0));
  const Samples& view = s;
  const double expected = view.quantile(0.95);
  std::vector<std::thread> readers;
  std::vector<double> results(8, 0.0);
  for (std::size_t t = 0; t < results.size(); ++t) {
    readers.emplace_back(
        [&view, &results, t] { results[t] = view.quantile(0.95); });
  }
  for (auto& r : readers) r.join();
  for (const double got : results) EXPECT_DOUBLE_EQ(got, expected);
  EXPECT_FALSE(view.is_sorted());
}

TEST(RunningQuantileTest, MatchesNthElementAfterEveryInsert) {
  // Oracle: nth_element on a copy at rank floor(q * (n - 1)). Values come
  // from a small grid plus a continuous tail, so ties are common.
  const std::vector<double> qs = {0.0, 0.05, 0.5, 0.95, 1.0};
  std::vector<RunningQuantile> running;
  for (const double q : qs) running.emplace_back(q);
  Rng rng(17);
  std::vector<double> seen;
  std::vector<double> copy;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.bernoulli(0.7)
                         ? 0.25 * static_cast<double>(rng.below(64))
                         : rng.exponential(0.1);
    seen.push_back(x);
    copy = seen;
    for (std::size_t k = 0; k < qs.size(); ++k) {
      running[k].add(x);
      ASSERT_EQ(running[k].count(), seen.size());
      const auto nth = static_cast<std::ptrdiff_t>(
          qs[k] * static_cast<double>(copy.size() - 1));
      std::nth_element(copy.begin(), copy.begin() + nth, copy.end());
      ASSERT_EQ(std::bit_cast<std::uint64_t>(running[k].value()),
                std::bit_cast<std::uint64_t>(
                    copy[static_cast<std::size_t>(nth)]))
          << "q=" << qs[k] << " n=" << seen.size();
    }
  }
}

TEST(RunningQuantileTest, EmptyPanicsAndQMustBeAProbability) {
  RunningQuantile median(0.5);
  EXPECT_EQ(median.count(), 0u);
  EXPECT_DEATH((void)median.value(), "empty");
  EXPECT_DEATH(RunningQuantile(1.5), "out of range");
  EXPECT_DEATH(median.add(std::nan("")), "NaN");
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps into bucket 0
  h.add(0.5);
  h.add(9.9);
  h.add(25.0);   // clamps into last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_high(1), 4.0);
}

TEST(HistogramTest, NonFiniteSamplesTalliedNotBucketed) {
  // Regression: add() cast (x - lo)/width straight to ptrdiff_t, which is
  // UB for NaN/±inf (and for finite values past the integer range).
  Histogram h(0.0, 10.0, 5);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.nonfinite(), 3u);
  EXPECT_EQ(h.total(), 0u);
  for (std::size_t b = 0; b < h.bucket_count(); ++b) EXPECT_EQ(h.count(b), 0u);
  h.add(1e300);   // huge but finite: clamps to the last bucket, no UB
  h.add(-1e300);  // clamps to the first bucket
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.nonfinite(), 3u);
}

TEST(HistogramTest, AsciiRendersAllBuckets) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.0);
  const auto art = h.ascii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

}  // namespace
}  // namespace qadist
