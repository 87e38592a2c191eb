#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qadist {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long runs — the cluster simulator feeds millions
/// of latency samples through these during a throughput experiment.
class RunningStats {
 public:
  void add(double x);

  /// Merges another accumulator (parallel reduction friendly).
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< sample variance (n-1 denom)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample reservoir with exact quantiles. Stores all samples; intended for
/// experiment-scale data (up to a few million doubles), where exactness is
/// worth more than memory.
///
/// Quantile queries need order statistics. The non-const overloads sort
/// the reservoir in place (amortized across queries); the const overloads
/// never mutate — on an unsorted reservoir they work from a sorted copy,
/// so concurrent const readers are race-free. Callers holding a const view
/// of a large unsorted reservoir should copy once and sort() explicitly
/// rather than pay the copy per query.
class Samples {
 public:
  void add(double x);
  void reserve(std::size_t n) { values_.reserve(n); }

  /// Sorts the reservoir in place; subsequent const queries read order
  /// statistics directly. add() invalidates the sorted state.
  void sort();
  [[nodiscard]] bool is_sorted() const { return sorted_; }

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;

  /// Quantile q in [0,1] by linear interpolation between order statistics.
  /// Panics on an empty sample set — use quantile_or when emptiness is a
  /// legal state.
  [[nodiscard]] double quantile(double q);
  [[nodiscard]] double quantile(double q) const;

  /// Non-asserting quantile: `fallback` when the sample set is empty.
  /// Exporters serialize whatever ran, including runs where a metric never
  /// fired (no crashes, no migrations), so they must not hard-fail here.
  [[nodiscard]] double quantile_or(double q, double fallback) {
    return values_.empty() ? fallback : quantile(q);
  }
  [[nodiscard]] double quantile_or(double q, double fallback) const {
    return values_.empty() ? fallback : quantile(q);
  }
  [[nodiscard]] double median() { return quantile(0.5); }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() { return quantile(0.0); }
  [[nodiscard]] double min() const;  ///< O(n) scan when unsorted
  [[nodiscard]] double max() { return quantile(1.0); }
  [[nodiscard]] double max() const;  ///< O(n) scan when unsorted

  /// "mean=.. p50=.. p95=.. max=.." one-liner for logs.
  [[nodiscard]] std::string summary() const;

 private:
  /// Interpolated quantile over an already-sorted vector.
  [[nodiscard]] static double quantile_of(const std::vector<double>& sorted,
                                          double q);

  std::vector<double> values_;
  bool sorted_ = true;
};

/// Exact running order statistic: after n add()s, value() is the sample at
/// 0-based rank ⌊q·(n−1)⌋ of the values seen so far — the element
/// nth_element would place there, bit for bit (ties included: the value at
/// a rank is unique). Two heaps split the samples at that rank: a max-heap
/// of the rank+1 smallest and a min-heap of the rest, so add() costs
/// O(log n) and value() O(1).
class RunningQuantile {
 public:
  RunningQuantile() = default;
  /// q in [0, 1].
  explicit RunningQuantile(double q);

  void add(double x);

  [[nodiscard]] std::size_t count() const {
    return lower_.size() + upper_.size();
  }
  /// The value at rank ⌊q·(count−1)⌋. Panics when empty.
  [[nodiscard]] double value() const;

 private:
  double q_ = 0.5;
  std::vector<double> lower_;  // max-heap: the rank+1 smallest samples
  std::vector<double> upper_;  // min-heap: every other sample
};

/// Fixed-width histogram over [lo, hi); finite out-of-range samples clamp
/// to the edge buckets, non-finite samples (NaN, ±inf) are tallied in a
/// dedicated counter instead of being bucketed. Used for service-time
/// distributions in benches.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bucket) const;
  /// Bucketed (finite) samples only; excludes nonfinite().
  [[nodiscard]] std::size_t total() const { return total_; }
  /// NaN/±inf samples seen by add() — never bucketed, never UB.
  [[nodiscard]] std::size_t nonfinite() const { return nonfinite_; }
  [[nodiscard]] double bucket_low(std::size_t bucket) const;
  [[nodiscard]] double bucket_high(std::size_t bucket) const;

  /// Renders an ASCII bar chart, one bucket per line.
  [[nodiscard]] std::string ascii(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t nonfinite_ = 0;
};

}  // namespace qadist
