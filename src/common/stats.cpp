#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "common/check.hpp"

namespace qadist {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void Samples::add(double x) {
  values_.push_back(x);
  sorted_ = false;
}

void Samples::sort() {
  if (sorted_) return;
  std::sort(values_.begin(), values_.end());
  sorted_ = true;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Samples::quantile_of(const std::vector<double>& sorted, double q) {
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted.size()) return sorted.back();
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

double Samples::quantile(double q) {
  QADIST_CHECK(q >= 0.0 && q <= 1.0, << "quantile " << q << " out of range");
  QADIST_CHECK(!values_.empty(), << "quantile of empty sample set");
  sort();
  return quantile_of(values_, q);
}

double Samples::quantile(double q) const {
  QADIST_CHECK(q >= 0.0 && q <= 1.0, << "quantile " << q << " out of range");
  QADIST_CHECK(!values_.empty(), << "quantile of empty sample set");
  if (sorted_) return quantile_of(values_, q);
  std::vector<double> copy(values_);
  std::sort(copy.begin(), copy.end());
  return quantile_of(copy, q);
}

double Samples::min() const {
  QADIST_CHECK(!values_.empty(), << "quantile of empty sample set");
  if (sorted_) return values_.front();
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  QADIST_CHECK(!values_.empty(), << "quantile of empty sample set");
  if (sorted_) return values_.back();
  return *std::max_element(values_.begin(), values_.end());
}

RunningQuantile::RunningQuantile(double q) : q_(q) {
  QADIST_CHECK(q >= 0.0 && q <= 1.0, << "quantile " << q << " out of range");
}

void RunningQuantile::add(double x) {
  QADIST_CHECK(!std::isnan(x), << "NaN would corrupt the heap ordering");
  if (lower_.empty() || x <= lower_.front()) {
    lower_.push_back(x);
    std::push_heap(lower_.begin(), lower_.end());
  } else {
    upper_.push_back(x);
    std::push_heap(upper_.begin(), upper_.end(), std::greater<>{});
  }
  // Every sample in lower_ is <= every sample in upper_; move boundary
  // samples across until lower_ holds exactly rank+1 of them.
  const auto rank = static_cast<std::ptrdiff_t>(
      q_ * static_cast<double>(count() - 1));
  const auto keep = static_cast<std::size_t>(rank) + 1;
  while (lower_.size() > keep) {
    std::pop_heap(lower_.begin(), lower_.end());
    upper_.push_back(lower_.back());
    lower_.pop_back();
    std::push_heap(upper_.begin(), upper_.end(), std::greater<>{});
  }
  while (lower_.size() < keep) {
    std::pop_heap(upper_.begin(), upper_.end(), std::greater<>{});
    lower_.push_back(upper_.back());
    upper_.pop_back();
    std::push_heap(lower_.begin(), lower_.end());
  }
}

double RunningQuantile::value() const {
  QADIST_CHECK(!lower_.empty(), << "quantile of empty sample set");
  return lower_.front();
}

std::string Samples::summary() const {
  std::ostringstream os;
  if (values_.empty()) {
    os << "n=0";
    return os.str();
  }
  // One sorted copy for every order statistic in the line (a const method
  // must not sort values_ in place).
  std::vector<double> copy(values_);
  std::sort(copy.begin(), copy.end());
  os << "n=" << copy.size() << " mean=" << mean()
     << " p50=" << quantile_of(copy, 0.5) << " p95=" << quantile_of(copy, 0.95)
     << " max=" << copy.back();
  return os.str();
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  QADIST_CHECK(hi > lo, << "histogram range empty: [" << lo << ", " << hi << ")");
  QADIST_CHECK(buckets >= 1);
  bucket_width_ = (hi - lo) / static_cast<double>(buckets);
}

void Histogram::add(double x) {
  if (!std::isfinite(x)) {
    // NaN compares false against every bound and ±inf overflows the index
    // cast (UB), so non-finite samples get their own tally instead of a
    // bucket.
    ++nonfinite_;
    return;
  }
  // Clamp in double space: casting a huge finite value (e.g. 1e300 with
  // unit-width buckets) to an integer before clamping is equally UB.
  double pos = (x - lo_) / bucket_width_;
  pos = std::clamp(pos, 0.0, static_cast<double>(counts_.size() - 1));
  ++counts_[static_cast<std::size_t>(pos)];
  ++total_;
}

std::size_t Histogram::count(std::size_t bucket) const {
  QADIST_CHECK(bucket < counts_.size());
  return counts_[bucket];
}

double Histogram::bucket_low(std::size_t bucket) const {
  QADIST_CHECK(bucket < counts_.size());
  return lo_ + bucket_width_ * static_cast<double>(bucket);
}

double Histogram::bucket_high(std::size_t bucket) const {
  return bucket_low(bucket) + bucket_width_;
}

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = counts_[b] * width / peak;
    os.width(12);
    os << bucket_low(b) << " |";
    os << std::string(bar, '#') << " " << counts_[b] << "\n";
  }
  return os.str();
}

}  // namespace qadist
