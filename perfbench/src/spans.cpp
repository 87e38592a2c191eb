#include "spans.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace perfbench {

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

void SpanLog::reset(std::uint32_t question) {
  question_ = question;
  spans_.clear();
}

std::size_t SpanLog::begin(std::string name, std::size_t parent) {
  QADIST_CHECK(parent == kNoParent || parent < spans_.size());
  spans_.push_back(Span{std::move(name), parent, now(), 0.0});
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t span) {
  QADIST_CHECK(span < spans_.size());
  spans_[span].end = now();
}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children) {
  for (auto& [a, b] : children) {
    a = std::clamp(a, start, end);
    b = std::clamp(b, start, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = start;  // end of the union so far
  for (const auto& [a, b] : children) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return (end - start) - covered;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = self_time(spans[i].start, spans[i].end, std::move(children[i]));
  }
  return out;
}

double LayerTotals::add(const SpanLog& log) {
  const auto& spans = log.spans();
  const auto self = self_times(spans);
  double root = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    seconds[spans[i].name] += self[i];
    calls[spans[i].name] += 1;
    sum += self[i];
    if (spans[i].parent == kNoParent) root += spans[i].end - spans[i].start;
  }
  ++questions;
  return std::abs(root - sum);
}

double LayerTotals::seconds_of(const std::string& name) const {
  const auto it = seconds.find(name);
  return it == seconds.end() ? 0.0 : it->second;
}

std::size_t LayerTotals::calls_of(const std::string& name) const {
  const auto it = calls.find(name);
  return it == calls.end() ? 0 : it->second;
}

}  // namespace perfbench
