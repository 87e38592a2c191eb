#pragma once

// Wall-clock spans the benchmark records around its own calls into the
// real pipeline (qa::Engine stages, parallel:: stages). One SpanLog holds
// the span tree of one question — every span in it shares that question's
// id — and is folded into per-layer totals and cleared before the next
// question, so memory stays bounded however long the run.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kNoParent = std::numeric_limits<std::size_t>::max();

struct Span {
  std::string name;
  std::size_t parent = kNoParent;  ///< index into the log, or kNoParent
  double start = 0.0;              ///< seconds since the log's origin
  double end = 0.0;
};

/// The span tree of one question. Not thread-safe: spans are recorded by
/// the harness thread around the calls it makes.
class SpanLog {
 public:
  SpanLog();

  /// Starts a new question: drops every span and stamps the id.
  void reset(std::uint32_t question);

  std::size_t begin(std::string name, std::size_t parent = kNoParent);
  void end(std::size_t span);

  [[nodiscard]] std::uint32_t question() const { return question_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point origin_;
  std::uint32_t question_ = 0;
  std::vector<Span> spans_;
};

/// Records one span for the enclosing scope when `log` is set; a no-op
/// otherwise, so untraced runs pay one branch per call site.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::size_t parent = kNoParent)
      : log_(log),
        index_(log != nullptr ? log->begin(std::move(name), parent)
                              : kNoParent) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// Length of [start, end] not covered by the union of `children`
/// (intervals are clipped to the span; overlapping children, as host-
/// parallel legs are, count once).
[[nodiscard]] double self_time(double start, double end,
                               std::vector<std::pair<double, double>> children);

/// self_time of every span of a tree, indexed like `spans`.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Per-layer self time and call counts summed over many questions.
struct LayerTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, std::size_t> calls;
  std::size_t questions = 0;

  /// Adds one question's tree. Returns the largest gap between the root
  /// span's duration and the sum of the tree's self times (0 for a tree of
  /// non-overlapping children) — the benchmark checks it stays ~0.
  double add(const SpanLog& log);

  [[nodiscard]] double seconds_of(const std::string& name) const;
  [[nodiscard]] std::size_t calls_of(const std::string& name) const;
};

}  // namespace perfbench
