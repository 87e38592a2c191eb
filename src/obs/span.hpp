#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/units.hpp"

namespace qadist::obs {

/// Attribute value on a span or event. Integers stay integers in the JSON
/// output (question ids, byte counts); doubles are for measured times.
using AttrValue = std::variant<std::int64_t, double, std::string>;
using Attrs = std::vector<std::pair<std::string, AttrValue>>;

/// Typed attr lookup (first match). attr_double also accepts an integer
/// attr — consumers asking for a number should not care which arithmetic
/// alternative the producer picked.
[[nodiscard]] std::optional<double> attr_double(const Attrs& attrs,
                                                std::string_view key);
[[nodiscard]] std::optional<std::int64_t> attr_int(const Attrs& attrs,
                                                   std::string_view key);
[[nodiscard]] std::optional<std::string_view> attr_string(
    const Attrs& attrs, std::string_view key);

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// One timed interval: a question's lifetime, a pipeline stage, a PR/AP
/// leg. `track` groups spans into sequential timelines (Perfetto threads);
/// spans on one track must nest, spans on different tracks may overlap.
struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  std::uint32_t node = 0;    ///< cluster node the work ran on (0-based)
  std::uint64_t track = 0;
  Seconds start = 0.0;
  Seconds end = 0.0;
  bool closed = false;
  Attrs attrs;
};

/// One point event (migration, crash, recovery, ...).
struct InstantRecord {
  Seconds time = 0.0;
  std::uint32_t node = 0;
  std::string text;
  Attrs attrs;
};

/// One sample of a per-node time series (CPU/disk utilization timeline).
struct CounterSample {
  Seconds time = 0.0;
  std::uint32_t node = 0;
  std::string name;
  double value = 0.0;
};

/// Collects the question-lifecycle event stream of one simulation run, at
/// simulated time. Purely an in-memory recorder: exporters (obs/export.hpp)
/// turn it into JSON-lines or Chrome trace-event files after the run.
///
/// Not thread-safe — a Simulation is single-threaded by design and the
/// tracer lives beside it.
class Tracer {
 public:
  /// Opens a span. `track` orders the span among its siblings (allocate
  /// per-timeline tracks with new_track()); `parent` nests it.
  SpanId begin_span(Seconds start, std::string name, std::uint32_t node,
                    std::uint64_t track, SpanId parent = kNoSpan,
                    Attrs attrs = {});

  /// Closes a span; `extra` attrs (byte counts, unit counts measured while
  /// the span ran) are appended. end >= start enforced.
  void end_span(SpanId id, Seconds end, Attrs extra = {});

  /// Records a point event (obs::render_text prints the Fig. 7 view).
  void instant(Seconds time, std::uint32_t node, std::string text,
               Attrs attrs = {});

  /// Appends one sample to the per-node `name` time series.
  void counter_sample(Seconds time, std::uint32_t node, std::string name,
                      double value);

  /// Allocates a fresh track id (tracks are never reused).
  std::uint64_t new_track() { return next_track_++; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }
  [[nodiscard]] const std::vector<InstantRecord>& instants() const {
    return instants_;
  }
  [[nodiscard]] const std::vector<CounterSample>& counter_samples() const {
    return counter_samples_;
  }
  [[nodiscard]] std::size_t open_spans() const { return open_spans_; }
  [[nodiscard]] bool empty() const {
    return spans_.empty() && instants_.empty() && counter_samples_.empty();
  }

  /// Spans named `name` (closed or not) — test/bench convenience.
  [[nodiscard]] std::size_t count_spans(std::string_view name) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<InstantRecord> instants_;
  std::vector<CounterSample> counter_samples_;
  SpanId next_id_ = 1;       // 0 is kNoSpan
  std::uint64_t next_track_ = 1;  // track 0 is the per-node event track
  std::size_t open_spans_ = 0;
};

}  // namespace qadist::obs
