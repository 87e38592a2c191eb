#include "obs/span.hpp"

#include "common/check.hpp"

namespace qadist::obs {

std::optional<double> attr_double(const Attrs& attrs, std::string_view key) {
  for (const auto& [k, v] : attrs) {
    if (k != key) continue;
    if (const auto* d = std::get_if<double>(&v)) return *d;
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      return static_cast<double>(*i);
    }
  }
  return std::nullopt;
}

std::optional<std::int64_t> attr_int(const Attrs& attrs,
                                     std::string_view key) {
  for (const auto& [k, v] : attrs) {
    if (k != key) continue;
    if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  }
  return std::nullopt;
}

std::optional<std::string_view> attr_string(const Attrs& attrs,
                                            std::string_view key) {
  for (const auto& [k, v] : attrs) {
    if (k != key) continue;
    if (const auto* s = std::get_if<std::string>(&v)) {
      return std::string_view(*s);
    }
  }
  return std::nullopt;
}

SpanId Tracer::begin_span(Seconds start, std::string name,
                          std::uint32_t node, std::uint64_t track,
                          SpanId parent, Attrs attrs) {
  QADIST_CHECK(parent < next_id_, << "span parent " << parent
                                  << " does not exist");
  SpanRecord span;
  span.id = next_id_++;
  span.parent = parent;
  span.name = std::move(name);
  span.node = node;
  span.track = track;
  span.start = start;
  span.attrs = std::move(attrs);
  spans_.push_back(std::move(span));
  ++open_spans_;
  return spans_.back().id;
}

void Tracer::end_span(SpanId id, Seconds end, Attrs extra) {
  QADIST_CHECK(id != kNoSpan && id < next_id_, << "ending unknown span "
                                               << id);
  // Ids are dense and allocated in order: spans_[id - 1] is span `id`.
  SpanRecord& span = spans_[id - 1];
  QADIST_CHECK(!span.closed, << "span '" << span.name << "' ended twice");
  QADIST_CHECK(end >= span.start, << "span '" << span.name << "' ends at "
                                  << end << " before its start "
                                  << span.start);
  span.end = end;
  span.closed = true;
  for (auto& kv : extra) span.attrs.push_back(std::move(kv));
  --open_spans_;
}

void Tracer::instant(Seconds time, std::uint32_t node, std::string text,
                     Attrs attrs) {
  InstantRecord rec;
  rec.time = time;
  rec.node = node;
  rec.text = std::move(text);
  rec.attrs = std::move(attrs);
  instants_.push_back(std::move(rec));
}

void Tracer::counter_sample(Seconds time, std::uint32_t node,
                            std::string name, double value) {
  counter_samples_.push_back(
      CounterSample{time, node, std::move(name), value});
}

std::size_t Tracer::count_spans(std::string_view name) const {
  std::size_t count = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ++count;
  }
  return count;
}

}  // namespace qadist::obs
