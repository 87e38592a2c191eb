#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/strings.hpp"
#include "obs/json.hpp"

namespace qadist::obs {

namespace {

void write_attr_value(std::ostream& os, const AttrValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    os << *i;
  } else if (const auto* d = std::get_if<double>(&v)) {
    json_number(os, *d);
  } else {
    json_string(os, std::get<std::string>(v));
  }
}

void write_attrs(std::ostream& os, const Attrs& attrs) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : attrs) {
    if (!first) os << ",";
    first = false;
    json_string(os, k);
    os << ":";
    write_attr_value(os, v);
  }
  os << "}";
}

/// One rendered event plus its sort key. Exporters render first, then
/// stable-sort by time, so out-of-order recording (coordinator-side
/// recovery events) cannot produce a time-warped file.
struct Rendered {
  Seconds time;
  std::string json;
};

void emit_sorted(std::vector<Rendered>& events, std::ostream& os,
                 std::string_view sep) {
  std::stable_sort(events.begin(), events.end(),
                   [](const Rendered& a, const Rendered& b) {
                     return a.time < b.time;
                   });
  bool first = true;
  for (const auto& e : events) {
    if (!first) os << sep;
    first = false;
    os << e.json;
  }
}

}  // namespace

void write_jsonl(const Tracer& tracer, std::ostream& os) {
  std::vector<Rendered> events;
  events.reserve(tracer.spans().size() + tracer.instants().size() +
                 tracer.counter_samples().size());
  for (const auto& s : tracer.spans()) {
    std::ostringstream line;
    line << "{\"type\":\"span\",\"name\":";
    json_string(line, s.name);
    line << ",\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"node\":" << s.node << ",\"track\":" << s.track
         << ",\"start\":";
    json_number(line, s.start);
    line << ",\"end\":";
    json_number(line, s.closed ? s.end : s.start);
    line << ",\"closed\":" << (s.closed ? "true" : "false") << ",\"attrs\":";
    write_attrs(line, s.attrs);
    line << "}";
    events.push_back(Rendered{s.start, line.str()});
  }
  for (const auto& i : tracer.instants()) {
    std::ostringstream line;
    line << "{\"type\":\"instant\",\"text\":";
    json_string(line, i.text);
    line << ",\"node\":" << i.node << ",\"time\":";
    json_number(line, i.time);
    line << ",\"attrs\":";
    write_attrs(line, i.attrs);
    line << "}";
    events.push_back(Rendered{i.time, line.str()});
  }
  for (const auto& c : tracer.counter_samples()) {
    std::ostringstream line;
    line << "{\"type\":\"counter\",\"name\":";
    json_string(line, c.name);
    line << ",\"node\":" << c.node << ",\"time\":";
    json_number(line, c.time);
    line << ",\"value\":";
    json_number(line, c.value);
    line << "}";
    events.push_back(Rendered{c.time, line.str()});
  }
  emit_sorted(events, os, "\n");
  if (!events.empty()) os << "\n";
}

void write_chrome_trace(const Tracer& tracer, std::ostream& os) {
  constexpr double kMicros = 1e6;  // simulated seconds -> trace µs
  std::vector<Rendered> events;

  // Which nodes appear at all (for process_name metadata).
  std::vector<std::uint32_t> nodes;
  const auto note_node = [&nodes](std::uint32_t node) {
    if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
      nodes.push_back(node);
    }
  };

  for (const auto& s : tracer.spans()) {
    if (!s.closed) continue;  // an open span has no duration to draw
    note_node(s.node);
    std::ostringstream ev;
    ev << "{\"ph\":\"X\",\"name\":";
    json_string(ev, s.name);
    ev << ",\"cat\":\"span\",\"pid\":" << (s.node + 1)
       << ",\"tid\":" << s.track << ",\"ts\":";
    json_number(ev, s.start * kMicros);
    ev << ",\"dur\":";
    json_number(ev, (s.end - s.start) * kMicros);
    ev << ",\"args\":";
    write_attrs(ev, s.attrs);
    ev << "}";
    events.push_back(Rendered{s.start, ev.str()});
  }
  for (const auto& i : tracer.instants()) {
    note_node(i.node);
    std::ostringstream ev;
    ev << "{\"ph\":\"i\",\"name\":";
    json_string(ev, i.text);
    ev << ",\"cat\":\"event\",\"pid\":" << (i.node + 1)
       << ",\"tid\":0,\"s\":\"t\",\"ts\":";
    json_number(ev, i.time * kMicros);
    ev << ",\"args\":";
    write_attrs(ev, i.attrs);
    ev << "}";
    events.push_back(Rendered{i.time, ev.str()});
  }
  for (const auto& c : tracer.counter_samples()) {
    note_node(c.node);
    std::ostringstream ev;
    ev << "{\"ph\":\"C\",\"name\":";
    json_string(ev, c.name);
    ev << ",\"pid\":" << (c.node + 1) << ",\"tid\":0,\"ts\":";
    json_number(ev, c.time * kMicros);
    ev << ",\"args\":{\"value\":";
    json_number(ev, c.value);
    ev << "}}";
    events.push_back(Rendered{c.time, ev.str()});
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::sort(nodes.begin(), nodes.end());
  bool first = true;
  for (const std::uint32_t node : nodes) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << (node + 1)
       << ",\"args\":{\"name\":\"N" << (node + 1) << "\"}}";
  }
  if (!events.empty() && !first) os << ",";
  emit_sorted(events, os, ",");
  os << "]}";
}

std::string render_text(const Tracer& tracer) {
  std::vector<const InstantRecord*> sorted;
  sorted.reserve(tracer.instants().size());
  for (const auto& e : tracer.instants()) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const InstantRecord* a, const InstantRecord* b) {
                     return a->time < b->time;
                   });
  std::ostringstream os;
  for (const InstantRecord* e : sorted) {
    os << "[" << format_double(e->time, 2) << "s] N" << (e->node + 1) << " "
       << e->text << "\n";
  }
  return os.str();
}

void write_metrics_json(const MetricsRegistry& registry, std::ostream& os) {
  os << registry.to_json();
}

namespace {

template <typename WriteFn>
bool export_file(const std::string& path, WriteFn&& write) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[obs] cannot open %s for writing\n", path.c_str());
    return false;
  }
  write(out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "[obs] short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

bool export_jsonl_file(const Tracer& tracer, const std::string& path) {
  return export_file(path,
                     [&](std::ostream& os) { write_jsonl(tracer, os); });
}

bool export_chrome_trace_file(const Tracer& tracer,
                              const std::string& path) {
  return export_file(
      path, [&](std::ostream& os) { write_chrome_trace(tracer, os); });
}

}  // namespace qadist::obs
