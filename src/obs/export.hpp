#pragma once

#include <iosfwd>
#include <string>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace qadist::obs {

/// JSON-lines event log: one JSON object per line, every span / instant /
/// counter sample of the run, sorted by time. Each line carries a "type"
/// discriminator ("span", "instant", "counter") — grep-able and trivially
/// ingestible by anything that reads NDJSON.
void write_jsonl(const Tracer& tracer, std::ostream& os);

/// Chrome trace-event JSON (the "JSON Array Format" with a traceEvents
/// wrapper), loadable in Perfetto / chrome://tracing. Mapping:
///   * cluster nodes  -> processes (pid = node + 1, named "N<k>"),
///   * span tracks    -> threads   (tid = track; question + leg timelines),
///   * closed spans   -> complete events (ph "X"),
///   * instant events -> instants  (ph "i") on the node's track 0,
///   * counter samples-> counters  (ph "C"; CPU/disk utilization timeline).
/// Timestamps are simulated seconds scaled to microseconds; events are
/// emitted in non-decreasing ts order.
void write_chrome_trace(const Tracer& tracer, std::ostream& os);

/// The paper's Fig. 7 text trace: one "[<t>s] N<k> <text>" line per
/// instant event, <t> to two decimals and nodes 1-based. Instants are
/// stable-sorted by time first: recovery events are recorded by the
/// coordinator when it *detects* a loss, which can interleave out of order
/// with the victims' own final events.
[[nodiscard]] std::string render_text(const Tracer& tracer);

/// The registry snapshot as one JSON object (see MetricsRegistry::to_json).
void write_metrics_json(const MetricsRegistry& registry, std::ostream& os);

/// File-writing conveniences; return false (and log to stderr) on I/O
/// failure instead of throwing — observability must never kill a run.
bool export_jsonl_file(const Tracer& tracer, const std::string& path);
bool export_chrome_trace_file(const Tracer& tracer, const std::string& path);

}  // namespace qadist::obs
