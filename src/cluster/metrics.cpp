#include "cluster/metrics.hpp"

#include <cstdlib>
#include <string>

namespace qadist::cluster {

namespace {

std::size_t counter_value(const obs::MetricsRegistry& registry,
                          std::string_view name, obs::Labels labels = {}) {
  const obs::Counter* c = registry.find_counter(name, std::move(labels));
  return c == nullptr ? 0 : static_cast<std::size_t>(c->value());
}

double gauge_value(const obs::MetricsRegistry& registry,
                   std::string_view name, obs::Labels labels = {}) {
  const obs::Gauge* g = registry.find_gauge(name, std::move(labels));
  return g == nullptr ? 0.0 : g->value();
}

RunningStats histogram_stats(const obs::MetricsRegistry& registry,
                             std::string_view name, obs::Labels labels = {}) {
  const obs::HistogramMetric* h =
      registry.find_histogram(name, std::move(labels));
  return h == nullptr ? RunningStats{} : h->stats();
}

/// Per-node gauges ("node" label holds the id) gathered into a dense
/// vector indexed by node id.
std::vector<double> node_series(const obs::MetricsRegistry& registry,
                                std::string_view name) {
  std::vector<double> out;
  for (const auto& g : registry.gauges()) {
    if (g.name() != name) continue;
    for (const auto& [k, v] : g.labels()) {
      if (k != "node") continue;
      const std::size_t id = std::strtoull(v.c_str(), nullptr, 10);
      if (out.size() <= id) out.resize(id + 1, 0.0);
      out[id] = g.value();
    }
  }
  return out;
}

/// Sums a counter over every label set it was registered under (e.g.
/// cache_evictions across {cache=answers} and {cache=paragraphs}).
std::size_t counter_total(const obs::MetricsRegistry& registry,
                          std::string_view name) {
  double total = 0.0;
  for (const auto& c : registry.counters()) {
    if (c.name() == name) total += c.value();
  }
  return static_cast<std::size_t>(total);
}

}  // namespace

Metrics Metrics::from_registry(const obs::MetricsRegistry& registry) {
  Metrics out;
  out.submitted = counter_value(registry, "questions_submitted");
  out.completed = counter_value(registry, "questions_completed");
  if (const auto* h = registry.find_histogram("question_latency_seconds")) {
    out.latencies = h->samples();
  }
  out.first_submit = gauge_value(registry, "first_submit_seconds");
  out.makespan = gauge_value(registry, "makespan_seconds");

  out.migrations_qa = counter_value(registry, "migrations", {{"stage", "qa"}});
  out.migrations_pr = counter_value(registry, "migrations", {{"stage", "pr"}});
  out.migrations_ap = counter_value(registry, "migrations", {{"stage", "ap"}});

  out.crashes = counter_value(registry, "crashes");
  out.crashes_skipped = counter_value(registry, "crashes_skipped");
  out.legs_lost = counter_value(registry, "legs_lost");
  out.items_recovered = counter_value(registry, "items_recovered");
  out.recovery_legs = counter_value(registry, "recovery_legs");
  out.question_restarts = counter_value(registry, "question_restarts");
  out.recovery_latency = histogram_stats(registry, "recovery_latency_seconds");

  out.net_drops = counter_value(registry, "net_drops");
  out.net_partition_drops = counter_value(registry, "net_partition_drops");
  out.net_duplicates = counter_value(registry, "net_duplicates");
  out.net_dedup_dropped = counter_value(registry, "net_dedup_dropped");
  out.net_retries = counter_value(registry, "net_retries");
  out.net_send_failures = counter_value(registry, "net_send_failures");
  out.legs_unreachable = counter_value(registry, "legs_unreachable");
  out.detector_suspicions = counter_value(registry, "detector_suspicions");
  out.detector_false_alarms = counter_value(registry, "detector_false_alarms");
  out.detector_deaths = counter_value(registry, "detector_deaths");
  out.detector_rejoins = counter_value(registry, "detector_rejoins");
  out.questions_degraded = counter_value(registry, "questions_degraded");
  out.degraded_units_dropped =
      counter_value(registry, "degraded_units_dropped");
  out.degraded_stale_served = counter_value(registry, "degraded_stale_served");

  out.shard_failovers = counter_value(registry, "shard_failovers");
  out.shard_rebuilds = counter_value(registry, "shard_rebuilds");
  out.shard_rebuild_bytes = counter_value(registry, "shard_rebuild_bytes");
  out.shard_revalidations = counter_value(registry, "shard_revalidations");
  out.shard_units_unserved = counter_value(registry, "shard_units_unserved");
  out.rejoin_cache_clears = counter_value(registry, "rejoin_cache_clears");
  out.shard_rebuild_seconds =
      histogram_stats(registry, "shard_rebuild_seconds");

  out.gray_onsets = counter_value(registry, "gray_onsets");
  out.gray_recoveries = counter_value(registry, "gray_recoveries");
  out.legs_spawned = counter_value(registry, "legs_spawned");
  out.hedges_issued = counter_value(registry, "hedges_issued");
  out.hedge_wins = counter_value(registry, "hedge_wins");
  out.hedge_losses = counter_value(registry, "hedge_losses");
  out.legs_cancelled = counter_value(registry, "legs_cancelled");
  out.straggler_avoidances = counter_value(registry, "straggler_avoidances");

  out.t_qp = histogram_stats(registry, "stage_seconds", {{"stage", "qp"}});
  out.t_pr = histogram_stats(registry, "stage_seconds", {{"stage", "pr"}});
  out.t_ps = histogram_stats(registry, "stage_seconds", {{"stage", "ps"}});
  out.t_po = histogram_stats(registry, "stage_seconds", {{"stage", "po"}});
  out.t_ap = histogram_stats(registry, "stage_seconds", {{"stage", "ap"}});

  out.questions_rejected = counter_value(registry, "questions_rejected");
  out.questions_shed = counter_value(registry, "questions_shed");
  out.admission_degraded = counter_value(registry, "admission_degraded");
  out.admission_wait = histogram_stats(registry, "admission_wait_seconds");
  out.admission_queue_peak = gauge_value(registry, "admission_queue_peak");

  out.cache_hits =
      counter_value(registry, "cache_hits", {{"cache", "answers"}});
  out.cache_misses =
      counter_value(registry, "cache_misses", {{"cache", "answers"}});
  out.pr_cache_hits =
      counter_value(registry, "cache_hits", {{"cache", "paragraphs"}});
  out.pr_cache_misses =
      counter_value(registry, "cache_misses", {{"cache", "paragraphs"}});
  out.cache_evictions = counter_total(registry, "cache_evictions");
  out.cache_expirations = counter_total(registry, "cache_expirations");
  out.cache_invalidations = counter_total(registry, "cache_invalidations");
  out.affinity_routes = counter_value(registry, "affinity_routes");
  out.affinity_fallbacks = counter_value(registry, "affinity_fallbacks");

  out.overhead.keyword_send = histogram_stats(
      registry, "overhead_seconds", {{"component", "keyword_send"}});
  out.overhead.paragraph_receive = histogram_stats(
      registry, "overhead_seconds", {{"component", "paragraph_receive"}});
  out.overhead.paragraph_send = histogram_stats(
      registry, "overhead_seconds", {{"component", "paragraph_send"}});
  out.overhead.answer_receive = histogram_stats(
      registry, "overhead_seconds", {{"component", "answer_receive"}});
  out.overhead.answer_sort = histogram_stats(
      registry, "overhead_seconds", {{"component", "answer_sort"}});

  out.node_cpu_work = node_series(registry, "node_cpu_work_seconds");
  out.node_disk_bytes = node_series(registry, "node_disk_work_bytes");
  out.node_storage_bytes = node_series(registry, "node_storage_bytes");
  return out;
}

}  // namespace qadist::cluster
