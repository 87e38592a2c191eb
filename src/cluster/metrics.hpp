#pragma once

#include "common/stats.hpp"
#include "common/units.hpp"
#include "obs/registry.hpp"

#include <vector>

namespace qadist::cluster {

/// Per-question distribution overhead components — the paper's Table 9
/// columns (keyword sending, paragraph receiving, paragraph sending,
/// answer receiving, answer sorting).
struct OverheadBreakdown {
  RunningStats keyword_send;
  RunningStats paragraph_receive;
  RunningStats paragraph_send;
  RunningStats answer_receive;
  RunningStats answer_sort;

  [[nodiscard]] double total_mean() const {
    return keyword_send.mean() + paragraph_receive.mean() +
           paragraph_send.mean() + answer_receive.mean() + answer_sort.mean();
  }
};

/// Everything a simulation run measures.
///
/// Read-only view: the live store is the System's obs::MetricsRegistry
/// (every counter below is a registry counter, every RunningStats/Samples
/// a registry histogram, updated as the run executes). System::run()
/// builds this struct with from_registry() at the end so benches and tests
/// keep field-level access; new code that wants names, labels, or JSON
/// should read System::registry() instead.
struct Metrics {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  Samples latencies;        ///< per-question response times (seconds)
  Seconds first_submit = 0.0;
  Seconds makespan = 0.0;   ///< completion time of the last question

  // Migration counts at the three scheduling points (paper Table 7).
  std::size_t migrations_qa = 0;
  std::size_t migrations_pr = 0;
  std::size_t migrations_ap = 0;

  // Fault injection and recovery (paper Sec. 5 operates the cluster for
  // months; these measure what a mid-flight node loss costs).
  std::size_t crashes = 0;          ///< node crashes actually applied
  std::size_t crashes_skipped = 0;  ///< crashes dropped (last live node)
  std::size_t legs_lost = 0;        ///< PR/AP legs killed by a crash
  std::size_t items_recovered = 0;  ///< units re-dispatched after a loss
  std::size_t recovery_legs = 0;    ///< replacement legs spawned
  std::size_t question_restarts = 0;  ///< whole questions re-hosted
  RunningStats recovery_latency;  ///< crash detection -> recovered dispatch

  // Unreliable-network layer: message-level faults, the reliability
  // envelope's reaction, and the heartbeat failure detector (all zero when
  // the run is configured without link faults).
  std::size_t net_drops = 0;            ///< messages randomly dropped
  std::size_t net_partition_drops = 0;  ///< messages lost to a partition
  std::size_t net_duplicates = 0;       ///< messages delivered twice
  std::size_t net_dedup_dropped = 0;    ///< duplicates discarded at receipt
  std::size_t net_retries = 0;          ///< send attempts after the first
  std::size_t net_send_failures = 0;    ///< sends abandoned after retries
  std::size_t legs_unreachable = 0;     ///< PR/AP legs lost to the network
  std::size_t detector_suspicions = 0;  ///< alive -> suspect transitions
  std::size_t detector_false_alarms = 0;  ///< suspects cleared by a beat
  std::size_t detector_deaths = 0;        ///< suspect -> dead confirmations
  std::size_t detector_rejoins = 0;       ///< dead peers heard from again
  std::size_t questions_degraded = 0;   ///< partial answers returned
  std::size_t degraded_units_dropped = 0;  ///< work units a deadline forfeited
  std::size_t degraded_stale_served = 0;   ///< stale cache entries handed out

  // Sharded corpus / index replication (extension; all zero when the run
  // is configured without sharding).
  std::size_t shard_failovers = 0;      ///< rebuild tasks scheduled on crash
  std::size_t shard_rebuilds = 0;       ///< re-replications completed
  std::size_t shard_rebuild_bytes = 0;  ///< bytes copied by re-replication
  std::size_t shard_revalidations = 0;  ///< replicas re-validated on rejoin
  std::size_t shard_units_unserved = 0; ///< PR units with no live replica
  std::size_t rejoin_cache_clears = 0;  ///< cache shards cleared on rejoin
  RunningStats shard_rebuild_seconds;   ///< crash -> replica ready again

  // Gray faults and the tail-tolerance toolkit (extension; all zero when
  // the run is configured without cfg.gray / cfg.tail). A hedge "win"
  // means the backup finished before the primary; a "loss" means the
  // primary won and the backup work was wasted (and, in tied mode,
  // cancelled mid-flight).
  std::size_t gray_onsets = 0;       ///< gray windows opened
  std::size_t gray_recoveries = 0;   ///< gray windows closed
  std::size_t legs_spawned = 0;      ///< primary PR/AP legs issued
  std::size_t hedges_issued = 0;     ///< backup legs issued
  std::size_t hedge_wins = 0;        ///< backups that beat their primary
  std::size_t hedge_losses = 0;      ///< backups beaten by their primary
  std::size_t legs_cancelled = 0;    ///< tied losers cancelled mid-flight
  std::size_t straggler_avoidances = 0;  ///< placements steered off stragglers

  /// Backup legs as a fraction of primary legs — the hedge overhead the
  /// acceptance bar caps (≤ 15% at the default p95 trigger).
  [[nodiscard]] double hedge_overhead() const {
    if (legs_spawned == 0) return 0.0;
    return static_cast<double>(hedges_issued) /
           static_cast<double>(legs_spawned);
  }

  // Per-question simulated module stage times (paper Table 8 columns).
  RunningStats t_qp;
  RunningStats t_pr;   ///< PR stage wall (retrieval legs incl. transfers)
  RunningStats t_ps;   ///< scoring time on the slowest PR leg
  RunningStats t_po;
  RunningStats t_ap;   ///< AP stage wall

  // Admission control / load shedding (extension; all zero when the run
  // is configured without admission control). Degraded-at-admission
  // questions count as completed; rejected and shed ones do not.
  std::size_t questions_rejected = 0;  ///< arrivals turned away
  std::size_t questions_shed = 0;      ///< queued questions dropped
  std::size_t admission_degraded = 0;  ///< arrivals served cached/partial
  RunningStats admission_wait;         ///< queue wait of admitted questions
  double admission_queue_peak = 0.0;   ///< high-water mark of the queue

  // Answer/paragraph caching and cache-affinity dispatch (extension; all
  // zero when the run is configured without caches).
  std::size_t cache_hits = 0;        ///< answer-cache hits
  std::size_t cache_misses = 0;      ///< answer-cache misses
  std::size_t pr_cache_hits = 0;     ///< paragraph-cache hits (PR skipped)
  std::size_t pr_cache_misses = 0;
  std::size_t cache_evictions = 0;      ///< capacity + byte-budget, all caches
  std::size_t cache_expirations = 0;    ///< TTL drops, all caches
  std::size_t cache_invalidations = 0;  ///< crash-invalidated entries
  std::size_t affinity_routes = 0;      ///< questions routed to the preferred node
  std::size_t affinity_fallbacks = 0;   ///< preferred node overloaded/down

  OverheadBreakdown overhead;  ///< paper Table 9

  /// Per-node work served over the whole run (CPU-seconds, disk bytes),
  /// indexed by node id — the balance view behind the policy comparisons.
  std::vector<double> node_cpu_work;
  std::vector<double> node_disk_bytes;

  /// Per-node simulated index storage (bytes), indexed by node id; empty
  /// when sharding is off. The storage-scaling axis of bench_shard_scaling.
  std::vector<double> node_storage_bytes;

  /// Largest per-node index storage footprint (0 when sharding is off).
  [[nodiscard]] double max_storage_bytes() const {
    double max_bytes = 0.0;
    for (double b : node_storage_bytes) {
      max_bytes = max_bytes > b ? max_bytes : b;
    }
    return max_bytes;
  }

  /// max/mean of per-node CPU work — 1.0 is a perfectly balanced run.
  [[nodiscard]] double cpu_work_imbalance() const {
    if (node_cpu_work.empty()) return 1.0;
    double max_work = 0.0;
    double total = 0.0;
    for (double w : node_cpu_work) {
      max_work = max_work > w ? max_work : w;
      total += w;
    }
    const double mean = total / static_cast<double>(node_cpu_work.size());
    return mean > 0.0 ? max_work / mean : 1.0;
  }

  /// Questions per minute over the busy interval.
  [[nodiscard]] double throughput_qpm() const {
    const Seconds busy = makespan - first_submit;
    if (busy <= 0.0) return 0.0;
    return static_cast<double>(completed) / (busy / 60.0);
  }

  /// Fraction of completed questions answered in full, i.e. not flagged
  /// degraded (1.0 when nothing completed — an empty run loses nothing).
  [[nodiscard]] double non_degraded_fraction() const {
    if (completed == 0) return 1.0;
    return 1.0 - static_cast<double>(questions_degraded) /
                     static_cast<double>(completed);
  }

  /// Fraction of submitted questions the front door turned away (rejected
  /// or shed; degraded ones were still answered). 0 for an empty run.
  [[nodiscard]] double shed_fraction() const {
    if (submitted == 0) return 0.0;
    return static_cast<double>(questions_rejected + questions_shed) /
           static_cast<double>(submitted);
  }

  /// Answer-cache hit rate over all probes (0 when the cache never ran).
  [[nodiscard]] double answer_cache_hit_rate() const {
    const std::size_t probes = cache_hits + cache_misses;
    return probes == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                   static_cast<double>(probes);
  }

  /// Builds the view from a registry populated by a System run. Absent
  /// instruments read as zero/empty, so snapshots taken from partially
  /// instrumented registries (or mid-run) degrade gracefully.
  [[nodiscard]] static Metrics from_registry(
      const obs::MetricsRegistry& registry);
};

}  // namespace qadist::cluster
