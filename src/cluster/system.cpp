#include "cluster/system.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "cluster/node_caches.hpp"
#include "cluster/supervision.hpp"

namespace qadist::cluster {

using parallel::Strategy;
using sched::NodeId;

System::System(simnet::Simulation& sim, const SystemConfig& config)
    : sim_(sim), config_(config) {
  QADIST_CHECK(config.nodes >= 1);
  QADIST_CHECK(config.partition.pr_strategy != Strategy::kIsend,
               << "ISEND does not apply to PR: collections are unranked "
                  "(paper Sec. 6.3)");
  QADIST_CHECK(config.node_cpu_speeds.empty() ||
                   config.node_cpu_speeds.size() == config.nodes,
               << "node_cpu_speeds arity mismatch");
  nodes_.reserve(config.nodes);
  for (NodeId id = 0; id < config.nodes; ++id) {
    NodeConfig node_config = config.node;
    if (!config.node_cpu_speeds.empty()) {
      node_config.cpu_speed = config.node_cpu_speeds[id];
    }
    nodes_.push_back(std::make_unique<Node>(sim, id, node_config));
  }
  if (config.cache.enabled()) {
    caches_.reserve(config.nodes);
    for (std::size_t i = 0; i < config.nodes; ++i) {
      caches_.push_back(std::make_unique<NodeCaches>(config.cache));
    }
  }
  node_broadcasting_.assign(config.nodes, 1);
  node_crashed_.assign(config.nodes, 0);
  crash_epoch_.assign(config.nodes, 0);
  crash_time_.assign(config.nodes, 0.0);
  two_choice_rng_.reseed(config.seed);
  // Own streams for the fault layer, decorrelated from the two-choice
  // draws by splitmix64-style constants, so enabling faults never perturbs
  // the workload's random decisions.
  net_rng_.reseed(config.seed ^ 0xbf58476d1ce4e5b9ULL);
  network_ = std::make_unique<simnet::Link>(
      sim, "lan", config.net.bandwidth, config.net.per_message_overhead);
  if (config.net.faults.enabled()) {
    injector_ = std::make_unique<simnet::LinkFaultInjector>(
        config.net.faults, config.seed ^ 0x94d049bb133111ebULL);
    network_->set_fault_injector(injector_.get());
  }
  table_ = sched::LoadTable(sched::FailureDetectorConfig{
      kMonitorPeriod, kSuspectAfterMissed, kMembershipTimeout});
  if (config.tail.enabled()) {
    leg_latency_ = sched::LegLatencyTracker(config.nodes, kEwmaAlpha);
    leg_walls_.fill(
        RunningQuantile(std::clamp(config.tail.hedge_quantile, 0.0, 1.0)));
  }
  if (config.gray.enabled()) {
    gray_extra_latency_.assign(config.nodes, 0.0);
    gray_open_.assign(config.nodes, {});
    for (const auto& event : config.gray.events) {
      QADIST_CHECK(event.node < config.nodes,
                   << "gray fault targets unknown node " << event.node);
      QADIST_CHECK(std::isfinite(event.at) && event.at >= 0.0,
                   << "gray fault onset time must be finite and >= 0, got "
                   << event.at);
      QADIST_CHECK(!std::isnan(event.recover_after),
                   << "gray fault recover_after must not be NaN");
      QADIST_CHECK(std::isfinite(event.cpu_factor) &&
                       std::isfinite(event.disk_factor) &&
                       event.cpu_factor > 0.0 && event.disk_factor > 0.0,
                   << "gray factors must be positive and finite, got cpu="
                   << event.cpu_factor << " disk=" << event.disk_factor);
      QADIST_CHECK(std::isfinite(event.extra_latency) &&
                       event.extra_latency >= 0.0,
                   << "gray extra_latency must be finite and >= 0, got "
                   << event.extra_latency);
    }
  }
  // Selective search + broker/mediator tier (cfg.broker). Both axes
  // require a sharded corpus — selection scores shards, the tier routes by
  // shard group — and both are off by default: flat runs build no extra
  // links and take no new branches (bit-identical, pinned by test).
  const bool tier_on = config.broker.tier_enabled();
  const bool selection_on =
      config.broker.selection_enabled(config.shard.num_shards);
  if (tier_on || selection_on) {
    QADIST_CHECK(config.shard.enabled(),
                 << "cfg.broker requires a sharded corpus "
                    "(cfg.shard.num_shards > 0)");
    QADIST_CHECK(config.broker.selectivity > 0.0 &&
                     config.broker.selectivity <= 1.0,
                 << "cfg.broker.selectivity must be in (0, 1], got "
                 << config.broker.selectivity);
  }
  if (selection_on && config.broker.stats != nullptr) {
    QADIST_CHECK(config.broker.stats->num_shards() == config.shard.num_shards,
                 << "cfg.broker.stats covers "
                 << config.broker.stats->num_shards() << " shards but "
                 << "cfg.shard.num_shards is " << config.shard.num_shards);
  }
  if (tier_on) {
    QADIST_CHECK(config.broker.brokers <= config.nodes,
                 << "cfg.broker.brokers (" << config.broker.brokers
                 << ") exceeds the node count (" << config.nodes << ")");
    topology_.emplace(config.nodes, config.broker.brokers);
    // Two-level fabric: one subtree LAN per group (same spec as the flat
    // LAN) plus a core backbone between groups. The flat network_ keeps
    // serving runs without the tier; link_for() picks per transfer.
    core_link_ = std::make_unique<simnet::Link>(
        sim, "core", broker::kCoreBandwidth, config.net.per_message_overhead);
    subtree_links_.reserve(config.broker.brokers);
    for (std::size_t g = 0; g < config.broker.brokers; ++g) {
      subtree_links_.push_back(std::make_unique<simnet::Link>(
          sim, "subtree" + std::to_string(g), config.net.bandwidth,
          config.net.per_message_overhead));
    }
    if (injector_ != nullptr) {
      core_link_->set_fault_injector(injector_.get());
      for (const auto& link : subtree_links_) {
        link->set_fault_injector(injector_.get());
      }
    }
  }
  if (config.shard.enabled()) {
    if (topology_.has_value()) {
      // Group-constrained placement: each shard lives (and fails over)
      // inside its broker group's subtree, so a broker resolves every
      // shard of its group without crossing the core.
      std::vector<std::pair<shard::NodeId, shard::NodeId>> pools;
      pools.reserve(config.shard.num_shards);
      for (std::size_t s = 0; s < config.shard.num_shards; ++s) {
        const auto [first, last] =
            topology_->group_range(topology_->group_of_shard(s));
        pools.emplace_back(static_cast<shard::NodeId>(first),
                           static_cast<shard::NodeId>(last));
      }
      shard_map_ = std::make_unique<shard::ShardMap>(
          config.shard.num_shards, config.nodes,
          config.shard.effective_replication(config.nodes), pools);
    } else {
      shard_map_ = std::make_unique<shard::ShardMap>(
          config.shard.num_shards, config.nodes,
          config.shard.effective_replication(config.nodes));
    }
    // R = nodes: every node holds every shard, placement is unconstrained,
    // and the legacy scheduling path runs unchanged (bit-compatible with
    // full replication) — only the storage accounting is published. The
    // broker tier and collection selection both force the replica-aware
    // scatter: group placement and pruned unit sets need assign_pr_units
    // even under full replication.
    shard_partial_ =
        config.shard.partial(config.nodes) || tier_on || selection_on;
  }
  register_instruments();
  cpu_probes_.reserve(config.nodes);
  disk_probes_.reserve(config.nodes);
  for (const auto& node : nodes_) {
    node->attach_registry(registry_);
    cpu_probes_.emplace_back(node->cpu());
    disk_probes_.emplace_back(node->disk());
  }
}

void System::register_instruments() {
  ins_.submitted = &registry_.counter("questions_submitted");
  ins_.completed = &registry_.counter("questions_completed");
  ins_.migrations_qa = &registry_.counter("migrations", {{"stage", "qa"}});
  ins_.migrations_pr = &registry_.counter("migrations", {{"stage", "pr"}});
  ins_.migrations_ap = &registry_.counter("migrations", {{"stage", "ap"}});
  ins_.crashes = &registry_.counter("crashes");
  ins_.crashes_skipped = &registry_.counter("crashes_skipped");
  ins_.legs_lost = &registry_.counter("legs_lost");
  ins_.items_recovered = &registry_.counter("items_recovered");
  ins_.recovery_legs = &registry_.counter("recovery_legs");
  ins_.question_restarts = &registry_.counter("question_restarts");
  ins_.latency = &registry_.histogram("question_latency_seconds");
  ins_.recovery_latency = &registry_.histogram("recovery_latency_seconds");
  ins_.t_qp = &registry_.histogram("stage_seconds", {{"stage", "qp"}});
  ins_.t_pr = &registry_.histogram("stage_seconds", {{"stage", "pr"}});
  ins_.t_ps = &registry_.histogram("stage_seconds", {{"stage", "ps"}});
  ins_.t_po = &registry_.histogram("stage_seconds", {{"stage", "po"}});
  ins_.t_ap = &registry_.histogram("stage_seconds", {{"stage", "ap"}});
  ins_.oh_keyword_send =
      &registry_.histogram("overhead_seconds", {{"component", "keyword_send"}});
  ins_.oh_paragraph_receive = &registry_.histogram(
      "overhead_seconds", {{"component", "paragraph_receive"}});
  ins_.oh_paragraph_send = &registry_.histogram(
      "overhead_seconds", {{"component", "paragraph_send"}});
  ins_.oh_answer_receive = &registry_.histogram(
      "overhead_seconds", {{"component", "answer_receive"}});
  ins_.oh_answer_sort =
      &registry_.histogram("overhead_seconds", {{"component", "answer_sort"}});
  // Registered even when caching is off, so the registry schema (and the
  // Metrics view built from it) is stable across configurations.
  ins_.cache_hits = &registry_.counter("cache_hits", {{"cache", "answers"}});
  ins_.cache_misses =
      &registry_.counter("cache_misses", {{"cache", "answers"}});
  ins_.pr_cache_hits =
      &registry_.counter("cache_hits", {{"cache", "paragraphs"}});
  ins_.pr_cache_misses =
      &registry_.counter("cache_misses", {{"cache", "paragraphs"}});
  ins_.affinity_routes = &registry_.counter("affinity_routes");
  ins_.affinity_fallbacks = &registry_.counter("affinity_fallbacks");
  // Unreliable-network layer. Registered unconditionally (like the cache
  // counters) so the registry schema is stable across configurations.
  ins_.net_retries = &registry_.counter("net_retries");
  ins_.net_send_failures = &registry_.counter("net_send_failures");
  ins_.legs_unreachable = &registry_.counter("legs_unreachable");
  ins_.questions_degraded = &registry_.counter("questions_degraded");
  ins_.degraded_units_dropped = &registry_.counter("degraded_units_dropped");
  ins_.degraded_stale_served = &registry_.counter("degraded_stale_served");
  // Shard subsystem. Registered unconditionally, like the layers above.
  ins_.shard_failovers = &registry_.counter("shard_failovers");
  ins_.shard_rebuilds = &registry_.counter("shard_rebuilds");
  ins_.shard_rebuild_bytes = &registry_.counter("shard_rebuild_bytes");
  ins_.shard_revalidations = &registry_.counter("shard_revalidations");
  ins_.shard_units_unserved = &registry_.counter("shard_units_unserved");
  ins_.rejoin_cache_clears = &registry_.counter("rejoin_cache_clears");
  ins_.shard_rebuild_seconds = &registry_.histogram("shard_rebuild_seconds");
  // Admission control. Registered unconditionally, like the layers above.
  ins_.questions_rejected = &registry_.counter("questions_rejected");
  ins_.questions_shed = &registry_.counter("questions_shed");
  ins_.admission_degraded = &registry_.counter("admission_degraded");
  ins_.admission_wait = &registry_.histogram("admission_wait_seconds");
  // Tail-tolerance toolkit + gray faults. Registered unconditionally, like
  // the layers above.
  ins_.legs_spawned = &registry_.counter("legs_spawned");
  ins_.hedges_issued = &registry_.counter("hedges_issued");
  ins_.hedge_wins = &registry_.counter("hedge_wins");
  ins_.hedge_losses = &registry_.counter("hedge_losses");
  ins_.legs_cancelled = &registry_.counter("legs_cancelled");
  ins_.straggler_avoidances = &registry_.counter("straggler_avoidances");
  ins_.gray_onsets = &registry_.counter("gray_onsets");
  ins_.gray_recoveries = &registry_.counter("gray_recoveries");
  // Selective search + broker tier. Registered unconditionally, like the
  // layers above.
  ins_.selection_questions_pruned =
      &registry_.counter("selection_questions_pruned");
  ins_.selection_units_pruned = &registry_.counter("selection_units_pruned");
  ins_.selection_ap_units_pruned =
      &registry_.counter("selection_ap_units_pruned");
  ins_.selection_fallback_all = &registry_.counter("selection_fallback_all");
  ins_.selection_shards_selected =
      &registry_.histogram("selection_shards_selected");
  ins_.broker_legs = &registry_.counter("broker_legs");
  ins_.broker_reroutes = &registry_.counter("broker_reroutes");
  ins_.broker_unreachable = &registry_.counter("broker_unreachable");
  ins_.broker_load_relays = &registry_.counter("broker_load_relays");
}

System::~System() = default;

void System::close_span(obs::SpanId& span, obs::Attrs attrs) {
  if (tracer_ == nullptr || span == obs::kNoSpan) return;
  tracer_->end_span(span, sim_.now(), std::move(attrs));
  span = obs::kNoSpan;
}

void System::record_event(NodeId node, std::string event, obs::Attrs attrs) {
  if (tracer_ != nullptr) {
    tracer_->instant(sim_.now(), node, std::move(event), std::move(attrs));
  }
}

void System::submit(const QuestionPlan& plan, Seconds at) {
  QADIST_CHECK(!started_, << "submit after run()");
  const NodeId dns_node = next_dns_node_;
  next_dns_node_ = static_cast<NodeId>((next_dns_node_ + 1) % nodes_.size());
  if (ins_.submitted->value() == 0.0 || at < first_submit_) {
    first_submit_ = at;
  }
  ins_.submitted->inc();
  sim_.schedule_at(at, [this, &plan, dns_node] {
    on_arrival(plan, dns_node);
  });
}

void System::observe_leg(sched::LegStage stage, NodeId node, Seconds wall,
                         double units, bool backup) {
  if (!config_.tail.enabled()) return;
  // The hedge trigger is a quantile of *primary* per-unit leg walls. A
  // backup's wall is measured from the hedge instant and is short by
  // construction; feeding it back would depress the trigger and
  // over-hedge. Normalizing by units keeps legs of different sizes
  // comparable — the trigger scales back up by each leg's own unit count.
  if (!backup && units > 0.0) {
    leg_walls_[static_cast<std::size_t>(stage)].add(wall / units);
  }
  leg_latency_.observe(node, stage, wall, units);
}

std::optional<Seconds> System::hedge_delay(sched::LegStage stage) const {
  // The configured quantile of the completed-leg per-unit walls observed
  // so far (the live analogue of the "send the backup after the p95"
  // rule), kept as an exact running order statistic: the observation
  // order is deterministic, so the trigger is too. Callers scale by the
  // waiting leg's unit count and apply kHedgeMinDelay.
  const RunningQuantile& walls = leg_walls_[static_cast<std::size_t>(stage)];
  if (walls.count() < kHedgeMinSamples) return std::nullopt;
  return walls.value();
}

std::span<const char> System::straggler_mask(sched::LegStage stage) {
  if (!config_.tail.latency_aware) return {};
  if (!leg_latency_.straggler_mask(stage, kStragglerRatio,
                                   straggler_scratch_)) {
    return {};
  }
  ins_.straggler_avoidances->inc();
  return {straggler_scratch_.data(), straggler_scratch_.size()};
}

bool System::schedulable(NodeId node) const {
  return node_crashed_[node] == 0 &&
         table_.detector().state(node) == sched::PeerState::kAlive;
}

bool System::deadline_exceeded(const QuestionState& q) const {
  return q.deadline > 0.0 && sim_.now() > q.deadline;
}

simnet::Link& System::link_for(NodeId src, NodeId dst) const {
  // Flat star: the single shared LAN. Broker tier: endpoints inside one
  // group share that group's subtree segment; anything crossing groups
  // rides the core backbone. Never called with kBroadcastNode — the
  // monitor broadcast picks its segment explicitly (see monitor_process).
  if (!topology_.has_value()) return *network_;
  const std::size_t src_group = topology_->group_of_node(src);
  if (src_group == topology_->group_of_node(dst)) {
    return *subtree_links_[src_group];
  }
  return *core_link_;
}

simnet::Task<bool> System::ship(double bytes, NodeId src, NodeId dst,
                                Seconds deadline, ShipCost* cost) {
  // Gray link penalty: a degraded NIC adds propagation delay the failure
  // detector never sees (heartbeats go over Link::send directly and stay
  // on schedule). Guarded so a run without a gray plan emits no extra
  // event — bit-identical to builds without this layer.
  const Seconds gray_extra = gray_extra_latency(src, dst);
  if (gray_extra > 0.0) {
    const Seconds g0 = sim_.now();
    co_await simnet::Delay(sim_, gray_extra);
    if (cost != nullptr) cost->transfer += sim_.now() - g0;
  }
  // One idempotency token per logical message: however many frames the
  // retries and link-level duplications put on the wire, the receiver
  // processes the sequence number once and discards the rest (the link
  // folds the duplicate tally into net_dedup_dropped at the end of the
  // run). The token also keeps redeliveries observable in sim traces.
  [[maybe_unused]] const std::uint64_t seq = next_msg_seq_++;
  Seconds backoff = kBackoffBase;
  for (std::size_t attempt = 0;; ++attempt) {
    const Seconds t0 = sim_.now();
    const simnet::LinkVerdict verdict =
        co_await link_for(src, dst).send(bytes, src, dst);
    if (cost != nullptr) cost->transfer += sim_.now() - t0;
    if (verdict.delivered) co_return true;
    if (attempt >= kMaxRetries) break;
    if (deadline > 0.0 && sim_.now() >= deadline) break;
    ins_.net_retries->inc();
    const Seconds wait = std::min(backoff, kBackoffMax) *
                         (1.0 + kBackoffJitter * net_rng_.uniform01());
    backoff *= 2.0;
    const Seconds b0 = sim_.now();
    co_await simnet::Delay(sim_, wait);
    if (cost != nullptr) cost->backoff += sim_.now() - b0;
  }
  ins_.net_send_failures->inc();
  co_return false;
}

std::optional<NodeId> System::least_loaded(const sched::LoadWeights& weights,
                                           std::optional<NodeId> exclude,
                                           std::span<const char> avoid) const {
  // Every member may be a suspect — a suspect still beats an arbitrary
  // fallback node, and an avoided member beats none at all.
  for (const bool allow_avoided : {false, true}) {
    for (const bool allow_suspect : {false, true}) {
      std::optional<NodeId> best;
      double best_load = 0.0;
      for (const NodeId m : table_.members()) {
        if (m == exclude || node_crashed_[m] != 0) continue;
        if (!allow_suspect && !schedulable(m)) continue;
        if (!allow_avoided && m < avoid.size() && avoid[m] != 0) continue;
        const double load = sched::load_function(table_.load_of(m), weights);
        if (!best.has_value() || load < best_load) {
          best = m;
          best_load = load;
        }
      }
      if (best.has_value()) return best;
    }
  }
  return std::nullopt;
}

NodeId System::pick_live(const sched::LoadWeights& weights) const {
  if (const auto best = least_loaded(weights, std::nullopt, {})) return *best;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (node_crashed_[n] == 0) return n;
  }
  QADIST_UNREACHABLE("no live nodes (apply_crash spares the last one)");
}

Metrics System::run() {
  QADIST_CHECK(!started_, << "run() called twice");
  started_ = true;
  // Seed the load table (and its failure detector's peer roster) so
  // dispatch decisions at t=0 see every broadcasting node, then start the
  // per-node monitors.
  for (const auto& node : nodes_) {
    if (node_broadcasting_[node->id()] != 0) {
      table_.update(node->id(), sched::ResourceLoad{}, sim_.now());
    }
  }
  for (const auto& node : nodes_) {
    monitor_process(*node);
  }
  for (const auto& fault : config_.faults.crashes) {
    schedule_crash(fault.node, fault.at, fault.restart_after);
  }
  if (config_.faults.mtbf > 0.0) {
    fault_process();
  }
  if (injector_ != nullptr) {
    // Partition instants: bracket every scripted window in the trace and
    // count the cuts. (Only scheduled with faults on, so the fault-free
    // event sequence is untouched.)
    for (const simnet::PartitionWindow& w : config_.net.faults.partitions) {
      const NodeId first = w.isolated.front();
      const auto n = static_cast<std::int64_t>(w.isolated.size());
      sim_.schedule_at(w.from, [this, first, n] {
        registry_.counter("net_partitions").inc();
        record_event(first, "partition started (" + std::to_string(n) +
                                " nodes isolated)",
                     {{"kind", std::string("partition_start")},
                      {"isolated", n}});
      });
      sim_.schedule_at(w.until, [this, first] {
        record_event(first, "partition healed",
                     {{"kind", std::string("partition_end")}});
      });
    }
  }
  if (config_.gray.enabled()) {
    // Gray-fault instants: degrade service rates / inflate link latency on
    // schedule, optionally recovering later. (Only scheduled with a gray
    // plan, so the plan-free event sequence is untouched.)
    for (std::size_t i = 0; i < config_.gray.events.size(); ++i) {
      const simnet::GrayFaultEvent& event = config_.gray.events[i];
      sim_.schedule_at(event.at, [this, i] { apply_gray(i); });
      if (event.recover_after >= 0.0) {
        const NodeId node = event.node;
        sim_.schedule_at(event.at + event.recover_after,
                         [this, node, i] { clear_gray(node, i); });
      }
    }
  }
  sim_.run();
  // Every submitted question must be accounted for: completed (including
  // degraded-at-admission ones), rejected, or shed from the queue.
  QADIST_CHECK(accounted() == ins_.submitted->value(),
               << "simulation drained with " << accounted() << "/"
               << ins_.submitted->value() << " questions accounted for ("
               << ins_.completed->value() << " completed)");
  QADIST_CHECK(admission_queue_.empty() && executing_ == 0,
               << "admission state not drained: " << admission_queue_.size()
               << " queued, " << executing_ << " executing");

  // Publish the run-scoped values, then build the read-only view from the
  // registry — the registry is the single source of truth.
  registry_.gauge("first_submit_seconds").set(first_submit_);
  registry_.gauge("makespan_seconds").set(makespan_);
  registry_.gauge("admission_queue_peak")
      .set(static_cast<double>(admission_queue_peak_));
  for (const auto& node : nodes_) {
    const obs::Labels labels{{"node", std::to_string(node->id())}};
    registry_.gauge("node_cpu_work_seconds", labels)
        .set(node->cpu().work_served());
    registry_.gauge("node_disk_work_bytes", labels)
        .set(node->disk().work_served());
  }
  publish_cache_stats();
  publish_net_stats();
  publish_shard_stats();
  return Metrics::from_registry(registry_);
}

void System::publish_net_stats() {
  // Lifetime tallies of the fault layer, folded once so the registry (and
  // the Metrics view) exposes them alongside the live counters. Created
  // even when faults are off so the schema is stable.
  const auto fold = [this](const char* name, std::uint64_t value) {
    registry_.counter(name).inc(static_cast<double>(value));
  };
  fold("net_drops", injector_ != nullptr ? injector_->random_drops() : 0);
  fold("net_partition_drops",
       injector_ != nullptr ? injector_->partition_drops() : 0);
  fold("net_duplicates", injector_ != nullptr ? injector_->duplicates() : 0);
  // Duplicated frames are exactly the ones the receiver's sequence-number
  // check discards.
  fold("net_dedup_dropped", injector_ != nullptr ? injector_->duplicates() : 0);
  fold("net_partitions", 0);  // incremented live by the window instants
  const sched::FailureDetector& detector = table_.detector();
  fold("detector_suspicions", detector.suspicions_raised());
  fold("detector_false_alarms", detector.suspicions_cleared());
  fold("detector_deaths", detector.deaths_confirmed());
  fold("detector_rejoins", detector.rejoins());
  const double completed = ins_.completed->value();
  registry_.gauge("degraded_answer_fraction")
      .set(completed > 0.0 ? ins_.questions_degraded->value() / completed
                           : 0.0);
}

simnet::SimProcess System::monitor_process(Node& node) {
  // Periodically: measure local load, fold it into the damped average,
  // broadcast it on the shared segment, refresh the table, and drop silent
  // peers (paper Sec. 3.1). Monitors stop once the workload drains so the
  // event queue can empty.
  sched::ResourceLoad ema;
  while (!all_done_) {
    const auto sample = node.sample_load();
    if (tracer_ != nullptr) {
      // Per-node utilization timeline (Chrome trace counter track): busy
      // fraction of each resource over the monitor period just ended.
      const NodeId id = node.id();
      tracer_->counter_sample(sim_.now(), id, "cpu_util",
                              cpu_probes_[id].sample(sim_.now()));
      tracer_->counter_sample(sim_.now(), id, "disk_util",
                              disk_probes_[id].sample(sim_.now()));
    }
    const double alpha =
        config_.net.load_smoothing_tau > 0.0
            ? 1.0 - std::exp(-kMonitorPeriod /
                             config_.net.load_smoothing_tau)
            : 1.0;
    ema.cpu += alpha * (sample.cpu - ema.cpu);
    ema.disk += alpha * (sample.disk - ema.disk);
    if (node_broadcasting_[node.id()] != 0) {
      // The broadcast doubles as this node's heartbeat: only a delivered
      // packet refreshes the table and its failure detector, so a lossy or
      // partitioned link starves the node's entry — exactly how the rest of
      // the pool would experience it.
      // Under the broker tier the broadcast rides the node's subtree
      // segment (link_for with src == dst); flat runs use the shared LAN,
      // event-for-event as before.
      const simnet::LinkVerdict verdict =
          co_await link_for(node.id(), node.id())
              .send(static_cast<double>(kLoadPacketBytes), node.id(),
                    simnet::kBroadcastNode);
      if (verdict.delivered && topology_.has_value() &&
          topology_->broker_node(topology_->group_of_node(node.id())) ==
              node.id()) {
        // Two-level dissemination: the broker re-publishes its subtree's
        // digest on the core so other groups' load tables stay global.
        // One relay frame per period per broker; a lost relay only delays
        // freshness until the next period, so it is not retried.
        const simnet::LinkVerdict relay = co_await core_link_->send(
            static_cast<double>(kLoadPacketBytes), node.id(),
            simnet::kBroadcastNode);
        if (relay.delivered) ins_.broker_load_relays->inc();
      }
      if (verdict.delivered) {
        // The damped broadcast absorbs only `alpha` of newly placed load
        // per period, so keep the complementary share of the reservations
        // alive.
        const auto before = table_.update(node.id(), ema, sim_.now(),
                                          /*reservation_keep=*/1.0 - alpha);
        if (before == sched::PeerState::kDead) {
          // A peer confirmed dead and now heard from again went through an
          // unobserved outage (a graceful leave + rejoin looks the same
          // from here). Its cache shards may hold entries the rest of the
          // pool invalidated or superseded meanwhile — clear them, exactly
          // as a crash does, so a stale answer can't be served. (A crash
          // path already cleared them; this covers the leave/rejoin path.)
          if (!caches_.empty()) {
            caches_[node.id()]->clear();
            ins_.rejoin_cache_clears->inc();
          }
          record_event(node.id(), "peer rejoined after confirmed death",
                       {{"kind", std::string("detector_rejoin")}});
        }
      }
    }
    // Missed-beat sweep: a suspect's load entry goes stale, a confirmed
    // death leaves the pool at once.
    for (const sched::DetectorTransition& t : table_.sweep(sim_.now())) {
      record_event(t.node,
                   std::string("peer ") + sched::to_string(t.to) + " (was " +
                       sched::to_string(t.from) + ")",
                   {{"kind", std::string("detector_transition")},
                    {"to", std::string(sched::to_string(t.to))}});
    }
    co_await simnet::Delay(sim_, kMonitorPeriod);
  }
}

}  // namespace qadist::cluster
