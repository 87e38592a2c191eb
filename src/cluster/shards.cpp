// Shard-aware retrieval: collection selection, replica-aware PR
// placement, background re-replication after a holder crash, re-validation
// on rejoin, and the storage gauges.

#include <algorithm>
#include <cmath>

#include "broker/cori.hpp"
#include "cluster/supervision.hpp"
#include "common/strings.hpp"

namespace qadist::cluster {

using sched::NodeId;

System::ShardAssignment System::assign_pr_units(
    std::span<const std::size_t> units, std::optional<NodeId> exclude) {
  ShardAssignment out;
  // Eligible pool: every schedulable ready holder of a shard the question
  // touches (the meta-scheduler only weighs nodes that can actually serve
  // some of this question's corpus).
  std::vector<shard::NodeId> eligible;
  {
    std::vector<char> seen(nodes_.size(), 0);
    for (const std::size_t u : units) {
      const shard::ShardId s = shard_map_->shard_of_unit(u);
      for (const NodeId n : shard_map_->ready_holders(s)) {
        if (seen[n] != 0) continue;
        seen[n] = 1;
        if (exclude.has_value() && *exclude == n) continue;
        if (schedulable(n)) eligible.push_back(n);
      }
    }
    std::sort(eligible.begin(), eligible.end());
  }
  // Meta-schedule weights over the eligible pool (DQA). Other policies
  // weigh every holder equally — they still scatter, because the host may
  // simply not hold the shards this question touches.
  std::vector<double> node_weight(nodes_.size(), 1.0);
  if (config_.dispatch.policy == Policy::kDqa && !eligible.empty()) {
    const auto ms = sched::meta_schedule_among(
        table_, eligible, sched::kPrWeights,
        config_.dispatch.pr_underload_threshold, &registry_,
        straggler_mask(sched::LegStage::kPr));
    if (!ms.selected.empty()) {
      // A holder outside the meta-schedule's pick keeps a small floor
      // weight instead of zero: it may be the only node able to serve its
      // shard's units.
      node_weight.assign(nodes_.size(), 1e-3);
      for (std::size_t i = 0; i < ms.selected.size(); ++i) {
        node_weight[ms.selected[i]] = std::max(ms.weights[i], 1e-3);
      }
    }
  }
  // Weighted round-robin per unit: each sub-collection goes to the ready
  // holder of its shard minimizing (assigned + 1) / weight, preferring
  // trusted (unsuspected) holders, ties to the lower node id. Units whose
  // shard has no live holder are unplaced — the caller degrades.
  std::vector<std::size_t> assigned(nodes_.size(), 0);
  std::vector<std::size_t> leg_of(nodes_.size(), kNoUnit);
  for (const std::size_t u : units) {
    const shard::ShardId s = shard_map_->shard_of_unit(u);
    std::optional<NodeId> best;
    double best_cost = 0.0;
    for (const bool allow_suspect : {false, true}) {
      for (const NodeId n : shard_map_->ready_holders(s)) {
        if (exclude.has_value() && *exclude == n) continue;
        if (node_crashed_[n] != 0) continue;
        if (!allow_suspect && !schedulable(n)) continue;
        const double cost =
            static_cast<double>(assigned[n] + 1) / node_weight[n];
        if (!best.has_value() || cost < best_cost) {
          best = n;
          best_cost = cost;
        }
      }
      if (best.has_value()) break;
    }
    if (!best.has_value()) {
      out.unplaced.push_back(u);
      continue;
    }
    ++assigned[*best];
    if (leg_of[*best] == kNoUnit) {
      leg_of[*best] = out.legs.size();
      out.legs.emplace_back(*best, std::deque<std::size_t>{});
    }
    out.legs[leg_of[*best]].second.push_back(u);
  }
  return out;
}

System::SelectionResult System::select_pr_units(const QuestionPlan& plan) {
  SelectionResult out;
  out.units.resize(plan.pr_units.size());
  for (std::size_t i = 0; i < out.units.size(); ++i) out.units[i] = i;
  out.ap_count = plan.ap_units.size();
  const std::size_t num_shards = config_.shard.num_shards;
  if (shard_map_ == nullptr || plan.pr_units.empty() ||
      !config_.broker.selection_enabled(num_shards)) {
    return out;
  }
  const std::size_t top_k = config_.broker.effective_top_k(num_shards);
  std::vector<std::size_t> selected;
  if (config_.broker.stats != nullptr) {
    // CORI shard scoring over the persisted per-shard term statistics.
    selected = broker::select_shards(*config_.broker.stats,
                                     plan.processed.keywords, top_k);
  } else {
    // No term statistics supplied: rank shards by the retrieval work they
    // would serve for this question — a size-based proxy for CORI.
    std::vector<double> work(num_shards, 0.0);
    for (std::size_t u = 0; u < plan.pr_units.size(); ++u) {
      work[shard_map_->shard_of_unit(u)] +=
          static_cast<double>(plan.pr_units[u].paragraphs);
    }
    selected = broker::select_shards_by_work(work, top_k);
  }
  std::vector<char> keep(num_shards, 0);
  for (const std::size_t s : selected) keep[s] = 1;
  std::vector<std::size_t> units;
  double kept_paragraphs = 0.0;
  double total_paragraphs = 0.0;
  for (std::size_t u = 0; u < plan.pr_units.size(); ++u) {
    const double p = static_cast<double>(plan.pr_units[u].paragraphs);
    total_paragraphs += p;
    if (keep[shard_map_->shard_of_unit(u)] != 0) {
      units.push_back(u);
      kept_paragraphs += p;
    }
  }
  if (units.empty()) {
    // Every selected shard serves no unit of this plan (fewer units than
    // shards): searching nothing would answer nothing — run exhaustively.
    ins_.selection_fallback_all->inc();
    return out;
  }
  if (units.size() == out.units.size()) return out;  // nothing pruned
  ins_.selection_questions_pruned->inc();
  ins_.selection_units_pruned->inc(
      static_cast<double>(out.units.size() - units.size()));
  ins_.selection_shards_selected->observe(static_cast<double>(selected.size()));
  if (!plan.ap_units.empty()) {
    // Fewer sub-collections searched => proportionally fewer candidate
    // paragraphs reach Answer Processing. At least one survives: the
    // selected shards always contribute something.
    const double kept =
        total_paragraphs > 0.0 ? kept_paragraphs / total_paragraphs : 1.0;
    out.ap_count = std::clamp(
        static_cast<std::size_t>(std::ceil(
            static_cast<double>(plan.ap_units.size()) * kept)),
        std::size_t{1}, plan.ap_units.size());
    ins_.selection_ap_units_pruned->inc(
        static_cast<double>(plan.ap_units.size() - out.ap_count));
  }
  out.units = std::move(units);
  return out;
}

simnet::SimProcess System::rebuild_process(shard::ShardId shard,
                                           NodeId target,
                                           std::size_t target_epoch) {
  // Crash protocol: like the stage legs, re-check liveness after EVERY
  // co_await. The target dying voids the reservation (fail_node stripped
  // the kRebuilding replica and scheduled a replacement; our abort is an
  // idempotent no-op). The source dying mid-copy restarts the copy from
  // the next surviving ready replica.
  const Seconds start = sim_.now();
  const double bytes = static_cast<double>(shard::kShardBytes);
  const auto target_dead = [&] {
    return node_crashed_[target] != 0 || crash_epoch_[target] != target_epoch;
  };
  for (;;) {
    const auto src = shard_map_->ready_source(shard);
    if (!src.has_value() || target_dead()) {
      shard_map_->abort_rebuild(shard, target);
      record_event(target,
                   "rebuild of shard " + std::to_string(shard) + " aborted",
                   {{"kind", std::string("shard_rebuild_abort")},
                    {"shard", static_cast<std::int64_t>(shard)}});
      co_return;
    }
    const NodeId source = *src;
    const std::size_t src_epoch = crash_epoch_[source];
    const auto src_dead = [&] { return crash_epoch_[source] != src_epoch; };

    // Read the replica off the source's disk (fair-shared with its PR
    // work), move it over the lossy link, write it on the target.
    co_await nodes_[source]->disk().consume(bytes);
    if (target_dead()) continue;  // loop re-checks and aborts
    if (src_dead()) continue;     // re-pick a source
    const bool delivered = co_await ship(bytes, source, target, 0.0);
    if (target_dead() || src_dead()) continue;
    if (!delivered) {
      // Retry budget spent: back off one monitor period, then start over
      // (possibly from a different source).
      co_await simnet::Delay(sim_, kMonitorPeriod);
      continue;
    }
    co_await nodes_[target]->disk().consume(bytes);
    if (target_dead() || src_dead()) continue;

    // Pacing floor: re-replication is deliberately bandwidth-capped so it
    // cannot starve foreground retrieval (kShardBytes / kRebuildBandwidth
    // wall-clock minimum per shard).
    const Seconds floor = shard::kRebuildBandwidth.transfer_time(bytes);
    const Seconds elapsed = sim_.now() - start;
    if (floor > elapsed) {
      co_await simnet::Delay(sim_, floor - elapsed);
      if (target_dead()) continue;
    }

    shard_map_->complete_rebuild(shard, target);
    ins_.shard_rebuilds->inc();
    ins_.shard_rebuild_bytes->inc(bytes);
    ins_.shard_rebuild_seconds->observe(sim_.now() - start);
    record_event(target,
                 "shard " + std::to_string(shard) + " re-replicated in " +
                     format_double(sim_.now() - start, 2) + " secs",
                 {{"kind", std::string("shard_rebuild_done")},
                  {"shard", static_cast<std::int64_t>(shard)}});
    co_return;
  }
}

simnet::SimProcess System::revalidate_process(NodeId node, std::size_t epoch) {
  // The rebooted holder's shard copies survived on disk, but each must be
  // re-scanned (magic/version/posting checks) before serving again. A
  // re-crash mid-scan just re-stashes the shards — fail_node already ran.
  const auto shards = shard_map_->begin_validation(node);
  if (shards.empty()) co_return;
  const Seconds start = sim_.now();
  const double bytes =
      static_cast<double>(shard::kShardBytes) * shards.size();
  co_await nodes_[node]->disk().consume(bytes);
  if (node_crashed_[node] != 0 || crash_epoch_[node] != epoch) co_return;
  const Seconds floor = shard::kRebuildBandwidth.transfer_time(bytes);
  const Seconds elapsed = sim_.now() - start;
  if (floor > elapsed) {
    co_await simnet::Delay(sim_, floor - elapsed);
    if (node_crashed_[node] != 0 || crash_epoch_[node] != epoch) co_return;
  }
  const std::size_t promoted = shard_map_->complete_validation(node);
  ins_.shard_revalidations->inc(static_cast<double>(promoted));
  record_event(node,
               "re-validated " + std::to_string(promoted) + " shards in " +
                   format_double(sim_.now() - start, 2) + " secs",
               {{"kind", std::string("shard_revalidated")},
                {"shards", static_cast<std::int64_t>(promoted)}});
}

void System::publish_shard_stats() {
  if (shard_map_ == nullptr) return;
  // Per-node index storage: replicas held (any state — a rebuilding copy
  // already pins disk) times the simulated shard artifact size. This is
  // the storage-scaling axis bench_shard_scaling sweeps.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const obs::Labels labels{{"node", std::to_string(n)}};
    registry_.gauge("node_storage_bytes", labels)
        .set(static_cast<double>(
            shard_map_->storage_bytes(n, shard::kShardBytes)));
  }
  registry_.gauge("shard_replication")
      .set(static_cast<double>(shard_map_->replication()));
  registry_.gauge("shard_count")
      .set(static_cast<double>(shard_map_->num_shards()));
}

}  // namespace qadist::cluster
