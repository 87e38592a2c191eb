// Fault and gray-fault hooks: scripted and random crashes, restarts,
// membership changes, and gray degradation windows.

#include <algorithm>

#include "cluster/node_caches.hpp"
#include "common/check.hpp"

namespace qadist::cluster {

using sched::NodeId;

void System::schedule_leave(NodeId node, Seconds at) {
  QADIST_CHECK(node < nodes_.size());
  sim_.schedule_at(at, [this, node] { node_broadcasting_[node] = 0; });
}

void System::schedule_join(NodeId node, Seconds at) {
  QADIST_CHECK(node < nodes_.size());
  sim_.schedule_at(at, [this, node] {
    // Joining a crashed node implies a reboot first.
    if (node_crashed_[node] != 0) apply_restart(node);
    node_broadcasting_[node] = 1;
  });
}

void System::schedule_crash(NodeId node, Seconds at, Seconds restart_after) {
  QADIST_CHECK(node < nodes_.size());
  sim_.schedule_at(at, [this, node, restart_after] {
    apply_crash(node);
    if (restart_after >= 0.0 && node_crashed_[node] != 0) {
      sim_.schedule(restart_after, [this, node] { apply_restart(node); });
    }
  });
}

void System::apply_crash(NodeId node) {
  if (node_crashed_[node] != 0) {
    ins_.crashes_skipped->inc();  // already down
    return;
  }
  std::size_t live = 0;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (node_crashed_[n] == 0) ++live;
  }
  if (live <= 1) {
    // Losing the last node would strand every question; skip (and count)
    // so random fault processes can't wedge a run.
    ins_.crashes_skipped->inc();
    record_event(node, "crash skipped (last live node)");
    return;
  }
  node_crashed_[node] = 1;
  ++crash_epoch_[node];
  crash_time_[node] = sim_.now();
  node_broadcasting_[node] = 0;  // a dead node broadcasts nothing
  nodes_[node]->crash();
  if (!caches_.empty()) {
    // The caches live in the node's memory: a crash loses them, and the
    // node reboots cold. (Counted as invalidations, not evictions.)
    caches_[node]->clear();
  }
  ins_.crashes->inc();
  record_event(node, "crashed", {{"kind", std::string("crash")}});
  if (shard_map_ != nullptr && shard_partial_) {
    // Failover: drop the dead holder's replicas and start background
    // re-replication of each affected shard onto a surviving node. The map
    // reserves the targets synchronously (no double-assignment on a crash
    // burst); the rebuild processes pay the simulated disk/net cost.
    std::vector<shard::NodeId> live_pool;
    for (NodeId n = 0; n < nodes_.size(); ++n) {
      if (node_crashed_[n] == 0) live_pool.push_back(n);
    }
    const auto plan = shard_map_->fail_node(node, live_pool);
    for (const shard::ShardId s : plan.unavailable) {
      record_event(node,
                   "shard " + std::to_string(s) +
                       " unavailable (no ready replica)",
                   {{"kind", std::string("shard_unavailable")},
                    {"shard", static_cast<std::int64_t>(s)}});
    }
    for (const auto& task : plan.rebuilds) {
      ins_.shard_failovers->inc();
      record_event(task.target,
                   "re-replicating shard " + std::to_string(task.shard) +
                       " (lost N" + std::to_string(node + 1) + ")",
                   {{"kind", std::string("shard_rebuild_start")},
                    {"shard", static_cast<std::int64_t>(task.shard)}});
      rebuild_process(task.shard, task.target, crash_epoch_[task.target]);
    }
  }
  // Deliberately no table_.remove here: membership stays broadcast-driven.
  // The rest of the pool learns of the death either when the detector
  // confirms the silent node dead (past kMembershipTimeout) or when a
  // coordinator's reply timeout fires first.
}

void System::apply_restart(NodeId node) {
  if (node_crashed_[node] == 0) return;
  node_crashed_[node] = 0;
  node_broadcasting_[node] = 1;  // schedulable again from its next broadcast
  nodes_[node]->restart();
  record_event(node, "restarted", {{"kind", std::string("restart")}});
  if (shard_map_ != nullptr && shard_partial_) {
    // The shard copies survived on the rebooted node's disk, but they must
    // be re-scanned before they serve retrieval again (a crash mid-write
    // may have torn one — the magic/version checks in ir::persist are what
    // this validation pass runs).
    revalidate_process(node, crash_epoch_[node]);
  }
}

void System::apply_gray(std::size_t event_index) {
  // Gray onset: the node keeps running (and heartbeating!) but its service
  // rates degrade. The failure detector sees nothing — that is the point.
  const simnet::GrayFaultEvent& event = config_.gray.events[event_index];
  gray_open_[event.node].push_back(event_index);
  recompute_gray(event.node);
  ins_.gray_onsets->inc();
  record_event(event.node, "gray fault onset",
               {{"kind", std::string("gray_onset")},
                {"cpu_factor", event.cpu_factor},
                {"disk_factor", event.disk_factor}});
}

void System::clear_gray(NodeId node, std::size_t event_index) {
  // Only this window closes; overlapping windows on the same node stay
  // open, so the node recovers exactly when its *last* window ends.
  std::erase(gray_open_[node], event_index);
  recompute_gray(node);
  ins_.gray_recoveries->inc();
  record_event(node, "gray fault recovered",
               {{"kind", std::string("gray_recovery")}});
}

void System::recompute_gray(NodeId node) {
  // Effective degradation = the worst of the node's open windows, per
  // resource: concurrent gray causes (a thermal throttle and a sick disk,
  // say) don't multiply each other's service times, the slowest one
  // dominates. With no open window the node is healthy again.
  double cpu = 1.0;
  double disk = 1.0;
  Seconds extra = 0.0;
  for (const std::size_t index : gray_open_[node]) {
    const simnet::GrayFaultEvent& event = config_.gray.events[index];
    cpu = std::max(cpu, event.cpu_factor);
    disk = std::max(disk, event.disk_factor);
    extra = std::max(extra, event.extra_latency);
  }
  if (!gray_open_[node].empty()) {
    nodes_[node]->set_gray(cpu, disk);
  } else {
    nodes_[node]->clear_gray();
  }
  gray_extra_latency_[node] = extra;
}

Seconds System::gray_extra_latency(NodeId src, NodeId dst) const {
  if (gray_extra_latency_.empty()) return 0.0;  // no gray plan configured
  // A degraded NIC/switch port hurts both directions, so a message pays
  // the endpoint penalties additively.
  return gray_extra_latency_[src] + gray_extra_latency_[dst];
}

simnet::SimProcess System::fault_process() {
  // Random crash generator: exponential inter-crash gaps (mean = MTBF),
  // uniform victim. Deterministic given the config seed; decorrelated from
  // the two-choice stream by a splitmix64-style constant.
  Rng rng(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  while (!all_done_) {
    co_await simnet::Delay(sim_,
                           rng.exponential(1.0 / config_.faults.mtbf));
    if (all_done_) break;
    const NodeId victim = static_cast<NodeId>(rng.below(nodes_.size()));
    apply_crash(victim);
    if (config_.faults.restart_after >= 0.0 && node_crashed_[victim] != 0) {
      sim_.schedule(config_.faults.restart_after,
                    [this, victim] { apply_restart(victim); });
    }
  }
}

}  // namespace qadist::cluster
