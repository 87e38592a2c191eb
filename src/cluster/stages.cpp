// The Q/A task (paper Fig. 3) and the policies its partitioned stages hand
// to the supervised scatter-gather: PR (flat, or in-subtree under a
// broker), AP, and the broker tier.

#include <algorithm>
#include <cmath>

#include "cache/question_key.hpp"
#include "cluster/node_caches.hpp"
#include "cluster/supervision.hpp"
#include "common/strings.hpp"

namespace qadist::cluster {

using parallel::Strategy;
using sched::NodeId;

System::StagePlacement System::survivors(const StagePlacement& stage,
                                         NodeId host,
                                         std::optional<NodeId> exclude) const {
  StagePlacement out;
  for (std::size_t i = 0; i < stage.nodes.size(); ++i) {
    if (stage.nodes[i] == exclude || !schedulable(stage.nodes[i])) continue;
    out.nodes.push_back(stage.nodes[i]);
    out.weights.push_back(stage.weights[i]);
  }
  if (out.nodes.empty()) return {{host}, {1.0}};
  return out;
}

bool System::host_lost(const QuestionState& q) const {
  return crash_epoch_[q.host] != q.host_epoch;
}

void System::degrade(QuestionState& q, std::size_t units, bool unserved) {
  q.degraded = true;
  ins_.degraded_units_dropped->inc(static_cast<double>(units));
  if (unserved) ins_.shard_units_unserved->inc(static_cast<double>(units));
}

System::StagePlacement System::place_stage(NodeId host,
                                           sched::LegStage stage) {
  // table_.size() can hit zero under mass churn (every member crashed,
  // partitioned away, or confirmed dead) — then the host carries the stage
  // alone, same as when every selected node turns out dead below.
  if (config_.dispatch.policy != Policy::kDqa || table_.size() == 0) {
    return {{host}, {1.0}};
  }
  const bool pr = stage == sched::LegStage::kPr;
  sched::MetaSchedule ms = sched::meta_schedule(
      table_, stage_weights(stage),
      pr ? config_.dispatch.pr_underload_threshold
         : config_.dispatch.ap_underload_threshold,
      &registry_, straggler_mask(stage));
  // Drop nodes that crashed (but have not yet left the table) or
  // are currently suspected by the failure detector.
  StagePlacement out = survivors(
      {std::move(ms.selected), std::move(ms.weights)}, host, std::nullopt);
  if (!(out.nodes.size() == 1 && out.nodes[0] == host)) {
    (pr ? ins_.migrations_pr : ins_.migrations_ap)->inc();
  }
  return out;
}

template <class Policy>
void System::ScatterGather<Policy>::resplit(
    const Slot& s, bool crashed, const std::vector<std::size_t>& lost) {
  const StagePlacement alive =
      sys_.survivors(policy_.placement, policy_.q.host,
                     crashed ? std::nullopt : std::optional(s.node));
  for (const auto& p : policy_.partition(lost.size(), alive.weights)) {
    typename Policy::Block block;
    for (const std::size_t j : p.items) block.push_back(lost[j]);
    respawn(policy_.make_slot(std::move(block)), alive.nodes[p.worker]);
  }
}

// ---- PR policy --------------------------------------------------------------

std::shared_ptr<System::PrLegSlot> System::PrPolicy::make_slot(
    std::shared_ptr<std::deque<std::size_t>> units) {
  auto slot = std::make_shared<PrLegSlot>();
  slot->units = std::move(units);
  if (tier != nullptr) slot->keepalive = tier->inner;
  return slot;
}

void System::PrPolicy::drop(std::span<const std::size_t> units,
                            bool unplaced) {
  if (tier == nullptr) {
    sys.degrade(q, units.size(), unplaced);
    return;
  }
  for (const std::size_t u : units) {
    tier->bytes_out -= static_cast<double>(q.plan->pr_units[u].bytes_out);
  }
  tier->unserved += units.size();
  sys.ins_.shard_units_unserved->inc(static_cast<double>(units.size()));
}

void System::PrPolicy::place(ScatterGather<PrPolicy>& sg,
                             std::span<const std::size_t> units) {
  // Unsharded, `units` is every unit in order: the shared queue and the
  // SEND blocks index it directly.
  if (sharded) {
    // Scatter-gather over replica holders. Legs get private queues:
    // holders of different shards cannot compete for each other's units.
    auto assignment = sys.assign_pr_units(units, std::nullopt);
    bool off_host = false;
    for (auto& [node, block] : assignment.legs) {
      if (node != coordinator()) off_host = true;
      sg.spawn(make_slot(std::move(block)), node);
    }
    if (tier == nullptr && (off_host || assignment.legs.size() > 1)) {
      sys.ins_.migrations_pr->inc();
    }
    if (!assignment.unplaced.empty()) {
      // Shards with no live ready holder: their slice of the corpus
      // cannot be searched right now. Degrade rather than block on a
      // rebuild — the paper's interactive deadline beats completeness.
      drop(assignment.unplaced, /*unplaced=*/true);
      sys.record_event(coordinator(),
                       "no ready replica" + in_group() + " for " +
                           std::to_string(assignment.unplaced.size()) +
                           " collections (degraded)");
    }
    return;
  }
  if (shared_queue) {
    // Receiver-controlled: every leg competes for the sub-collection queue
    // (paper Fig. 7a: "four nodes compete for the 8 sub-collections").
    shared_units =
        std::make_shared<std::deque<std::size_t>>(units.begin(), units.end());
    for (const NodeId node : placement.nodes) sg.spawn(drainer(), node);
    return;
  }
  // SEND ablation: weighted contiguous blocks of sub-collections.
  for (const auto& p : partition(units.size(), placement.weights)) {
    sg.spawn(make_slot({p.items.begin(), p.items.end()}),
             placement.nodes[p.worker]);
  }
}

void System::PrPolicy::recover(ScatterGather<PrPolicy>& sg, PrLegSlot& s,
                               bool crashed) {
  // Finished units are durable (their paragraphs already reached the
  // coordinator's disk), so recovery is per unit: the in-flight one plus
  // a private queue's remainder.
  const std::vector<std::size_t> lost = remaining(s);
  s.in_flight = kNoUnit;
  if (!shared_queue) s.units->clear();
  if (lost.empty()) return;
  const std::string count = std::to_string(lost.size()) + " collections";
  if (!crashed && sys.deadline_exceeded(q)) {
    drop(lost, /*unplaced=*/false);
    sys.record_event(coordinator(),
                     "deadline spent: dropped " + count + " (degraded)");
    return;
  }
  sg.recovered(s, lost.size(), crashed);
  if (tier == nullptr) {
    sys.record_event(q.host, "recovered " + count + " from " +
                                 (crashed ? "" : "unreachable ") +
                                 node_name(s.node));
  }
  if (sharded) {
    // Failover to surviving replicas of each lost unit's shard (a crash
    // already struck the dead holder from the map and kicked off
    // background re-replication; retrieval needs only what's ready now).
    auto redo = sys.assign_pr_units(lost, s.node);
    for (auto& [node, block] : redo.legs) {
      sg.respawn(make_slot(std::move(block)), node);
    }
    if (!redo.unplaced.empty()) {
      drop(redo.unplaced, /*unplaced=*/true);
      if (tier == nullptr || crashed) {
        sys.record_event(coordinator(),
                         "no surviving replica" + in_group() + " for " +
                             std::to_string(redo.unplaced.size()) +
                             " collections (degraded)");
      }
    }
    return;
  }
  if (shared_queue) {
    // Requeue at the front: surviving legs pick the units up the next
    // time they hit the deque.
    for (auto it = lost.rbegin(); it != lost.rend(); ++it) {
      shared_units->push_front(*it);
    }
    sg.requeued();
    return;
  }
  sg.resplit(s, crashed, lost);
}

std::optional<System::Merge> System::PrPolicy::on_reply(const PrLegSlot& s) {
  // Partial merge: fold the leg's scored paragraphs into the merged
  // candidate stream feeding Paragraph Ordering — on the broker in-subtree,
  // on the host for a sharded flat stage.
  if (tier != nullptr) {
    tier->done += s.done;
    Node& broker = *sys.nodes_[tier->node];
    return broker.cpu().consume(broker.cpu_work(shard::kPartialMergeCpu));
  }
  if (!sharded || sys.host_lost(q)) return std::nullopt;
  Node& host = *sys.nodes_[q.host];
  return host.cpu().consume(host.cpu_work(shard::kPartialMergeCpu));
}

bool System::PrPolicy::hedge(ScatterGather<PrPolicy>& sg, std::size_t index) {
  PrLegSlot& s = *sg.slots[index];
  // Snapshot of the primary's remaining work — what the backup re-runs.
  // Private-queue legs only ever drain this set, so the backups cover the
  // primary completely.
  const std::vector<std::size_t> snapshot = remaining(s);
  if (snapshot.empty()) return false;
  auto group = std::make_shared<HedgeGroup>();
  group->members.push_back(index);
  group->covered = snapshot;
  if (sharded) {
    // Backups must be replica holders. Only hedge when the whole snapshot
    // is placeable off the primary — a partial backup could not take over
    // on a win.
    auto assignment = sys.assign_pr_units(snapshot, s.node);
    if (!assignment.unplaced.empty() || assignment.legs.empty()) return false;
    s.group = group;
    for (auto& [node, block] : assignment.legs) {
      group->members.push_back(
          sg.spawn(make_slot(std::move(block)), node, group, true));
    }
    return true;
  }
  const auto backup = sys.least_loaded(
      sched::kPrWeights, s.node, sys.straggler_mask(sched::LegStage::kPr));
  if (!backup.has_value()) return false;
  s.group = group;
  group->members.push_back(sg.spawn(
      make_slot({snapshot.begin(), snapshot.end()}), *backup, group, true));
  return true;
}

void System::PrPolicy::release(ScatterGather<PrPolicy>& sg, PrLegSlot& s,
                               const HedgeGroup& group) {
  // A shared-queue primary that moved on to a unit nobody covers: requeue.
  if (!s.hedge_backup && s.in_flight != kNoUnit && shared_units != nullptr &&
      std::find(group.covered.begin(), group.covered.end(), s.in_flight) ==
          group.covered.end()) {
    shared_units->push_front(s.in_flight);
    sg.requeued();
  }
  s.in_flight = kNoUnit;
}

// ---- AP policy --------------------------------------------------------------

std::shared_ptr<System::ApLegSlot> System::ApPolicy::make_slot(
    std::vector<std::size_t> units,
    std::shared_ptr<std::deque<parallel::Chunk>> chunks) {
  auto slot = std::make_shared<ApLegSlot>();
  slot->units = std::move(units);
  slot->chunks = std::move(chunks);
  return slot;
}

std::vector<parallel::Partition> System::ApPolicy::partition(
    std::size_t count, const std::vector<double>& weights) const {
  return sys.config_.partition.ap_strategy == Strategy::kIsend
             ? parallel::partition_isend(count, weights)
             : parallel::partition_send(count, weights);
}

void System::ApPolicy::place(ScatterGather<ApPolicy>& sg) {
  if (shared_queue) {
    const auto chunks =
        parallel::make_chunks(paragraphs, sys.config_.partition.ap_chunk);
    shared_chunks = std::make_shared<std::deque<parallel::Chunk>>(
        chunks.begin(), chunks.end());
    for (const NodeId node : placement.nodes) sg.spawn(drainer(), node);
    return;
  }
  for (const auto& p : partition(paragraphs, placement.weights)) {
    sg.spawn(make_slot(p.items), placement.nodes[p.worker]);
  }
}

void System::ApPolicy::recover(ScatterGather<ApPolicy>& sg, ApLegSlot& s,
                               bool crashed) {
  // Recovery granularity follows the answer path: RECV loses only the
  // in-flight chunk (requeued on the shared deque); SEND/ISEND lose the
  // whole partition, which is re-partitioned over the survivors.
  std::vector<std::size_t> lost;
  std::size_t count = 0;
  if (s.chunks != nullptr) {
    if (s.has_in_flight) count = s.in_flight.size();
  } else {
    lost = std::move(s.units);
    s.units.clear();
    count = lost.size();
  }
  if (count == 0) return;
  const std::string paragraphs_text = std::to_string(count) + " paragraphs";
  if (!crashed && sys.deadline_exceeded(q)) {
    s.has_in_flight = false;  // RECV: the chunk dies with the leg
    sys.degrade(q, count, /*unserved=*/false);
    sys.record_event(q.host, "deadline spent: dropped " + paragraphs_text +
                                 " (degraded)");
    return;
  }
  sg.recovered(s, count, crashed);
  sys.record_event(
      q.host, (s.chunks != nullptr && crashed ? "requeued chunk of "
                                              : "recovered ") +
                  paragraphs_text + " from " +
                  (crashed ? "" : "unreachable ") + node_name(s.node));
  if (s.chunks != nullptr) {
    s.chunks->push_front(s.in_flight);
    s.has_in_flight = false;
    sg.requeued();
    return;
  }
  sg.resplit(s, crashed, lost);
}

bool System::ApPolicy::hedge(ScatterGather<ApPolicy>& sg, std::size_t index) {
  ApLegSlot& s = *sg.slots[index];
  auto group = std::make_shared<HedgeGroup>();
  std::vector<std::size_t> snapshot;
  if (shared_queue) {
    // The backup re-ships the in-flight chunk as a fixed partition of its
    // own; the chunk identifies coverage.
    for (std::size_t u = s.in_flight.begin; u < s.in_flight.end; ++u) {
      snapshot.push_back(u);
    }
    group->covered_chunk = s.in_flight;
  } else {
    snapshot = s.units;
  }
  if (snapshot.empty()) return false;
  const auto backup = sys.least_loaded(
      sched::kApWeights, s.node, sys.straggler_mask(sched::LegStage::kAp));
  if (!backup.has_value()) return false;
  group->members.push_back(index);
  s.group = group;
  group->members.push_back(
      sg.spawn(make_slot(std::move(snapshot)), *backup, group, true));
  return true;
}

void System::ApPolicy::release(ScatterGather<ApPolicy>& sg, ApLegSlot& s,
                               const HedgeGroup& group) {
  // A RECV primary that moved on to a chunk nobody covers: requeue it.
  if (!s.hedge_backup && s.has_in_flight && shared_chunks != nullptr &&
      group.covered_chunk != s.in_flight) {
    shared_chunks->push_front(s.in_flight);
    sg.requeued();
  }
  s.has_in_flight = false;
}

// ---- Broker-tier policy -----------------------------------------------------

std::optional<NodeId> System::BrokerPolicy::acting_broker(
    std::size_t group, std::optional<NodeId> exclude) const {
  const NodeId designated = sys.topology_->broker_node(group);
  if (designated != exclude && sys.schedulable(designated)) return designated;
  const auto [first, last] = sys.topology_->group_range(group);
  const auto pick =
      sched::pick_delegate(sys.table_, first, last, sched::kPrWeights);
  if (!pick.has_value() || pick == exclude || sys.node_crashed_[*pick] != 0) {
    return std::nullopt;
  }
  return pick;
}

void System::BrokerPolicy::route(ScatterGather<BrokerPolicy>& sg,
                                 NodeId broker, std::size_t group,
                                 std::vector<std::size_t> units) {
  auto slot = std::make_shared<BrokerSlot>();
  slot->shard_group = group;
  slot->units = std::move(units);
  for (const std::size_t u : slot->units) {
    slot->bytes_out += static_cast<double>(q.plan->pr_units[u].bytes_out);
  }
  slot->inner = std::make_shared<simnet::Mailbox<std::size_t>>(sys.sim_);
  sg.spawn(std::move(slot), broker);
}

void System::BrokerPolicy::place(ScatterGather<BrokerPolicy>& sg,
                                 std::span<const std::size_t> units) {
  std::vector<std::vector<std::size_t>> by_group(sys.config_.broker.brokers);
  for (const std::size_t u : units) {
    by_group[sys.topology_->group_of_shard(sys.shard_map_->shard_of_unit(u))]
        .push_back(u);
  }
  bool off_host = false;
  std::size_t groups_used = 0;
  for (std::size_t g = 0; g < by_group.size(); ++g) {
    if (by_group[g].empty()) continue;
    ++groups_used;
    const auto broker = acting_broker(g, std::nullopt);
    if (!broker.has_value()) {
      sys.degrade(q, by_group[g].size(), /*unserved=*/true);
      sys.record_event(q.host, "group " + std::to_string(g) +
                                   " has no usable broker: dropped " +
                                   std::to_string(by_group[g].size()) +
                                   " collections (degraded)");
      continue;
    }
    if (*broker != sys.topology_->broker_node(g)) {
      sys.ins_.broker_reroutes->inc();
    }
    if (*broker != q.host) off_host = true;
    route(sg, *broker, g, std::move(by_group[g]));
  }
  if (off_host || groups_used > 1) sys.ins_.migrations_pr->inc();
}

void System::BrokerPolicy::recover(ScatterGather<BrokerPolicy>& sg,
                                   BrokerSlot& s, bool crashed) {
  // Re-route the failed broker's whole slice (or degrade it once no
  // delegate or deadline budget remains). Re-routing starts at once, even
  // mid-sweep.
  if (crashed) sg.recovered(s, s.units.size(), crashed);
  if (s.units.empty()) return;
  const std::string dropped =
      "dropped " + std::to_string(s.units.size()) + " collections (degraded)";
  if (sys.deadline_exceeded(q)) {
    sys.degrade(q, s.units.size(), /*unserved=*/true);
    sys.record_event(q.host, "deadline spent: " + dropped);
    return;
  }
  const auto next = acting_broker(s.shard_group, s.node);
  if (!next.has_value()) {
    sys.degrade(q, s.units.size(), /*unserved=*/true);
    sys.record_event(q.host, "group " + std::to_string(s.shard_group) +
                                 " has no surviving broker: " + dropped);
    return;
  }
  sys.ins_.broker_reroutes->inc();
  sys.ins_.recovery_legs->inc();
  sys.record_event(q.host, "re-routing group " +
                               std::to_string(s.shard_group) + " through " +
                               node_name(*next));
  route(sg, *next, s.shard_group, s.units);
}

std::optional<System::Merge> System::BrokerPolicy::on_reply(
    const BrokerSlot& s) {
  // The broker already counted the unserved units against
  // shard_units_unserved at the site where they were lost.
  if (s.unserved > 0) sys.degrade(q, s.unserved, /*unserved=*/false);
  // One merge per broker aggregate — not one per worker leg. This is the
  // serial-cost redistribution the tier buys.
  if (sys.host_lost(q)) return std::nullopt;
  Node& host = *sys.nodes_[q.host];
  return host.cpu().consume(host.cpu_work(shard::kPartialMergeCpu));
}

void System::BrokerPolicy::orphan(BrokerSlot& s) {
  for (const auto& wsp : s.workers) {
    PrLegSlot& w = *wsp;
    if (w.settled()) continue;
    w.abandoned = true;
    sys.close_span(w.leg_span, {{"orphaned", std::int64_t{1}}});
  }
}

simnet::Task<NodeId> System::place_question(const QuestionState& q,
                                            NodeId dns_node,
                                            const std::string& cache_key) {
  const QuestionPlan& plan = *q.plan;
  NodeId host = dns_node;
  // The DNS front-end may hand a question to a node that has left the
  // pool or crashed (its A record outlives the membership): reroute to the
  // least loaded live member, regardless of policy.
  if (!table_.is_member(host) || node_crashed_[host] != 0) {
    host = pick_live(sched::kQaWeights);
  }
  std::optional<NodeId> move_to;
  if (config_.dispatch.policy == Policy::kTwoChoice) {
    // Power-of-two-choices: sample two members, keep the lighter.
    const auto members = table_.members();
    if (members.size() >= 2) {
      const NodeId a = members[two_choice_rng_.below(members.size())];
      NodeId b = a;
      while (b == a) b = members[two_choice_rng_.below(members.size())];
      const double la =
          sched::load_function(table_.load_of(a), sched::kQaWeights);
      const double lb =
          sched::load_function(table_.load_of(b), sched::kQaWeights);
      const NodeId choice = la <= lb ? a : b;
      if (choice != host && schedulable(choice)) move_to = choice;
    }
  } else if (config_.dispatch.policy != Policy::kDns && table_.is_member(host)) {
    // With caching on, the question dispatcher routes by cache affinity:
    // steer the question to the rendezvous-preferred node (the one most
    // likely to hold its cached answer) unless that node is overloaded or
    // gone — then the paper's load-based rule decides as usual.
    std::optional<NodeId> preferred;
    if (!caches_.empty()) {
      preferred = affinity_target(cache::question_signature(cache_key));
    }
    const auto decision =
        preferred.has_value()
            ? sched::decide_affinity(table_, host, *preferred,
                                     sched::kQaWeights,
                                     sched::single_task_load(sched::kQaWeights),
                                     &registry_)
            : sched::decide_migration(
                  table_, host, sched::kQaWeights,
                  sched::single_task_load(sched::kQaWeights), &registry_);
    if (decision.migrate && schedulable(decision.target)) {
      move_to = decision.target;
    }
  }
  // An undelivered hand-off leaves the question put: the home node can
  // always host it.
  if (move_to.has_value() &&
      co_await ship(static_cast<double>(plan.question_bytes), host, *move_to,
                    q.deadline)) {
    host = *move_to;
    ins_.migrations_qa->inc();
    if (config_.dispatch.policy != Policy::kTwoChoice) {
      record_event(host, "question " + std::to_string(plan.source.id) +
                             " migrated from N" + std::to_string(dns_node + 1));
    }
  }
  if (node_crashed_[host] != 0) host = pick_live(sched::kQaWeights);
  co_return host;
}

simnet::Task<System::CacheProbe> System::probe_caches(
    const QuestionState& q, const std::string& cache_key) {
  const Seconds t0 = sim_.now();
  Node& host = *nodes_[q.host];
  co_await host.cpu().consume(host.cpu_work(cache::kLookupCpu));
  CacheProbe hit;
  if (!host_lost(q)) {
    NodeCaches& shard = *caches_[q.host];
    if (config_.cache.answers.enabled()) {
      hit.answer = shard.answers.find(cache_key, sim_.now()) != nullptr;
      (hit.answer ? ins_.cache_hits : ins_.cache_misses)->inc();
    }
    if (!hit.answer && config_.cache.paragraphs.enabled()) {
      hit.paragraphs = shard.paragraphs.find(cache_key, sim_.now()) != nullptr;
      (hit.paragraphs ? ins_.pr_cache_hits : ins_.pr_cache_misses)->inc();
    }
  }
  if (tracer_ != nullptr) {
    // Recorded retroactively so a crash mid-probe leaves no dangling
    // span; the lookup is pure CPU, so begin+end brackets it exactly.
    const obs::SpanId sp = tracer_->begin_span(
        t0, "cache lookup", q.host, q.track, q.span,
        {{"answer_hit", std::int64_t{hit.answer ? 1 : 0}},
         {"paragraph_hit", std::int64_t{hit.paragraphs ? 1 : 0}}});
    tracer_->end_span(sp, sim_.now());
  }
  co_return hit;
}

simnet::Task<bool> System::host_step(QuestionState& q, const char* name,
                                     Seconds cpu, double& elapsed) {
  const Seconds t0 = sim_.now();
  obs::SpanId span = obs::kNoSpan;
  if (tracer_ != nullptr && name != nullptr) {
    span = tracer_->begin_span(t0, name, q.host, q.track, q.span);
  }
  Node& host = *nodes_[q.host];
  co_await host.cpu().consume(host.cpu_work(cpu));
  elapsed = sim_.now() - t0;
  close_span(span, {});
  co_return !host_lost(q);
}

template <class Policy, class MakeAttrs, class... Units>
simnet::Task<bool> System::run_stage(QuestionState& q, Policy& policy,
                                     const char* name, MakeAttrs make_attrs,
                                     double& elapsed, Units... units) {
  const Seconds start = sim_.now();
  obs::SpanId span = obs::kNoSpan;
  if (tracer_ != nullptr) {
    span = tracer_->begin_span(start, name, q.host, q.track, q.span,
                               make_attrs());
  }
  simnet::Mailbox<std::size_t> reports(sim_);
  std::vector<std::shared_ptr<typename Policy::Slot>> slots;
  ScatterGather<Policy> gather(*this, policy, slots, reports, span);
  policy.place(gather, units...);
  co_await gather.run();
  elapsed = sim_.now() - start;
  close_span(span, {});
  co_return !host_lost(q);
}

simnet::SimProcess System::question_process(const QuestionPlan& plan,
                                            NodeId dns_node,
                                            Seconds arrived) {
  QuestionState q;
  q.plan = &plan;
  // Latency is measured from the arrival instant: a question that waited
  // in the admission queue pays that wait in its response time (and
  // against its deadline budget). Without admission control arrived is
  // always now().
  q.submitted = arrived;
  if (config_.net.reliability.question_deadline > 0.0) {
    q.deadline = q.submitted + config_.net.reliability.question_deadline;
  }
  std::size_t restarts = 0;

  // Cache identity of this question: the normalized text is the cache key
  // on every node, and its signature drives the affinity dispatch. Empty
  // key <=> caching off.
  const bool cache_on = !caches_.empty();
  const std::string cache_key =
      cache_on ? cache::normalize_question(plan.source.text) : std::string();
  bool served_from_cache = false;  // answered by an answer-cache hit

  // Selective search: which PR units (and, scaled, AP candidates) this
  // question touches. Computed lazily at most once per question — the
  // selection counters must not double-count across host-crash restarts,
  // and answer-cache hits must not count at all. With selection off this
  // is the identity.
  std::optional<SelectionResult> selection;
  const auto ensure_selection = [&]() -> const SelectionResult& {
    if (!selection.has_value()) selection = select_pr_units(plan);
    return *selection;
  };

  // One span per question lifetime; stage spans nest under it on the same
  // track, PR/AP legs fork onto their own tracks.
  if (tracer_ != nullptr) {
    q.track = tracer_->new_track();
    q.span = tracer_->begin_span(
        sim_.now(), "question", dns_node, q.track, obs::kNoSpan,
        {{"question", static_cast<std::int64_t>(plan.source.id)},
         {"policy", std::string(to_string(config_.dispatch.policy))}});
  }

  // ---- Scheduling point 1 (first placement only; a retry after a host
  // crash goes straight to the least-loaded live node instead).
  NodeId host = co_await place_question(q, dns_node, cache_key);

  // ---- Attempt loop: one pass per host. A host crash loses the question
  // (its state dies with the process); after the front-end's reply timeout
  // it is resubmitted to a surviving node and starts over from QP.
  for (;;) {
    q.host = host;
    q.host_epoch = crash_epoch_[host];
    q.degraded = false;  // a restarted attempt recomputes everything
    bool failed = false;

    nodes_[host]->question_arrived();
    // Reserve the question's expected load so simultaneous arrivals don't
    // all herd onto the same momentarily-idle node before the next
    // broadcast. Under heavy churn the host may not be a table member at
    // this point (every member was dead or suspect and pick_live fell back
    // to a non-crashed node, or the host was confirmed dead during a
    // migration ship) — then there is no entry to reserve against; the
    // node's next broadcast will carry its true load.
    if (table_.is_member(host)) {
      table_.reserve(host, sched::ResourceLoad{sched::kQaWeights.cpu,
                                               sched::kQaWeights.disk});
    }
    record_event(host, "started question " + std::to_string(plan.source.id));

    // ---- Cache probe (before QP): an answer hit short-circuits the whole
    // QP->PR->PS->PO->AP pipeline; a paragraph hit on answer miss still
    // skips the disk-bound PR stage.
    bool cached_paragraphs = false;
    if (cache_on) {
      const CacheProbe hit = co_await probe_caches(q, cache_key);
      failed = host_lost(q);
      if (!failed && hit.answer) {
        record_event(host, "question " + std::to_string(plan.source.id) +
                               " answered from cache");
        served_from_cache = true;
        break;
      }
      cached_paragraphs = hit.paragraphs;
    }

    // ---- QP (sequential, on the host).
    if (!failed) {
      failed = !co_await host_step(q, "QP", plan.qp.cpu_seconds, q.t_qp);
    }

    // ---- Scheduling point 2: the PR dispatcher (DQA only). Skipped
    // entirely on a paragraph-cache hit: the accepted, scored paragraphs
    // are already on the host's disk from a previous run of this question.
    if (!failed && !cached_paragraphs) {
      const std::span<const std::size_t> units = ensure_selection().units;
      // Replica-aware mode (R < nodes): placement is constrained to ready
      // replica holders, so the scatter is computed per unit by
      // assign_pr_units instead of the unconstrained meta-schedule.
      PrPolicy policy{*this, q, nullptr, shard_partial_};
      policy.placement = shard_partial_
                             ? StagePlacement{{host}, {1.0}}
                             : place_stage(host, sched::LegStage::kPr);
      policy.shared_queue =
          !shard_partial_ &&
          (config_.partition.pr_strategy == Strategy::kRecv ||
           policy.placement.nodes.size() == 1);
      const auto attrs = [&] {
        return obs::Attrs{
            {"legs", static_cast<std::int64_t>(policy.placement.nodes.size())},
            {"units", static_cast<std::int64_t>(units.size())}};
      };
      if (topology_.has_value()) {
        // Broker tier: the host routes per-group slices through mediator
        // nodes instead of fanning out to every holder itself.
        BrokerPolicy brokers{*this, q};
        failed = !co_await run_stage(q, brokers, "PR", attrs, q.t_pr_stage,
                                     units);
      } else {
        failed = !co_await run_stage(q, policy, "PR", attrs, q.t_pr_stage,
                                     units);
      }
    }

    // ---- PO (sequential and centralized, on the host).
    if (!failed) {
      failed = !co_await host_step(q, "PO", plan.po.cpu_seconds, q.t_po);
      if (!failed) {
        record_event(host, "accepted " +
                               std::to_string(plan.accepted_paragraphs) +
                               " paragraphs");
      }
    }

    // ---- Scheduling point 3: the AP dispatcher (DQA only).
    if (!failed && !plan.ap_units.empty()) {
      // Covers the paragraph-cache-hit path, where the PR stage (and its
      // ensure_selection call) was skipped: AP still processes only the
      // candidates the selected sub-collections would have produced.
      ApPolicy policy{*this, q, ensure_selection().ap_count};
      policy.placement = place_stage(host, sched::LegStage::kAp);
      policy.shared_queue =
          config_.partition.ap_strategy == Strategy::kRecv ||
          policy.placement.nodes.size() == 1;
      const auto attrs = [&] {
        return obs::Attrs{
            {"legs", static_cast<std::int64_t>(policy.placement.nodes.size())},
            {"paragraphs", static_cast<std::int64_t>(policy.paragraphs)}};
      };
      failed = !co_await run_stage(q, policy, "AP", attrs, q.t_ap_stage);
    }

    // ---- Answer merging + sorting (host).
    if (!failed) {
      failed = !co_await host_step(q, nullptr, plan.answer_sort.cpu_seconds,
                                   q.oh_answer_sort);
    }

    if (!failed) {
      // Success: remember the results on the node that computed them, so a
      // repeat of this question (routed here by affinity) hits. A degraded
      // (partial) answer must not poison the cache.
      if (cache_on && !q.degraded) remember(host, cache_key, plan);
      break;  // the host survived the whole attempt
    }

    // Host crash: everything this attempt computed died with it (no
    // question_departed — the crash already zeroed the residents). The
    // front-end notices after its reply timeout and resubmits.
    const Seconds detect = crash_time_[host] + kMembershipTimeout;
    if (detect > sim_.now()) {
      co_await simnet::Delay(sim_, detect - sim_.now());
    }
    ++restarts;
    ins_.question_restarts->inc();
    record_event(host, "question " + std::to_string(plan.source.id) +
                           " lost its host; resubmitting");
    host = pick_live(sched::kQaWeights);
  }

  if (q.degraded) {
    ins_.questions_degraded->inc();
    // Best effort before returning a partial answer: a stale (TTL-expired
    // or superseded) cached answer for the same question, if this node
    // still holds one, is served alongside the degraded flag.
    bool stale_served = false;
    if (cache_on && caches_[host]->answers.peek_stale(cache_key) != nullptr) {
      stale_served = true;
      ins_.degraded_stale_served->inc();
    }
    record_event(host,
                 "question " + std::to_string(plan.source.id) +
                     " answered degraded" +
                     (stale_served ? " (stale cached answer served)" : ""),
                 {{"kind", std::string("degraded")},
                  {"stale_cache", std::int64_t{stale_served ? 1 : 0}}});
  }

  record_event(host, "answered question " + std::to_string(plan.source.id) +
                         " in " + format_double(sim_.now() - q.submitted, 2) +
                         " secs");

  nodes_[host]->question_departed();

  // ---- Bookkeeping. Stage and overhead distributions describe the full
  // pipeline (paper Tables 8/9), so cache-served questions are excluded —
  // they would drag every column toward the probe cost. Latency keeps all
  // questions: the latency collapse IS the cache's effect.
  const Seconds latency = sim_.now() - q.submitted;
  ins_.latency->observe(latency);
  makespan_ = std::max(makespan_, sim_.now());
  if (!served_from_cache) {
    ins_.t_qp->observe(q.t_qp);
    ins_.t_pr->observe(std::max(0.0, q.t_pr_stage - q.t_ps_max));
    ins_.t_ps->observe(q.t_ps_max);
    ins_.t_po->observe(q.t_po);
    ins_.t_ap->observe(q.t_ap_stage);
    ins_.oh_keyword_send->observe(q.oh_keyword_send);
    ins_.oh_paragraph_receive->observe(q.oh_paragraph_receive);
    ins_.oh_paragraph_send->observe(q.oh_paragraph_send);
    ins_.oh_answer_receive->observe(q.oh_answer_receive);
    ins_.oh_answer_sort->observe(q.oh_answer_sort);
  }
  if (q.span != obs::kNoSpan) {
    tracer_->end_span(q.span, sim_.now(),
                      {{"latency_seconds", latency},
                       {"restarts", static_cast<std::int64_t>(restarts)},
                       {"cached", std::int64_t{served_from_cache ? 1 : 0}},
                       {"degraded", std::int64_t{q.degraded ? 1 : 0}}});
  }
  ins_.completed->inc();
  if (config_.admission.enabled()) finish_admitted();
  maybe_finish();
}

}  // namespace qadist::cluster
