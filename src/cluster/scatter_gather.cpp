// The supervised scatter-gather behind every partitioned stage. One
// coordinator waits on its legs' reports with a reply timeout:
//
//   * a report from a healthy leg settles its hedge race (if any) and pays
//     the stage's merge;
//   * a report from an unreachable leg steers placement away from its node
//     and hands the stranded work to the policy, which re-homes it or —
//     past the deadline budget — drops it and degrades the answer;
//   * a wake-up at the hedge trigger issues backups for legs outstanding
//     past the per-unit leg-wall quantile;
//   * a reply timeout sweeps for crashed legs, closes their spans (the
//     zombie never will), and hands their work to the policy.
//
// Trace lines, counter increments and spawn order are part of the
// contract: the supervision goldens pin them per path.

#include <algorithm>
#include <string>

#include "cluster/supervision.hpp"

namespace qadist::cluster {

template <class Policy>
std::size_t System::ScatterGather<Policy>::spawn(
    std::shared_ptr<Slot> slot, sched::NodeId node,
    std::shared_ptr<HedgeGroup> group, bool backup) {
  slot->node = node;
  slot->epoch = sys_.crash_epoch_[node];
  slot->stage_span = stage_span_;
  slot->spawned = sys_.sim_.now();
  slot->group = std::move(group);
  slot->hedge_backup = backup;
  (backup ? sys_.ins_.hedges_issued : sys_.ins_.legs_spawned)->inc();
  const std::size_t index = slots.size();
  slots.push_back(slot);
  ++outstanding_;
  policy_.start(slot, index, reports_);
  return index;
}

template <class Policy>
void System::ScatterGather<Policy>::respawn(std::shared_ptr<Slot> slot,
                                            sched::NodeId node) {
  // The liveness sweep settles every dead leg before any replacement
  // starts; elsewhere the replacement starts at once.
  if (sweeping_) {
    deferred_.emplace_back(node, std::move(slot));
    return;
  }
  spawn(std::move(slot), node);
  sys_.ins_.recovery_legs->inc();
}

template <class Policy>
std::string System::ScatterGather<Policy>::peer(const Slot& s) const {
  return policy_.peer_kind() + node_name(s.node);
}

template <class Policy>
bool System::ScatterGather<Policy>::hedgeable(const Slot& s) const {
  return !s.settled() && !s.hedged && !s.hedge_backup &&
         policy_.hedgeable(s);
}

template <class Policy>
Seconds System::ScatterGather<Policy>::hedge_due(const Slot& s,
                                                 Seconds per_unit) const {
  // The per-unit wall quantile scaled by the units the leg carries,
  // floored by kHedgeMinDelay: scaling by the leg's own size is what
  // keeps big-but-healthy legs from tripping the trigger.
  return s.spawned +
         std::max(per_unit * std::max(policy_.hedge_units(s), 1.0),
                  kHedgeMinDelay);
}

template <class Policy>
simnet::Task<bool> System::ScatterGather<Policy>::run() {
  while (outstanding_ > 0) {
    // Hedge trigger: wake before the reply timeout when the oldest
    // hedgeable leg crosses the observed leg-wall quantile.
    Seconds wait = kMembershipTimeout;
    bool hedge_wake = false;
    if (policy_.hedging()) {
      if (const auto delay = sys_.hedge_delay(Policy::kStage)) {
        std::optional<Seconds> due;
        for (const auto& sp : slots) {
          if (!hedgeable(*sp)) continue;
          const Seconds at = hedge_due(*sp, *delay);
          if (!due.has_value() || at < *due) due = at;
        }
        if (due.has_value() && *due - sys_.sim_.now() < wait) {
          wait = std::max(*due - sys_.sim_.now(), 0.0);
          hedge_wake = true;
        }
      }
    }
    const auto msg = co_await reports_.recv_for(wait);
    if (policy_.aborted()) co_return false;
    if (msg.has_value()) {
      --outstanding_;
      Slot& s = *slots[*msg];
      if (s.unreachable) {
        on_unreachable(s);
        continue;
      }
      sys_.observe_leg(Policy::kStage, s.node, sys_.sim_.now() - s.spawned,
                       static_cast<double>(s.done), s.hedge_backup);
      resolve_hedge(*msg);
      if (auto merge = policy_.on_reply(s)) {
        co_await *merge;
        if (policy_.aborted()) co_return false;
      }
      continue;
    }
    if (hedge_wake) {
      // The shortened wait elapsed because a leg crossed the hedge
      // trigger, not because replies went silent: no crash sweep.
      issue_hedges();
      continue;
    }
    sweep();
  }
  co_return true;
}

template <class Policy>
void System::ScatterGather<Policy>::issue_hedges() {
  // Each leg is hedged (or declined — no placement available) at most
  // once; backups appended here are never hedged themselves.
  const auto delay = sys_.hedge_delay(Policy::kStage);
  if (!delay.has_value()) return;
  const std::size_t count = slots.size();
  for (std::size_t i = 0; i < count; ++i) {
    Slot& s = *slots[i];
    if (!hedgeable(s) || sys_.sim_.now() < hedge_due(s, *delay)) continue;
    s.hedged = true;
    if (policy_.hedge(*this, i)) {
      sys_.record_event(policy_.coordinator(), std::string("hedged ") +
                                                   policy_.stage() +
                                                   " leg on " + peer(s));
    }
  }
}

template <class Policy>
void System::ScatterGather<Policy>::resolve_hedge(std::size_t winner) {
  // First reply wins: count the win or loss, abandon every unsettled
  // member (closing its span and, in tied mode, cancelling its in-service
  // reservation), and let the policy requeue work nobody else covers.
  Slot& w = *slots[winner];
  if (w.group == nullptr || w.group->resolved) return;
  const auto group = w.group;
  group->resolved = true;
  (w.hedge_backup ? sys_.ins_.hedge_wins : sys_.ins_.hedge_losses)->inc();
  const bool tied = sys_.config_.tail.tied;
  for (const std::size_t m : group->members) {
    if (m == winner) continue;
    Slot& s = *slots[m];
    if (s.settled()) continue;
    s.abandoned = true;
    --outstanding_;
    // The loser exits at its next co_await without closing its span;
    // close it here so critical-path attribution can skip it and bill its
    // duration as hedge waste.
    sys_.close_span(s.leg_span, {{"hedge_loser", std::int64_t{1}},
                                 {"cancelled", std::int64_t{tied ? 1 : 0}}});
    if (tied && s.busy_server != nullptr) {
      if (s.busy_server->cancel(s.busy_handle)) {
        sys_.ins_.legs_cancelled->inc();
      }
      s.busy_server = nullptr;
    }
    policy_.release(*this, s, *group);
  }
  if (requeued_) ensure_drainer();
}

template <class Policy>
void System::ScatterGather<Policy>::on_unreachable(Slot& s) {
  // The leg burned its retry budget talking to its node: alive but cut
  // off. Steer placement away from it, then let the policy recover the
  // work still parked in the slot.
  sys_.ins_.legs_unreachable->inc();
  policy_.note_unreachable();
  sys_.table_.suspect_hint(s.node, sys_.sim_.now());
  sys_.record_event(policy_.coordinator(), peer(s) + " unreachable during " +
                                               policy_.stage());
  // An unreachable backup drops out of its race without recovery: its
  // work is a copy the primary still owns. A lost host restarts the whole
  // question anyway.
  if (s.hedge_backup || policy_.coordinator_down()) return;
  policy_.recover(*this, s, /*crashed=*/false);
  if (requeued_) ensure_drainer();
}

template <class Policy>
void System::ScatterGather<Policy>::sweep() {
  // Reply timeout: declare every leg whose node crashed dead, close its
  // span (the zombie never will), and recover its work. Replacement legs
  // start only after the whole sweep.
  sweeping_ = true;
  const std::size_t count = slots.size();
  for (std::size_t i = 0; i < count; ++i) {
    Slot& s = *slots[i];
    if (s.settled()) continue;
    if (sys_.crash_epoch_[s.node] == s.epoch) continue;  // still alive
    s.declared_dead = true;
    --outstanding_;
    sys_.ins_.legs_lost->inc();
    sys_.close_span(s.leg_span, {{"crashed", std::int64_t{1}}});
    policy_.orphan(s);
    sys_.table_.remove(s.node);
    sys_.record_event(policy_.coordinator(), "lost contact with " + peer(s) +
                                                 " during " + policy_.stage());
    // A dead backup's work is a copy; whoever it was backing up still
    // owns it.
    if (policy_.coordinator_down() || s.hedge_backup) continue;
    policy_.recover(*this, s, /*crashed=*/true);
  }
  sweeping_ = false;
  for (auto& [node, slot] : deferred_) {
    spawn(std::move(slot), node);
    sys_.ins_.recovery_legs->inc();
  }
  deferred_.clear();
  if (requeued_) ensure_drainer();
}

template <class Policy>
void System::ScatterGather<Policy>::ensure_drainer() {
  // Requeued work is stranded unless a live primary still drains the
  // shared queue (a backup drains a private copy, not the queue).
  requeued_ = false;
  for (const auto& sp : slots) {
    if (!sp->settled() && !sp->hedge_backup) return;
  }
  auto slot = policy_.drainer();
  spawn(std::move(slot), sys_.pick_live(stage_weights(Policy::kStage)));
  sys_.ins_.recovery_legs->inc();
}

template class System::ScatterGather<System::PrPolicy>;
template class System::ScatterGather<System::ApPolicy>;
template class System::ScatterGather<System::BrokerPolicy>;

}  // namespace qadist::cluster
