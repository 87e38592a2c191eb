// Admission control and load shedding at the DNS front door (see
// AdmissionConfig). With admission off every arrival starts immediately.

#include <algorithm>

#include "cache/question_key.hpp"
#include "cluster/node_caches.hpp"
#include "common/check.hpp"

namespace qadist::cluster {

using sched::NodeId;

std::string_view to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kReject:
      return "REJECT";
    case AdmissionPolicy::kShedOldest:
      return "SHED-OLDEST";
    case AdmissionPolicy::kDegrade:
      return "DEGRADE";
  }
  QADIST_UNREACHABLE("bad AdmissionPolicy");
}

void System::on_arrival(const QuestionPlan& plan, NodeId dns_node) {
  const AdmissionConfig& admission = config_.admission;
  if (!admission.enabled()) {
    // Legacy unbounded path: every arrival starts immediately.
    question_process(plan, dns_node, sim_.now());
    return;
  }
  // Load-based shedding: a saturated pool sheds even while the waiting
  // room has space — queueing behind a pool that cannot drain only trades
  // rejections for timeouts.
  const bool pool_overloaded =
      admission.load_threshold > 0.0 &&
      sched::mean_pool_load(table_, sched::kQaWeights) >
          admission.load_threshold;
  if (executing_ < admission.max_concurrent && !pool_overloaded) {
    start_admitted(plan, dns_node, sim_.now());
    return;
  }
  if (!pool_overloaded && admission_queue_.size() < admission.queue_capacity) {
    admission_queue_.push_back(QueuedArrival{&plan, dns_node, sim_.now()});
    admission_queue_peak_ =
        std::max(admission_queue_peak_, admission_queue_.size());
    return;
  }
  shed_arrival(plan, dns_node);
}

void System::shed_arrival(const QuestionPlan& plan, NodeId dns_node) {
  switch (config_.admission.policy) {
    case AdmissionPolicy::kShedOldest:
      // Keep the freshest work: the oldest queued question has already
      // waited longest and is the most likely to be stale to its user.
      // With no waiting room there is no older arrival to shed.
      if (!admission_queue_.empty()) {
        const QueuedArrival oldest = admission_queue_.front();
        admission_queue_.pop_front();
        ins_.questions_shed->inc();
        record_event(oldest.dns_node,
                     "question " + std::to_string(oldest.plan->source.id) +
                         " shed from the admission queue",
                     {{"kind", std::string("admission_shed")}});
        admission_queue_.push_back(QueuedArrival{&plan, dns_node, sim_.now()});
        maybe_finish();
        return;
      }
      [[fallthrough]];
    case AdmissionPolicy::kReject:
      ins_.questions_rejected->inc();
      record_event(dns_node,
                   "question " + std::to_string(plan.source.id) +
                       " rejected at admission",
                   {{"kind", std::string("admission_reject")}});
      maybe_finish();
      return;
    case AdmissionPolicy::kDegrade:
      complete_degraded(plan, dns_node);
      return;
  }
  QADIST_UNREACHABLE("bad AdmissionPolicy");
}

void System::complete_degraded(const QuestionPlan& plan, NodeId dns_node) {
  // Serve what we already have, immediately: probe the rendezvous-preferred
  // node's answer cache (a stale entry still beats nothing), otherwise
  // return a flagged partial answer. No cluster resources are consumed —
  // that is the point of shedding.
  ins_.admission_degraded->inc();
  bool cache_served = false;
  bool stale = false;
  if (!caches_.empty()) {
    const std::string key = cache::normalize_question(plan.source.text);
    if (const auto preferred = preferred_node(plan); preferred.has_value()) {
      NodeCaches& shard = *caches_[*preferred];
      if (shard.answers.find(key, sim_.now()) != nullptr) {
        cache_served = true;
        ins_.cache_hits->inc();
      } else if (shard.answers.peek_stale(key) != nullptr) {
        cache_served = true;
        stale = true;
        ins_.degraded_stale_served->inc();
      }
    }
  }
  if (!cache_served || stale) ins_.questions_degraded->inc();
  record_event(dns_node,
               "question " + std::to_string(plan.source.id) +
                   " degraded by admission control" +
                   (cache_served ? (stale ? " (stale cached answer served)"
                                          : " (cached answer served)")
                                 : " (partial answer)"),
               {{"kind", std::string("admission_degrade")},
                {"cache_served", std::int64_t{cache_served ? 1 : 0}}});
  ins_.latency->observe(0.0);  // answered at its arrival instant
  makespan_ = std::max(makespan_, sim_.now());
  ins_.completed->inc();
  maybe_finish();
}

void System::start_admitted(const QuestionPlan& plan, NodeId dns_node,
                            Seconds arrived) {
  ++executing_;
  ins_.admission_wait->observe(sim_.now() - arrived);
  question_process(plan, dns_node, arrived);
}

void System::finish_admitted() {
  QADIST_CHECK(executing_ > 0);
  --executing_;
  if (!admission_queue_.empty() &&
      executing_ < config_.admission.max_concurrent) {
    const QueuedArrival next = admission_queue_.front();
    admission_queue_.pop_front();
    start_admitted(*next.plan, next.dns_node, next.arrived);
  }
}

double System::accounted() const {
  return ins_.completed->value() + ins_.questions_rejected->value() +
         ins_.questions_shed->value();
}

void System::maybe_finish() {
  if (accounted() == ins_.submitted->value()) all_done_ = true;
}

}  // namespace qadist::cluster
