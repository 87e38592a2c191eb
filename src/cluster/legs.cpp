// Stage legs: the worker side of the supervised scatter-gather. Every leg
// follows the zombie/abandon contract in supervision.hpp — after EVERY
// co_await it re-checks LegReport::dead() and, once dead, exits touching
// only its slot and System members.

#include <algorithm>

#include "cluster/supervision.hpp"
#include "common/strings.hpp"

namespace qadist::cluster {

using sched::NodeId;

void System::LegReport::open_span(const char* name, obs::Attrs attrs) {
  track = sys.tracer_->new_track();
  // Backup legs carry a distinct mark so critical-path attribution can
  // tell a hedge win from a wasted backup (only stamped when hedging is
  // on — default traces stay byte-identical).
  if (slot.hedge_backup) attrs.emplace_back("hedge", std::int64_t{1});
  slot.leg_span = sys.tracer_->begin_span(sys.sim_.now(), name, slot.node,
                                          track, slot.stage_span,
                                          std::move(attrs));
}

void System::LegReport::finish(
    std::initializer_list<std::pair<const char*, std::int64_t>> counts) {
  if (busy_max != nullptr) *busy_max = std::max(*busy_max, busy);
  if (sys.tracer_ != nullptr) {
    obs::Attrs attrs;
    for (const auto& [key, value] : counts) attrs.emplace_back(key, value);
    attrs.emplace_back("net_seconds", ship_cost.transfer);
    attrs.emplace_back("backoff_seconds", ship_cost.backoff);
    sys.close_span(slot.leg_span, std::move(attrs));
  }
  slot.reported = true;
  reports.send(index);
}

simnet::SimProcess System::pr_leg(QuestionState& q,
                                  std::shared_ptr<PrLegSlot> slot,
                                  std::size_t index,
                                  simnet::Mailbox<std::size_t>& reports,
                                  NodeId host) {
  // `host` is the coordinator endpoint: the question host in the flat
  // star, the group's broker under the broker tier. The leg cannot tell
  // the two apart.
  const NodeId node = slot->node;
  Node& executor = *nodes_[node];
  const QuestionPlan& plan = *q.plan;
  bool sent_keywords = node == host;  // local leg ships nothing
  std::size_t units_done = 0;
  LegReport leg(*this, *slot, index, reports);
  leg.busy_max = &q.t_ps_max;
  leg.open("PR leg", [&] {
    return obs::Attrs{
        {"node", static_cast<std::int64_t>(node)},
        {"strategy",
         std::string(parallel::to_string(config_.partition.pr_strategy))}};
  });

  while (!slot->units->empty()) {
    const std::size_t idx = slot->units->front();
    slot->units->pop_front();
    slot->in_flight = idx;
    const auto& unit = plan.pr_units[idx];

    if (!sent_keywords) {
      const Seconds t0 = sim_.now();
      if (!leg.shipped(co_await ship(static_cast<double>(plan.keyword_bytes),
                                     host, node, q.deadline, &leg.ship_cost))) {
        co_return;
      }
      q.oh_keyword_send += sim_.now() - t0;
      sent_keywords = true;
    }

    // Retrieval's CPU share pays the memory pressure sampled before its
    // disk read.
    const Seconds unit_start = sim_.now();
    const double thrash = executor.work_multiplier();
    co_await leg.consume(executor.disk(),
                         executor.disk_work(unit.demand.disk_bytes, thrash));
    if (leg.dead()) co_return;
    co_await leg.consume(executor.cpu(),
                         executor.cpu_work(unit.demand.cpu_seconds, thrash));
    if (leg.dead()) co_return;
    record_event(node,
                 "finished collection " + std::to_string(idx) + " in " +
                     format_double(sim_.now() - unit_start, 2) + " secs (" +
                     std::to_string(unit.paragraphs) + " paragraphs)",
                 {{"kind", std::string("pr_unit")},
                  {"unit", static_cast<std::int64_t>(idx)},
                  {"paragraphs", static_cast<std::int64_t>(unit.paragraphs)}});

    // Paragraph scoring runs fused on the retrieval node (paper Fig. 3).
    const Seconds ps0 = sim_.now();
    co_await leg.consume(executor.cpu(), executor.cpu_work(unit.ps.cpu_seconds));
    if (leg.dead()) co_return;
    leg.busy += sim_.now() - ps0;
    if (tracer_ != nullptr) {
      // Recorded retroactively (begin+end in one go) so a crash mid-PS
      // never leaves a dangling scoring span.
      const obs::SpanId ps_span = tracer_->begin_span(
          ps0, "PS", node, leg.track, slot->leg_span,
          {{"unit", static_cast<std::int64_t>(idx)}});
      tracer_->end_span(ps_span, sim_.now());
    }

    if (node != host && unit.bytes_out > 0) {
      // Ship the scored paragraphs back; the paragraph merging module on
      // the host re-reads them from its disk (paper Eq. 27).
      const Seconds t0 = sim_.now();
      // Undelivered: in_flight stays set, so the unit is redone.
      if (!leg.shipped(co_await ship(static_cast<double>(unit.bytes_out), node,
                                     host, q.deadline, &leg.ship_cost))) {
        co_return;
      }
      Node& receiver = *nodes_[host];
      co_await leg.consume(
          receiver.disk(),
          receiver.gray_disk_work(static_cast<double>(unit.bytes_out)));
      if (leg.dead()) co_return;
      q.oh_paragraph_receive += sim_.now() - t0;
    }
    // The unit's results now live on the host: durable across our crash.
    slot->in_flight = kNoUnit;
    ++units_done;
    slot->done = units_done;
  }
  leg.finish({{"units", static_cast<std::int64_t>(units_done)}});
}

simnet::SimProcess System::ap_leg(QuestionState& q,
                                  std::shared_ptr<ApLegSlot> slot,
                                  std::size_t index,
                                  simnet::Mailbox<std::size_t>& reports) {
  const NodeId node = slot->node;
  Node& executor = *nodes_[node];
  const QuestionPlan& plan = *q.plan;
  const NodeId host = q.host;
  const bool remote = node != host;
  const bool recv = slot->chunks != nullptr;
  const Seconds leg_start = sim_.now();
  std::size_t processed = 0;
  LegReport leg(*this, *slot, index, reports);
  leg.open("AP leg", [&] {
    return obs::Attrs{
        {"node", static_cast<std::int64_t>(node)},
        {"strategy",
         std::string(parallel::to_string(config_.partition.ap_strategy))}};
  });

  // Each batch: ship paragraphs in, burn CPU per paragraph, extract the
  // batch's answers, ship them back. RECV batches are chunks competed for
  // on the shared queue, and only the in-flight chunk is at risk on a
  // crash; SEND/ISEND run their fixed partition as one batch, so nothing
  // is durable until its final answer transfer lands. Answers returning
  // per batch is why tiny RECV chunks pay more overhead (paper Sec. 4.1.2).
  while (!recv || !slot->chunks->empty()) {
    parallel::Chunk chunk{};
    if (recv) {
      chunk = slot->chunks->front();
      slot->chunks->pop_front();
      slot->in_flight = chunk;
      slot->has_in_flight = true;
    }
    const std::size_t count = recv ? chunk.size() : slot->units.size();
    const auto paragraph = [&](std::size_t k) -> const auto& {
      return plan.ap_units[recv ? chunk.begin + k : slot->units[k]];
    };
    std::size_t bytes_in = 0;
    std::size_t bytes_out = 0;
    for (std::size_t k = 0; k < count; ++k) {
      bytes_in += paragraph(k).bytes_in;
      bytes_out += paragraph(k).answer_bytes_out;
    }
    if (remote && bytes_in > 0) {
      const Seconds t0 = sim_.now();
      // Undelivered: the batch stays in the slot.
      if (!leg.shipped(co_await ship(static_cast<double>(bytes_in), host,
                                     node, q.deadline, &leg.ship_cost))) {
        co_return;
      }
      q.oh_paragraph_send += sim_.now() - t0;
    }
    for (std::size_t k = 0; k < count; ++k) {
      co_await leg.consume(executor.cpu(),
                           executor.cpu_work(paragraph(k).demand.cpu_seconds));
      if (leg.dead()) co_return;
      ++processed;
      slot->done = processed;
    }
    if (count > 0) {
      // Per-batch answer extraction floor (paper Sec. 4.1.2).
      co_await leg.consume(executor.cpu(),
                           executor.gray_cpu_work(
                               config_.partition.per_batch_answer_cpu));
      if (leg.dead()) co_return;
    }
    if (remote && bytes_out > 0) {
      const Seconds t0 = sim_.now();
      // Undelivered: the answers never landed, so the batch is redone.
      if (!leg.shipped(co_await ship(static_cast<double>(bytes_out), node,
                                     host, q.deadline, &leg.ship_cost))) {
        co_return;
      }
      q.oh_answer_receive += sim_.now() - t0;
    }
    if (!recv) break;
    slot->has_in_flight = false;  // answers are back: chunk is durable
  }
  if (processed > 0) {
    record_event(node,
                 "finished " + std::to_string(processed) + " paragraphs in " +
                     format_double(sim_.now() - leg_start, 2) + " secs",
                 {{"kind", std::string("ap_done")},
                  {"paragraphs", static_cast<std::int64_t>(processed)}});
  }
  leg.finish({{"paragraphs", static_cast<std::int64_t>(processed)}});
}

simnet::SimProcess System::broker_leg(QuestionState& q,
                                      std::shared_ptr<BrokerSlot> slot,
                                      std::size_t index,
                                      simnet::Mailbox<std::size_t>& reports) {
  // The inner mailbox lives in the slot (workers hold keepalive
  // references), so worker reports never dangle even after this frame and
  // the slot's coordinator copy are gone.
  const NodeId broker = slot->node;
  Node& executor = *nodes_[broker];
  const QuestionPlan& plan = *q.plan;
  const NodeId host = q.host;
  LegReport leg(*this, *slot, index, reports);
  leg.open("PR broker", [&] {
    return obs::Attrs{
        {"node", static_cast<std::int64_t>(broker)},
        {"group", static_cast<std::int64_t>(slot->shard_group)},
        {"units", static_cast<std::int64_t>(slot->units.size())}};
  });

  // Keywords travel host -> broker once (core backbone across groups).
  if (broker != host) {
    const Seconds t0 = sim_.now();
    if (!leg.shipped(co_await ship(static_cast<double>(plan.keyword_bytes),
                                   host, broker, q.deadline, &leg.ship_cost))) {
      co_return;
    }
    q.oh_keyword_send += sim_.now() - t0;
  }

  // Routing: resolve each unit's shard to an in-group ready holder (the
  // grouped shard pools make assign_pr_units in-group by construction),
  // then supervise the group's holders exactly like a sharded PR stage.
  co_await leg.consume(executor.cpu(),
                       executor.cpu_work(broker::kRouteCpu));
  if (leg.dead()) co_return;
  PrPolicy policy{*this, q, slot.get(), /*sharded=*/true};
  ScatterGather<PrPolicy> gather(*this, policy, slot->workers, *slot->inner,
                                 slot->leg_span);
  policy.place(gather, slot->units);
  if (!co_await gather.run()) co_return;

  // Fan-in: one merged aggregate per group back to the host (instead of
  // one stream per worker leg), plus the host's receive disk work.
  const double aggregate = std::max(slot->bytes_out, 0.0);
  if (broker != host && aggregate > 0.0) {
    const Seconds t0 = sim_.now();
    if (!leg.shipped(co_await ship(aggregate, broker, host, q.deadline,
                                   &leg.ship_cost))) {
      co_return;
    }
    co_await leg.consume(nodes_[host]->disk(),
                         nodes_[host]->gray_disk_work(aggregate));
    if (leg.dead()) co_return;
    q.oh_paragraph_receive += sim_.now() - t0;
  }
  leg.finish({{"units", static_cast<std::int64_t>(slot->done)},
              {"unserved", static_cast<std::int64_t>(slot->unserved)}});
}

}  // namespace qadist::cluster
