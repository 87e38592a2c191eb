#pragma once

// Internal to the cluster library. The state a question's stage
// coordinator shares with its legs, and the one supervised scatter-gather
// every partitioned stage runs: flat PR, in-subtree PR under a broker, AP,
// and the broker tier itself.

#include <coroutine>
#include <initializer_list>

#include "cluster/system.hpp"

namespace qadist::cluster {

inline constexpr std::size_t kNoUnit = static_cast<std::size_t>(-1);

/// "N<k>": how trace lines name a node (1-based, as in the paper).
[[nodiscard]] inline std::string node_name(sched::NodeId node) {
  std::string name = "N";
  name += std::to_string(node + 1);
  return name;
}

/// The load function a stage's placement decisions weigh (paper Eq. 5/6).
[[nodiscard]] inline const sched::LoadWeights& stage_weights(
    sched::LegStage stage) {
  return stage == sched::LegStage::kPr ? sched::kPrWeights
                                       : sched::kApWeights;
}

/// Per-question bookkeeping shared between the main task coroutine and its
/// legs. Lives in the question_process frame, so legs may only touch it
/// while the coordinator is still waiting on them (a leg whose node
/// crashed must exit without reading it — see LegSlot).
struct System::QuestionState {
  const QuestionPlan* plan = nullptr;
  sched::NodeId host = 0;
  std::size_t host_epoch = 0;  // crash_epoch_[host] when the attempt began
  Seconds submitted = 0.0;
  /// The question span and its track; the host's stage spans nest under
  /// it (kNoSpan while tracing is off).
  obs::SpanId span = obs::kNoSpan;
  std::uint64_t track = 0;

  // Stage timings (paper Table 8 columns).
  double t_qp = 0.0;
  double t_pr_stage = 0.0;
  double t_ps_max = 0.0;  // scoring time on the slowest PR leg
  double t_po = 0.0;
  double t_ap_stage = 0.0;

  // Overhead components (paper Table 9 columns).
  double oh_keyword_send = 0.0;
  double oh_paragraph_receive = 0.0;
  double oh_paragraph_send = 0.0;
  double oh_answer_receive = 0.0;
  double oh_answer_sort = 0.0;

  /// Absolute deadline (submitted + reliability.question_deadline); 0 when
  /// the budget is disabled.
  Seconds deadline = 0.0;
  /// Work lost to an unreachable peer was dropped instead of re-partitioned
  /// because the deadline budget was spent: the answer is partial.
  bool degraded = false;
};

/// What one leg shares with its coordinator. Held by shared_ptr from both
/// sides: a leg outlives the coordinator frame when its node crashes (the
/// coordinator recovers and moves on while the zombie coroutine drains its
/// pending resumptions), so everything a zombie may still touch lives here
/// or in the System.
///
/// Zombie/abandon contract: after EVERY co_await a leg re-checks its
/// node's crash epoch and `abandoned`. Once either moved, the leg exits
/// touching only its slot and System members — the coordinator may already
/// have recovered the work, finished the question, and destroyed the
/// QuestionState and the report mailbox. A dead leg never reports and
/// never closes its own span: the coordinator's liveness sweep (crash) or
/// hedge settlement (abandon) closes it.
struct System::LegSlot {
  sched::NodeId node = 0;
  std::size_t epoch = 0;  // crash_epoch_[node] at spawn
  bool reported = false;
  bool declared_dead = false;
  /// The leg gave up on a send (retry budget spent): its node is alive but
  /// unreachable. Set together with `reported`; pending work stays in the
  /// slot for the coordinator to recover or drop.
  bool unreachable = false;
  /// Lost a hedge race (or its broker died): a zombie by the same
  /// contract as a crash.
  bool abandoned = false;
  obs::SpanId stage_span = obs::kNoSpan;  // the span the leg nests under
  obs::SpanId leg_span = obs::kNoSpan;
  Seconds spawned = 0.0;  ///< hedge-trigger and leg-wall basis
  std::size_t done = 0;   ///< units completed so far
  bool hedge_backup = false;  ///< a hedge backup: its work is a copy
  bool hedged = false;  ///< a backup was already issued (or declined)
  std::shared_ptr<HedgeGroup> group;  ///< the race this leg belongs to
  /// Reservation currently held (every leg consume goes through
  /// CancellableConsume), so abandonment can release it mid-service.
  simnet::FairShareServer* busy_server = nullptr;
  std::coroutine_handle<> busy_handle{};

  /// Nothing left to wait for: reported, declared dead, or abandoned.
  [[nodiscard]] bool settled() const {
    return reported || declared_dead || abandoned;
  }
};

/// A PR leg. `units` is the stage-shared deque under RECV (legs compete)
/// and a private deque otherwise.
struct System::PrLegSlot : LegSlot {
  std::shared_ptr<std::deque<std::size_t>> units;
  std::size_t in_flight = kNoUnit;  // popped, results not yet on the host
  /// Keeps the report mailbox alive for broker-spawned legs: the inner
  /// mailbox lives in the BrokerSlot, whose coordinator can vanish (broker
  /// crash) while an abandoned worker still runs — the worker's own slot
  /// then holds the last reference, so its final reports.send never
  /// dangles. Null for host-spawned legs (the host drains before exit).
  std::shared_ptr<void> keepalive;
};

/// An AP leg. Exactly one of `chunks` (RECV self-scheduling) or `units`
/// (SEND/ISEND fixed partition) is active. RECV loses at most the
/// in-flight chunk on a crash (answers ship per chunk); SEND/ISEND lose the
/// whole partition (answers ship once at the end).
struct System::ApLegSlot : LegSlot {
  std::vector<std::size_t> units;
  std::shared_ptr<std::deque<parallel::Chunk>> chunks;
  parallel::Chunk in_flight{};
  bool has_in_flight = false;
};

/// A broker-tier PR leg: the group's broker routes the group's units to
/// in-group shard holders, supervises them on its own mailbox, merges their
/// partials, and ships one aggregate back.
struct System::BrokerSlot : LegSlot {
  std::size_t shard_group = 0;  ///< topology group this leg covers
  /// The group's selected PR units. Kept whole (not drained): a broker
  /// loss loses the partials merged on it, so the host re-routes the full
  /// slice through an acting broker.
  std::vector<std::size_t> units;
  double bytes_out = 0.0;    ///< merged candidate bytes to ship to the host
  std::size_t unserved = 0;  ///< units dropped in-subtree (degraded)
  /// Inner report mailbox + the worker slots it serves. Owned here (not in
  /// the coroutine frame) so workers can outlive a crashed broker — each
  /// worker slot holds a keepalive reference to the mailbox.
  std::shared_ptr<simnet::Mailbox<std::size_t>> inner;
  std::vector<std::shared_ptr<PrLegSlot>> workers;
};

/// One hedge race: the primary leg plus the backup leg(s) issued against it
/// after the hedge delay elapsed. First member to report wins; the
/// coordinator closes the losers' spans (hedge_loser=1), releases their
/// reservations in tied mode, and stops waiting on them. `covered` /
/// `covered_chunk` record the work snapshot the backups re-run: anything a
/// shared-queue primary picked up *after* the snapshot is not covered and
/// is requeued when the primary is abandoned.
struct System::HedgeGroup {
  std::vector<std::size_t> members;  ///< slot indices (primary first)
  std::vector<std::size_t> covered;  ///< PR units the backups re-run
  std::optional<parallel::Chunk> covered_chunk;  ///< AP RECV chunk re-run
  bool resolved = false;             ///< a winner was recorded
};

/// The leg side of the protocol, shared by every leg body: the leg's span
/// (opened on a fresh track under the stage span), its wire/backoff tally,
/// the zombie check, and the two ways a leg reports.
struct System::LegReport {
  LegReport(System& system, LegSlot& leg_slot, std::size_t leg_index,
            simnet::Mailbox<std::size_t>& leg_reports)
      : sys(system), slot(leg_slot), index(leg_index), reports(leg_reports) {}

  /// Crashed under the leg, or abandoned by its coordinator.
  [[nodiscard]] bool dead() const {
    return sys.crash_epoch_[slot.node] != slot.epoch || slot.abandoned;
  }
  /// FairShareServer::consume with a parking spot: while the coroutine is in
  /// service, the (server, handle) pair sits in the leg slot's busy cell so a
  /// tied-hedge coordinator can cancel the reservation mid-flight (see
  /// FairShareServer::cancel). Suspension-wise identical to ConsumeAwaiter —
  /// same await_ready condition, same enqueue — so routing a consume through
  /// this awaiter never changes the event sequence.
  class [[nodiscard]] CancellableConsume {
   public:
    CancellableConsume(simnet::FairShareServer& server, double work,
                       LegSlot& slot)
        : server_(server), work_(work), slot_(slot) {}
    bool await_ready() const noexcept { return work_ <= 0.0; }
    void await_suspend(std::coroutine_handle<> h) {
      slot_.busy_server = &server_;
      slot_.busy_handle = h;
      server_.enqueue(work_, h);
    }
    void await_resume() noexcept { slot_.busy_server = nullptr; }

   private:
    simnet::FairShareServer& server_;
    double work_;
    LegSlot& slot_;
  };

  /// Every leg consume parks its reservation in the slot's busy cell.
  CancellableConsume consume(simnet::FairShareServer& server, double work) {
    return CancellableConsume(server, work, slot);
  }
  /// Opens the leg span; `make_attrs` only runs while tracing.
  template <class MakeAttrs>
  void open(const char* name, MakeAttrs&& make_attrs) {
    if (sys.tracer_ != nullptr) open_span(name, make_attrs());
  }
  /// Normal completion: close the span with `counts` plus the wire/backoff
  /// split, and report.
  void finish(std::initializer_list<std::pair<const char*, std::int64_t>> counts);
  /// After a ship(): whether the leg carries on. A dead leg stops
  /// silently. A ship() that exhausted its retries means the peer is cut
  /// off, not crashed: the leg reports unreachable with its pending work
  /// still parked in the slot, for the coordinator to recover or degrade.
  bool shipped(bool delivered) {
    if (dead()) return false;
    if (!delivered) {
      slot.unreachable = true;
      finish({{"unreachable", std::int64_t{1}}});
    }
    return delivered;
  }

  System& sys;
  LegSlot& slot;
  std::size_t index;
  simnet::Mailbox<std::size_t>& reports;
  ShipCost ship_cost;
  std::uint64_t track = 0;
  /// The leg's share of a stage time the question records as a max over
  /// legs (PR's scoring time): folded into *busy_max when the leg reports.
  double busy = 0.0;
  double* busy_max = nullptr;

 private:
  void open_span(const char* name, obs::Attrs attrs);
};

/// The supervised scatter-gather (scatter_gather.cpp): one coordinator
/// waiting on a set of legs with a reply timeout. It runs the outstanding
/// count, the liveness sweep, unreachable-leg handling, the hedge trigger
/// and settlement, tied cancels, and span closing. A stage policy supplies
/// the rest:
///
///   place(sg, ...)        initial spawns
///   start(slot, i, box)   run leg i on the coroutine the stage uses
///   recover(sg, s, crash) re-home a lost leg's work (spawn or requeue)
///   on_reply(s)           per-reply merge: the CPU work to wait for
///   hedging / hedgeable / hedge_units / hedge(sg, i) / release(sg, s, g)
///   drainer()             a fresh leg on the shared queue
///   orphan(s)             a dead leg's own sub-legs lose their coordinator
///   note_unreachable()    stage-specific count of an unreachable leg
///   coordinator()         the node the stage's trace lines come from
///   stage() / peer_kind() how trace lines name the stage and its legs
///   coordinator_down()    host lost: stop recovering, just drain
///   aborted()             the coordinator itself died: stop at once
///
/// Leg slots and the report mailbox are owned by the caller: the stage
/// frame for host-run stages, the BrokerSlot for a broker's fan-out.
template <class Policy>
class System::ScatterGather {
 public:
  using Slot = typename Policy::Slot;

  ScatterGather(System& system, Policy& policy,
                std::vector<std::shared_ptr<Slot>>& leg_slots,
                simnet::Mailbox<std::size_t>& reports, obs::SpanId stage_span)
      : slots(leg_slots),
        sys_(system),
        policy_(policy),
        reports_(reports),
        stage_span_(stage_span) {}

  /// Starts a leg on `node` for the work already in `slot`; returns its
  /// index.
  std::size_t spawn(std::shared_ptr<Slot> slot, sched::NodeId node,
                    std::shared_ptr<HedgeGroup> group = nullptr,
                    bool backup = false);
  /// A recovery leg: spawned now, or once the current liveness sweep has
  /// visited every leg.
  void respawn(std::shared_ptr<Slot> slot, sched::NodeId node);
  /// Lost work went back on the shared queue: make sure a live primary
  /// leg is still draining it.
  void requeued() { requeued_ = true; }
  /// Counts `count` units of lost leg `s` re-homed (after a crash, also
  /// the time the loss took to detect).
  void recovered(const Slot& s, std::size_t count, bool crashed) {
    sys_.ins_.items_recovered->inc(static_cast<double>(count));
    if (crashed) {
      sys_.ins_.recovery_latency->observe(sys_.sim_.now() -
                                          sys_.crash_time_[s.node]);
    }
  }

  /// Re-splits a lost SEND/ISEND block over the stage's survivors (never
  /// the unreachable leg's own node; the host when none is left) and
  /// respawns one leg per part. PR and AP only (stages.cpp).
  void resplit(const Slot& s, bool crashed,
               const std::vector<std::size_t>& lost);

  /// Supervises until every leg reported, was declared dead, or was
  /// abandoned. Resolves false when the coordinator itself died.
  simnet::Task<bool> run();

  std::vector<std::shared_ptr<Slot>>& slots;

 private:
  [[nodiscard]] bool hedgeable(const Slot& s) const;
  [[nodiscard]] Seconds hedge_due(const Slot& s, Seconds per_unit) const;
  void issue_hedges();
  void resolve_hedge(std::size_t winner);
  void on_unreachable(Slot& s);
  void sweep();
  void ensure_drainer();
  [[nodiscard]] std::string peer(const Slot& s) const;

  System& sys_;
  Policy& policy_;
  simnet::Mailbox<std::size_t>& reports_;
  obs::SpanId stage_span_;
  std::size_t outstanding_ = 0;
  bool sweeping_ = false;
  bool requeued_ = false;
  std::vector<std::pair<sched::NodeId, std::shared_ptr<Slot>>> deferred_;
};

/// PR over shard holders or a RECV/SEND partition of the pool. With
/// `tier` set it is a broker's in-subtree fan-out: the broker coordinates,
/// there is no hedging, units nobody can serve become the broker slot's
/// `unserved` count instead of degrading the question, and each partial is
/// merged on the broker's CPU.
struct System::PrPolicy {
  using Slot = PrLegSlot;
  using Block = std::deque<std::size_t>;
  static constexpr sched::LegStage kStage = sched::LegStage::kPr;

  System& sys;
  QuestionState& q;
  BrokerSlot* tier = nullptr;
  bool sharded = false;
  bool shared_queue = false;
  std::shared_ptr<std::deque<std::size_t>> shared_units{};
  StagePlacement placement{};  // flat, unsharded stages

  void place(ScatterGather<PrPolicy>& sg, std::span<const std::size_t> units);
  void start(const std::shared_ptr<PrLegSlot>& slot, std::size_t index,
             simnet::Mailbox<std::size_t>& reports) {
    sys.pr_leg(q, slot, index, reports, coordinator());
  }
  void recover(ScatterGather<PrPolicy>& sg, PrLegSlot& s, bool crashed);
  std::optional<Merge> on_reply(const PrLegSlot& s);
  [[nodiscard]] bool hedging() const {
    return tier == nullptr && sys.config_.tail.hedge;
  }
  /// A shared-queue leg is hedgeable only once the queue drained: its
  /// in-flight unit is then all that is left of the stage on that node.
  [[nodiscard]] bool hedgeable(const PrLegSlot& s) const {
    return !shared_queue || (shared_units->empty() && s.in_flight != kNoUnit);
  }
  [[nodiscard]] double hedge_units(const PrLegSlot& s) const {
    return static_cast<double>(s.done + (s.in_flight != kNoUnit ? 1 : 0) +
                               (s.units != nullptr ? s.units->size() : 0));
  }
  bool hedge(ScatterGather<PrPolicy>& sg, std::size_t index);
  void release(ScatterGather<PrPolicy>& sg, PrLegSlot& s,
               const HedgeGroup& group);
  std::shared_ptr<PrLegSlot> drainer() { return make_slot(shared_units); }
  [[nodiscard]] sched::NodeId coordinator() const {
    return tier != nullptr ? tier->node : q.host;
  }
  [[nodiscard]] bool coordinator_down() const {
    return tier == nullptr && sys.host_lost(q);
  }
  [[nodiscard]] bool aborted() const {
    return tier != nullptr && (sys.crash_epoch_[tier->node] != tier->epoch ||
                               tier->abandoned);
  }
  [[nodiscard]] const char* stage() const { return tier ? "brokered PR" : "PR"; }
  [[nodiscard]] const char* peer_kind() const { return ""; }
  void orphan(PrLegSlot&) {}
  void note_unreachable() {}
  std::shared_ptr<PrLegSlot> make_slot(Block block) {
    return make_slot(std::make_shared<Block>(std::move(block)));
  }
  /// The SEND split of `count` units (RECV legs share one queue instead).
  [[nodiscard]] static std::vector<parallel::Partition> partition(
      std::size_t count, const std::vector<double>& weights) {
    return parallel::partition_send(count, weights);
  }

 private:
  std::shared_ptr<PrLegSlot> make_slot(
      std::shared_ptr<std::deque<std::size_t>> units);
  /// Gives up on `units`: the broker slot's unserved count in-subtree, a
  /// degraded answer otherwise (`unplaced`: no replica could serve them).
  void drop(std::span<const std::size_t> units, bool unplaced);
  /// The in-flight unit plus a private queue's remainder: what a lost or
  /// hedged leg still owes.
  [[nodiscard]] std::vector<std::size_t> remaining(const PrLegSlot& s) const {
    std::vector<std::size_t> units;
    if (s.in_flight != kNoUnit) units.push_back(s.in_flight);
    if (!shared_queue) units.insert(units.end(), s.units->begin(), s.units->end());
    return units;
  }
  [[nodiscard]] std::string in_group() const {
    return tier ? " in group " + std::to_string(tier->shard_group) : "";
  }
};

/// AP over a RECV chunk queue or a SEND/ISEND partition of the pool.
struct System::ApPolicy {
  using Slot = ApLegSlot;
  using Block = std::vector<std::size_t>;
  static constexpr sched::LegStage kStage = sched::LegStage::kAp;

  System& sys;
  QuestionState& q;
  std::size_t paragraphs = 0;
  bool shared_queue = false;
  std::shared_ptr<std::deque<parallel::Chunk>> shared_chunks{};
  StagePlacement placement{};

  void place(ScatterGather<ApPolicy>& sg);
  void start(const std::shared_ptr<ApLegSlot>& slot, std::size_t index,
             simnet::Mailbox<std::size_t>& reports) {
    sys.ap_leg(q, slot, index, reports);
  }
  void recover(ScatterGather<ApPolicy>& sg, ApLegSlot& s, bool crashed);
  std::optional<Merge> on_reply(const ApLegSlot&) { return std::nullopt; }
  [[nodiscard]] bool hedging() const { return sys.config_.tail.hedge; }
  [[nodiscard]] bool hedgeable(const ApLegSlot& s) const {
    return shared_queue ? shared_chunks->empty() && s.has_in_flight
                        : !s.units.empty();
  }
  /// RECV legs carry done paragraphs plus the in-flight chunk; a SEND/ISEND
  /// partition is fixed, so its size alone is the load.
  [[nodiscard]] double hedge_units(const ApLegSlot& s) const {
    return static_cast<double>(
        shared_queue ? s.done + (s.has_in_flight ? s.in_flight.size() : 0)
                     : s.units.size());
  }
  bool hedge(ScatterGather<ApPolicy>& sg, std::size_t index);
  void release(ScatterGather<ApPolicy>& sg, ApLegSlot& s,
               const HedgeGroup& group);
  std::shared_ptr<ApLegSlot> drainer() { return make_slot({}, shared_chunks); }
  [[nodiscard]] sched::NodeId coordinator() const { return q.host; }
  [[nodiscard]] bool coordinator_down() const { return sys.host_lost(q); }
  [[nodiscard]] bool aborted() const { return false; }
  [[nodiscard]] const char* stage() const { return "AP"; }
  [[nodiscard]] const char* peer_kind() const { return ""; }
  void orphan(ApLegSlot&) {}
  void note_unreachable() {}
  static std::shared_ptr<ApLegSlot> make_slot(
      Block units,
      std::shared_ptr<std::deque<parallel::Chunk>> chunks = nullptr);
  /// The stage's SEND or ISEND split of `count` paragraphs.
  [[nodiscard]] std::vector<parallel::Partition> partition(
      std::size_t count, const std::vector<double>& weights) const;
};

/// The broker tier: the host slices the selected PR units by shard group
/// and supervises one broker leg per group. A lost broker's whole slice is
/// re-routed through an acting broker in the same group (finished units
/// are redone — the aggregate never shipped), or dropped as degraded when
/// the group has no usable delegate or the deadline is spent. No hedging
/// at this level: the brokers re-run straggling workers in-subtree.
struct System::BrokerPolicy {
  using Slot = BrokerSlot;
  static constexpr sched::LegStage kStage = sched::LegStage::kPr;

  System& sys;
  QuestionState& q;

  void place(ScatterGather<BrokerPolicy>& sg,
             std::span<const std::size_t> units);
  void start(const std::shared_ptr<BrokerSlot>& slot, std::size_t index,
             simnet::Mailbox<std::size_t>& reports) {
    sys.ins_.broker_legs->inc();
    sys.broker_leg(q, slot, index, reports);
  }
  void recover(ScatterGather<BrokerPolicy>& sg, BrokerSlot& s, bool crashed);
  std::optional<Merge> on_reply(const BrokerSlot& s);
  [[nodiscard]] bool hedging() const { return false; }
  [[nodiscard]] bool hedgeable(const BrokerSlot&) const { return false; }
  [[nodiscard]] double hedge_units(const BrokerSlot&) const { return 0.0; }
  bool hedge(ScatterGather<BrokerPolicy>&, std::size_t) { return false; }
  void release(ScatterGather<BrokerPolicy>&, BrokerSlot&, const HedgeGroup&) {}
  std::shared_ptr<BrokerSlot> drainer() { return nullptr; }
  [[nodiscard]] sched::NodeId coordinator() const { return q.host; }
  [[nodiscard]] bool coordinator_down() const { return sys.host_lost(q); }
  [[nodiscard]] bool aborted() const { return false; }
  [[nodiscard]] const char* stage() const { return "PR"; }
  [[nodiscard]] const char* peer_kind() const { return "broker "; }
  /// A dead broker's workers are orphaned: abandon them and close their
  /// spans, since neither the dead broker nor anyone else will.
  void orphan(BrokerSlot& s);
  void note_unreachable() { sys.ins_.broker_unreachable->inc(); }

 private:
  void route(ScatterGather<BrokerPolicy>& sg, sched::NodeId broker,
             std::size_t group, std::vector<std::size_t> units);
  /// The designated broker when schedulable, else the least-loaded live
  /// member of the group (never `exclude`).
  [[nodiscard]] std::optional<sched::NodeId> acting_broker(
      std::size_t group, std::optional<sched::NodeId> exclude) const;
};

}  // namespace qadist::cluster
