// The load table keeps one liveness clock: the failure detector it owns.
// Its pool must read exactly as the two-clock design it replaced — a load
// table with its own last-heard timeout, kept in step with a separate
// detector by the monitor loop — and the detector's sweep, which skips its
// O(N) scan unless some peer can have crossed a threshold, must fire what
// an unconditional scan fires. These tests replay a randomized monitor
// workload against that pair, driven as the monitors drove it, and
// require the same pool, placement picks, transitions and tallies at every
// monitor tick.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sched/failure_detector.hpp"
#include "sched/load_table.hpp"
#include "sched/meta_scheduler.hpp"

namespace qadist::sched {
namespace {

// The detector with an unconditional per-sweep scan.
class ScanDetector {
 public:
  explicit ScanDetector(FailureDetectorConfig config) : config_(config) {}

  PeerState heartbeat(NodeId node, Seconds now) {
    Peer& p = peer(node);
    const PeerState before = p.known ? p.state : PeerState::kAlive;
    if (p.known && p.state == PeerState::kSuspect) ++cleared;
    if (p.known && p.state == PeerState::kDead) ++rejoins;
    p.known = true;
    p.state = PeerState::kAlive;
    p.last_heard = now;
    return before;
  }

  void suspect_hint(NodeId node, Seconds now) {
    Peer& p = peer(node);
    if (!p.known) {
      p.known = true;
      p.last_heard = now;
    }
    if (p.state == PeerState::kAlive) {
      p.state = PeerState::kSuspect;
      ++raised;
    }
  }

  std::vector<DetectorTransition> sweep(Seconds now) {
    std::vector<DetectorTransition> fired;
    const Seconds suspect_after =
        config_.suspect_after_missed * config_.heartbeat_period;
    for (NodeId id = 0; id < peers_.size(); ++id) {
      Peer& p = peers_[id];
      if (!p.known || p.state == PeerState::kDead) continue;
      const Seconds silence = now - p.last_heard;
      if (p.state == PeerState::kAlive && silence > suspect_after) {
        p.state = PeerState::kSuspect;
        ++raised;
        fired.push_back({id, PeerState::kAlive, PeerState::kSuspect});
      }
      if (p.state == PeerState::kSuspect &&
          silence > config_.confirm_dead_after) {
        p.state = PeerState::kDead;
        ++deaths;
        fired.push_back({id, PeerState::kSuspect, PeerState::kDead});
      }
    }
    return fired;
  }

  [[nodiscard]] PeerState state(NodeId node) const {
    if (node >= peers_.size() || !peers_[node].known) return PeerState::kAlive;
    return peers_[node].state;
  }
  [[nodiscard]] bool known(NodeId node) const {
    return node < peers_.size() && peers_[node].known;
  }

  std::uint64_t raised = 0;
  std::uint64_t cleared = 0;
  std::uint64_t deaths = 0;
  std::uint64_t rejoins = 0;

 private:
  struct Peer {
    bool known = false;
    PeerState state = PeerState::kAlive;
    Seconds last_heard = 0.0;
  };
  Peer& peer(NodeId node) {
    if (node >= peers_.size()) peers_.resize(node + 1);
    return peers_[node];
  }

  FailureDetectorConfig config_;
  std::vector<Peer> peers_;
};

// A load table with a liveness clock of its own: members expire once their
// last broadcast is older than the timeout, and the monitor loop copies the
// detector's verdicts in with mark_stale/remove. Expiry scans every entry.
class ClockedTable {
 public:
  void update(NodeId node, const ResourceLoad& load, Seconds now,
              double reservation_keep) {
    if (node >= entries_.size()) entries_.resize(node + 1);
    Entry& e = entries_[node];
    e.alive = true;
    e.stale = false;
    e.broadcast = load;
    e.reserved.cpu *= reservation_keep;
    e.reserved.disk *= reservation_keep;
    e.last_update = now;
  }
  void reserve(NodeId node, const ResourceLoad& delta) {
    entries_[node].reserved.cpu += delta.cpu;
    entries_[node].reserved.disk += delta.disk;
  }
  void expire(Seconds now, Seconds timeout) {
    for (auto& e : entries_) {
      if (e.alive && now - e.last_update > timeout) e.alive = false;
    }
  }
  void remove(NodeId node) {
    if (node < entries_.size()) entries_[node].alive = false;
  }
  void mark_stale(NodeId node, bool stale = true) {
    if (is_member(node)) entries_[node].stale = stale;
  }
  [[nodiscard]] bool is_member(NodeId node) const {
    return node < entries_.size() && entries_[node].alive;
  }
  [[nodiscard]] bool is_stale(NodeId node) const {
    return is_member(node) && entries_[node].stale;
  }
  [[nodiscard]] std::vector<NodeId> members() const {
    std::vector<NodeId> out;
    for (NodeId id = 0; id < entries_.size(); ++id) {
      if (entries_[id].alive) out.push_back(id);
    }
    return out;
  }
  [[nodiscard]] ResourceLoad load_of(NodeId node) const {
    const Entry& e = entries_[node];
    return ResourceLoad{e.broadcast.cpu + e.reserved.cpu,
                        e.broadcast.disk + e.reserved.disk};
  }
  [[nodiscard]] std::optional<NodeId> least_loaded(
      const LoadWeights& weights) const {
    for (const bool allow_stale : {false, true}) {
      std::optional<NodeId> best;
      double best_load = 0.0;
      for (const NodeId id : members()) {
        if (entries_[id].stale && !allow_stale) continue;
        const double l = load_function(load_of(id), weights);
        if (!best || l < best_load) {
          best = id;
          best_load = l;
        }
      }
      if (best) return best;
    }
    return std::nullopt;
  }
  // The same members, effective loads and stale flags as a LoadTable, for
  // the placement functions (meta_schedule, pick_delegate) that read one.
  [[nodiscard]] LoadTable snapshot() const {
    LoadTable out;
    for (const NodeId id : members()) {
      out.update(id, load_of(id), 0.0);
      if (is_stale(id)) out.suspect_hint(id, 0.0);
    }
    return out;
  }

 private:
  struct Entry {
    bool alive = false;
    bool stale = false;
    ResourceLoad broadcast;
    ResourceLoad reserved;
    Seconds last_update = 0.0;
  };
  std::vector<Entry> entries_;
};

// The two clocks, driven as the monitor loop drove them.
struct TwoClocks {
  explicit TwoClocks(FailureDetectorConfig config)
      : detector(config), timeout(config.confirm_dead_after) {}

  PeerState broadcast(NodeId node, const ResourceLoad& load, Seconds now,
                      double keep) {
    const PeerState before = detector.heartbeat(node, now);
    table.update(node, load, now, keep);
    return before;
  }
  void suspect_hint(NodeId node, Seconds now) {
    detector.suspect_hint(node, now);
    table.mark_stale(node);
  }
  std::vector<DetectorTransition> tick(Seconds now) {
    const std::size_t before = table.members().size();
    table.expire(now, timeout);
    expiries += before - table.members().size();
    auto fired = detector.sweep(now);
    for (const DetectorTransition& t : fired) {
      table.mark_stale(t.node, t.to == PeerState::kSuspect);
      if (t.to == PeerState::kDead) table.remove(t.node);
    }
    return fired;
  }

  ScanDetector detector;
  ClockedTable table;
  Seconds timeout;
  std::size_t expiries = 0;  // members the table's own clock timed out
};

void expect_same_transitions(const std::vector<DetectorTransition>& got,
                             const std::vector<DetectorTransition>& want,
                             Seconds now) {
  ASSERT_EQ(got.size(), want.size()) << "sweep at t=" << now;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "sweep at t=" << now;
    EXPECT_EQ(got[i].from, want[i].from) << "sweep at t=" << now;
    EXPECT_EQ(got[i].to, want[i].to) << "sweep at t=" << now;
  }
}

void expect_same_schedule(const MetaSchedule& got, const MetaSchedule& want,
                          Seconds now) {
  EXPECT_EQ(got.selected, want.selected) << "t=" << now;
  EXPECT_EQ(got.weights, want.weights) << "t=" << now;
  EXPECT_EQ(got.partitioned, want.partitioned) << "t=" << now;
}

// Everything placement reads from the pool, compared after a monitor tick.
void expect_same_pool(const LoadTable& table, const TwoClocks& ref,
                      NodeId peers, Seconds now) {
  const auto members = ref.table.members();
  ASSERT_EQ(table.members(), members) << "t=" << now;
  for (NodeId p = 0; p < peers; ++p) {
    ASSERT_EQ(table.is_stale(p), ref.table.is_stale(p))
        << "node " << p << " at t=" << now;
  }
  for (const NodeId m : members) {
    EXPECT_EQ(table.load_of(m), ref.table.load_of(m))
        << "node " << m << " at t=" << now;
  }
  for (const LoadWeights& w : {kQaWeights, kPrWeights, kApWeights}) {
    EXPECT_EQ(table.least_loaded(w), ref.table.least_loaded(w))
        << "t=" << now;
  }
  const LoadTable snapshot = ref.table.snapshot();
  const std::pair<NodeId, NodeId> ranges[] = {{0, 4}, {4, 8}, {8, peers}};
  for (const auto& [first, last] : ranges) {
    EXPECT_EQ(pick_delegate(table, first, last, kPrWeights),
              pick_delegate(snapshot, first, last, kPrWeights))
        << "t=" << now;
  }
  if (members.empty()) return;
  expect_same_schedule(meta_schedule(table, kPrWeights, 1.68),
                       meta_schedule(snapshot, kPrWeights, 1.68), now);
  expect_same_schedule(meta_schedule(table, kApWeights, 2.0),
                       meta_schedule(snapshot, kApWeights, 2.0), now);
  const std::vector<NodeId> odd{1, 3, 5, 7, 9, 11};
  expect_same_schedule(meta_schedule_among(table, odd, kQaWeights, 1.5),
                       meta_schedule_among(snapshot, odd, kQaWeights, 1.5),
                       now);
}

struct Tally {
  std::size_t transitions = 0;
  std::size_t expiries = 0;
};

// Peers broadcast random loads about once a period, lose a `beat_loss`
// share of broadcasts, and start outages at `outage_rate` per beat;
// several monitors tick the shared pool, each at its own phase, while
// reservations, hints (also for never-enrolled peers) and reply-timeout
// removals arrive at random. The one-clock table and the two-clock pair
// see the same events; every monitor tick and every step compares the
// pool, the detector states and the tallies.
void replay_monitor_workload(std::uint64_t seed, double beat_loss,
                             double outage_rate, Tally& tally) {
  constexpr NodeId kPeers = 12;
  constexpr int kMonitors = 5;
  const FailureDetectorConfig config{1.0, 2.0, 3.0};
  LoadTable table(config);
  TwoClocks ref(config);

  Rng rng(seed);
  std::vector<Seconds> next_beat(kPeers);
  std::vector<Seconds> down_until(kPeers, -1.0);
  std::vector<Seconds> next_tick(kMonitors);
  for (auto& t : next_beat) t = rng.uniform(0.0, 1.0);
  for (auto& t : next_tick) t = rng.uniform(0.0, 1.0);

  Seconds now = 0.0;
  while (now < 600.0) {
    now += 0.05 * static_cast<double>(rng.below(4));
    for (NodeId p = 0; p < kPeers; ++p) {
      if (next_beat[p] > now) continue;
      if (now >= down_until[p] && !rng.bernoulli(beat_loss)) {
        const ResourceLoad load{rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
        const double keep = rng.bernoulli(0.5) ? 0.0 : rng.uniform01();
        ASSERT_EQ(table.update(p, load, now, keep),
                  ref.broadcast(p, load, now, keep))
            << "t=" << now;
      }
      if (rng.bernoulli(outage_rate)) {
        down_until[p] = now + rng.uniform(1.0, 8.0);
      }
      next_beat[p] = now + 1.0 + 0.1 * rng.uniform01();
    }
    if (rng.bernoulli(0.2)) {
      const auto node = static_cast<NodeId>(rng.below(kPeers));
      if (ref.table.is_member(node)) {
        const ResourceLoad delta{kQaWeights.cpu, kQaWeights.disk};
        table.reserve(node, delta);
        ref.table.reserve(node, delta);
      }
    }
    if (rng.bernoulli(0.03)) {
      const auto node = static_cast<NodeId>(rng.below(kPeers + 4));
      table.suspect_hint(node, now);
      ref.suspect_hint(node, now);
    }
    if (rng.bernoulli(0.02)) {
      const auto node = static_cast<NodeId>(rng.below(kPeers));
      table.remove(node);
      ref.table.remove(node);
    }
    for (auto& tick : next_tick) {
      if (tick > now) continue;
      const auto want = ref.tick(now);
      expect_same_transitions(table.sweep(now), want, now);
      tally.transitions += want.size();
      expect_same_pool(table, ref, kPeers + 4, now);
      if (::testing::Test::HasFatalFailure()) return;
      tick = now + 1.0;
    }
    // Broadcasts, hints and removals keep the pools equal between ticks.
    expect_same_pool(table, ref, kPeers + 4, now);
    if (::testing::Test::HasFatalFailure()) return;
    const FailureDetector& detector = table.detector();
    for (NodeId p = 0; p < kPeers + 4; ++p) {
      ASSERT_EQ(detector.state(p), ref.detector.state(p)) << "t=" << now;
      ASSERT_EQ(detector.known(p), ref.detector.known(p)) << "t=" << now;
    }
    ASSERT_EQ(detector.suspicions_raised(), ref.detector.raised);
    ASSERT_EQ(detector.suspicions_cleared(), ref.detector.cleared);
    ASSERT_EQ(detector.deaths_confirmed(), ref.detector.deaths);
    ASSERT_EQ(detector.rejoins(), ref.detector.rejoins);
  }
  tally.expiries = ref.expiries;
}

TEST(ScanGatingTest, OneClockMatchesTheTwoClockPair) {
  // Lost beats and outages: silent alive peers and aging members trigger
  // most scans, and members time out.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Tally tally;
    replay_monitor_workload(seed, 0.08, 0.01, tally);
    EXPECT_GT(tally.transitions, 50u);
    EXPECT_GT(tally.expiries, 10u);
  }
}

TEST(ScanGatingTest, HintsAloneTriggerTheScansThatConfirmDeaths) {
  // No beat is lost, so the alive floor never crosses its threshold: only
  // a hinted peer that stays silent (a never-enrolled one) can, through
  // the suspect floor.
  for (const std::uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE(seed);
    Tally tally;
    replay_monitor_workload(seed, 0.0, 0.0, tally);
    EXPECT_GT(tally.transitions, 0u);
    EXPECT_EQ(tally.expiries, 0u);
  }
}

}  // namespace
}  // namespace qadist::sched
