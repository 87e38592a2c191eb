// FailureDetector::sweep and LoadTable::expire skip their O(N) scan unless
// some peer can have crossed a threshold. The skip must be exact: these
// tests replay a randomized monitor workload against unconditional scans
// and require the same transitions, states and memberships at every
// step.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sched/failure_detector.hpp"
#include "sched/load_table.hpp"

namespace qadist::sched {
namespace {

// The detector with an unconditional per-sweep scan: the oracle.
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

// Membership with an unconditional per-expiry scan: the oracle.
class ScanMembership {
 public:
  void update(NodeId node, Seconds now) {
    if (node >= entries_.size()) entries_.resize(node + 1);
    entries_[node] = {true, now};
  }
  void remove(NodeId node) {
    if (node < entries_.size()) entries_[node].alive = false;
  }
  void expire(Seconds now, Seconds timeout) {
    for (auto& e : entries_) {
      if (e.alive && now - e.last_update > timeout) e.alive = false;
    }
  }
  [[nodiscard]] std::vector<NodeId> members() const {
    std::vector<NodeId> out;
    for (NodeId id = 0; id < entries_.size(); ++id) {
      if (entries_[id].alive) out.push_back(id);
    }
    return out;
  }

 private:
  struct Entry {
    bool alive = false;
    Seconds last_update = 0.0;
  };
  std::vector<Entry> entries_;
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

struct Tally {
  std::size_t transitions = 0;
  std::size_t expiries = 0;
};

// Peers beat about once a period, lose a `beat_loss` share of beats, and
// start outages at `outage_rate` per beat; several monitors sweep the
// shared detector and expire the shared table, each at its own phase,
// while hints (also for never-enrolled peers) and removals arrive at
// random. Every step compares the gated structures with the oracles.
void replay_monitor_workload(std::uint64_t seed, double beat_loss,
                             double outage_rate, Tally& tally) {
  constexpr NodeId kPeers = 12;
  constexpr int kMonitors = 5;
  constexpr Seconds kTimeout = 3.0;
  const FailureDetectorConfig config{1.0, 2.0, 3.0};
  FailureDetector detector(config);
  ScanDetector scan_detector(config);
  LoadTable table;
  ScanMembership scan_table;

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
        ASSERT_EQ(detector.heartbeat(p, now), scan_detector.heartbeat(p, now));
        table.update(p, ResourceLoad{}, now);
        scan_table.update(p, now);
      }
      if (rng.bernoulli(outage_rate)) {
        down_until[p] = now + rng.uniform(1.0, 8.0);
      }
      next_beat[p] = now + 1.0 + 0.1 * rng.uniform01();
    }
    if (rng.bernoulli(0.03)) {
      const auto node = static_cast<NodeId>(rng.below(kPeers + 4));
      detector.suspect_hint(node, now);
      scan_detector.suspect_hint(node, now);
    }
    if (rng.bernoulli(0.02)) {
      const auto node = static_cast<NodeId>(rng.below(kPeers));
      table.remove(node);
      scan_table.remove(node);
    }
    for (auto& tick : next_tick) {
      if (tick > now) continue;
      const std::size_t before = scan_table.members().size();
      table.expire(now, kTimeout);
      scan_table.expire(now, kTimeout);
      ASSERT_EQ(table.members(), scan_table.members()) << "t=" << now;
      tally.expiries += before - scan_table.members().size();
      const auto want = scan_detector.sweep(now);
      expect_same_transitions(detector.sweep(now), want, now);
      tally.transitions += want.size();
      tick = now + 1.0;
    }
    for (NodeId p = 0; p < kPeers + 4; ++p) {
      ASSERT_EQ(detector.state(p), scan_detector.state(p)) << "t=" << now;
      ASSERT_EQ(detector.known(p), scan_detector.known(p)) << "t=" << now;
    }
  }
  EXPECT_EQ(detector.suspicions_raised(), scan_detector.raised);
  EXPECT_EQ(detector.suspicions_cleared(), scan_detector.cleared);
  EXPECT_EQ(detector.deaths_confirmed(), scan_detector.deaths);
  EXPECT_EQ(detector.rejoins(), scan_detector.rejoins);
}

TEST(ScanGatingTest, DetectorAndTableMatchTheUnconditionalScans) {
  // Lost beats and outages: silent alive peers and aging members trigger
  // most scans.
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
