#include "sched/failure_detector.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qadist::sched {

const char* to_string(PeerState state) {
  switch (state) {
    case PeerState::kAlive:
      return "alive";
    case PeerState::kSuspect:
      return "suspect";
    case PeerState::kDead:
      return "dead";
  }
  QADIST_UNREACHABLE("bad PeerState");
}

FailureDetector::FailureDetector(FailureDetectorConfig config)
    : config_(config) {
  QADIST_CHECK(config_.heartbeat_period > 0.0);
  QADIST_CHECK(config_.suspect_after_missed > 0.0);
  QADIST_CHECK(config_.confirm_dead_after > 0.0);
}

FailureDetector::Peer& FailureDetector::peer(NodeId node) {
  if (node >= peers_.size()) peers_.resize(node + 1);
  return peers_[node];
}

PeerState FailureDetector::heartbeat(NodeId node, Seconds now) {
  Peer& p = peer(node);
  const PeerState before = p.known ? p.state : PeerState::kAlive;
  if (p.known) {
    if (p.state == PeerState::kSuspect) ++suspicions_cleared_;
    if (p.state == PeerState::kDead) ++rejoins_;
  }
  p.known = true;
  p.state = PeerState::kAlive;
  p.last_heard = now;
  alive_floor_ = std::min(alive_floor_, now);
  return before;
}

void FailureDetector::suspect_hint(NodeId node, Seconds now) {
  Peer& p = peer(node);
  if (!p.known) {
    // Enroll so the suspicion can later harden into a confirmed death.
    p.known = true;
    p.last_heard = now;
  }
  if (p.state == PeerState::kAlive) {
    p.state = PeerState::kSuspect;
    ++suspicions_raised_;
    suspect_floor_ = std::min(suspect_floor_, p.last_heard);
  }
}

std::vector<DetectorTransition> FailureDetector::sweep(Seconds now) {
  std::vector<DetectorTransition> fired;
  const Seconds suspect_after =
      config_.suspect_after_missed * config_.heartbeat_period;
  // Every alive (suspect) peer was last heard no earlier than the alive
  // (suspect) floor, and subtraction is monotone: unless a floor's silence
  // passes its threshold, no peer's does, and a scan would fire nothing.
  if (!(now - alive_floor_ > suspect_after) &&
      !(now - suspect_floor_ > config_.confirm_dead_after)) {
    return fired;
  }
  alive_floor_ = std::numeric_limits<Seconds>::infinity();
  suspect_floor_ = std::numeric_limits<Seconds>::infinity();
  for (NodeId id = 0; id < peers_.size(); ++id) {
    Peer& p = peers_[id];
    if (!p.known || p.state == PeerState::kDead) continue;
    const Seconds silence = now - p.last_heard;
    if (p.state == PeerState::kAlive && silence > suspect_after) {
      p.state = PeerState::kSuspect;
      ++suspicions_raised_;
      fired.push_back({id, PeerState::kAlive, PeerState::kSuspect});
    }
    if (p.state == PeerState::kSuspect && silence > config_.confirm_dead_after) {
      p.state = PeerState::kDead;
      ++deaths_confirmed_;
      fired.push_back({id, PeerState::kSuspect, PeerState::kDead});
    }
    if (p.state == PeerState::kAlive) {
      alive_floor_ = std::min(alive_floor_, p.last_heard);
    } else if (p.state == PeerState::kSuspect) {
      suspect_floor_ = std::min(suspect_floor_, p.last_heard);
    }
  }
  return fired;
}

PeerState FailureDetector::state(NodeId node) const {
  if (node >= peers_.size() || !peers_[node].known) return PeerState::kAlive;
  return peers_[node].state;
}

bool FailureDetector::known(NodeId node) const {
  return node < peers_.size() && peers_[node].known;
}

}  // namespace qadist::sched
