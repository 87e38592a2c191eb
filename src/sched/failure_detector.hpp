#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.hpp"
#include "sched/load.hpp"

namespace qadist::sched {

/// Detector view of a peer. A peer is kAlive while its heartbeats arrive on
/// schedule, kSuspect after missing a few beats (work is steered away but
/// the peer is not written off), and kDead once silence exceeds the
/// confirmation timeout. A heartbeat from any state returns the peer to
/// kAlive — a rejoin, when it comes from kDead.
enum class PeerState : std::uint8_t { kAlive, kSuspect, kDead };

[[nodiscard]] const char* to_string(PeerState state);

struct FailureDetectorConfig {
  /// Expected heartbeat (load-broadcast) interval.
  Seconds heartbeat_period = 1.0;
  /// Beats of silence before a peer becomes kSuspect.
  double suspect_after_missed = 2.0;
  /// Silence before kSuspect hardens into kDead. Should exceed
  /// suspect_after_missed * heartbeat_period.
  Seconds confirm_dead_after = 3.0;
};

/// One observed lifecycle transition, as reported by sweep().
struct DetectorTransition {
  NodeId node = 0;
  PeerState from = PeerState::kAlive;
  PeerState to = PeerState::kAlive;
};

/// Heartbeat-based failure detector (missed-beat suspicion): the load
/// monitor's periodic broadcasts double as heartbeats, so no extra network
/// traffic is needed. Unlike the pure membership timeout it replaces, the
/// detector has an intermediate suspicion level that placement can react to
/// *before* the peer is declared dead, and it distinguishes a false alarm
/// (suspicion cleared by a late beat) from a confirmed death.
///
/// Tracks only peers it has heard at least one heartbeat from; unknown
/// peers read as kAlive (innocent until enrolled).
class FailureDetector {
 public:
  FailureDetector() = default;
  explicit FailureDetector(FailureDetectorConfig config);

  /// Records a heartbeat from `node` at `now`; returns the state the peer
  /// was in before the beat (kDead means this beat is a rejoin).
  PeerState heartbeat(NodeId node, Seconds now);

  /// Direct evidence of trouble (an RPC to `node` exhausted its retries):
  /// immediately raises an alive peer to kSuspect without waiting for the
  /// missed-beat threshold. Every hint counts, even right after a beat
  /// cleared the last one: damping hints (a hysteresis window) measured
  /// strictly worse on the pinned adversarial scenarios' p99.
  void suspect_hint(NodeId node, Seconds now);

  /// Applies silence-based transitions as of `now` and returns those that
  /// fired. Safe to call from many monitors per period — transitions are
  /// edge-triggered, so repeated sweeps at the same instant report nothing
  /// new.
  std::vector<DetectorTransition> sweep(Seconds now);

  [[nodiscard]] PeerState state(NodeId node) const;
  [[nodiscard]] bool known(NodeId node) const;

  // Lifecycle tallies (suspicions cleared = false alarms).
  [[nodiscard]] std::uint64_t suspicions_raised() const {
    return suspicions_raised_;
  }
  [[nodiscard]] std::uint64_t suspicions_cleared() const {
    return suspicions_cleared_;
  }
  [[nodiscard]] std::uint64_t deaths_confirmed() const {
    return deaths_confirmed_;
  }
  [[nodiscard]] std::uint64_t rejoins() const { return rejoins_; }

 private:
  struct Peer {
    bool known = false;
    PeerState state = PeerState::kAlive;
    Seconds last_heard = 0.0;
  };

  Peer& peer(NodeId node);

  FailureDetectorConfig config_;
  std::vector<Peer> peers_;  // indexed by NodeId
  // Lower bounds on last_heard over the kAlive and over the kSuspect peers
  // (+inf while there are none). sweep() scans only when one of them has
  // crossed its threshold, and a scan makes both exact again.
  Seconds alive_floor_ = std::numeric_limits<Seconds>::infinity();
  Seconds suspect_floor_ = std::numeric_limits<Seconds>::infinity();
  std::uint64_t suspicions_raised_ = 0;
  std::uint64_t suspicions_cleared_ = 0;
  std::uint64_t deaths_confirmed_ = 0;
  std::uint64_t rejoins_ = 0;
};

}  // namespace qadist::sched
