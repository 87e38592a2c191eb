#pragma once

#include <optional>
#include <vector>

#include "common/units.hpp"
#include "sched/failure_detector.hpp"
#include "sched/load.hpp"

namespace qadist::sched {

/// The cluster-load view every node maintains from the load monitors'
/// periodic broadcasts (paper Sec. 3.1): per-node resource loads and
/// broadcast-driven membership — a node starts (re)existing the moment it
/// broadcasts, and leaves the pool when its silence gets it confirmed dead.
///
/// The broadcasts double as heartbeats, and the table owns the one failure
/// detector they feed: its verdicts are the table's only liveness clock. A
/// member the detector suspects is *stale* — it stays in the pool, but its
/// load figure is no longer trusted.
///
/// Dispatch decisions read this table; to keep a burst of arrivals from
/// herding onto the same momentarily-idle node before the next broadcast,
/// dispatchers may `reserve()` the expected load of work they just placed.
/// Reservations on a node are cleared by its next broadcast (which then
/// reflects the real load).
class LoadTable {
 public:
  LoadTable() = default;
  explicit LoadTable(FailureDetectorConfig detector);

  /// Ingests a broadcast from `node` at time `now`: the node's heartbeat
  /// and its load. Returns the state the detector had the node in before
  /// the broadcast (kDead means the broadcast is a rejoin).
  ///
  /// `reservation_keep` in [0,1] scales the node's outstanding
  /// reservations: 0 drops them (an instantaneous-load broadcast already
  /// reflects recently placed work), while a damped-average broadcast only
  /// absorbs a fraction alpha of new load per period, so the caller keeps
  /// the complementary (1 - alpha) reserved to avoid herding arrivals onto
  /// a node whose broadcast lags its true backlog.
  PeerState update(NodeId node, const ResourceLoad& load, Seconds now,
                   double reservation_keep = 0.0);

  /// Adds a provisional load delta on top of the last broadcast value.
  void reserve(NodeId node, const ResourceLoad& delta);

  /// Direct evidence of trouble (an RPC to `node` exhausted its retries):
  /// the detector suspects the node at once, so a member's entry goes
  /// stale until its next broadcast. See FailureDetector::suspect_hint.
  void suspect_hint(NodeId node, Seconds now);

  /// One monitor tick: applies the detector's silence-based transitions as
  /// of `now`, drops every node confirmed dead from the pool, and returns
  /// the transitions that fired. Safe to call from many monitors per
  /// period.
  std::vector<DetectorTransition> sweep(Seconds now);

  /// Drops one node immediately — a coordinator whose reply timeout fired
  /// on a dead worker declares it out of the pool without waiting for the
  /// detector. Not a detector verdict: the detector's states and tallies
  /// are untouched. No-op on non-members; the node re-enters the pool with
  /// its next broadcast.
  void remove(NodeId node);

  /// True if `node` is a member the detector suspects: it stays in the
  /// pool (its broadcasts may simply be getting lost), but least_loaded()
  /// passes it over while any fresh member exists.
  [[nodiscard]] bool is_stale(NodeId node) const;

  /// Current members, ascending id.
  [[nodiscard]] std::vector<NodeId> members() const;

  [[nodiscard]] bool is_member(NodeId node) const;

  /// Effective load (last broadcast + reservations). Node must be a member.
  [[nodiscard]] ResourceLoad load_of(NodeId node) const;

  /// The member minimizing load_function(load, weights); nullopt if the
  /// table is empty. Ties break on the lower node id (deterministic).
  /// Stale entries are only considered when no fresh member exists (a
  /// suspect node beats no node at all).
  [[nodiscard]] std::optional<NodeId> least_loaded(
      const LoadWeights& weights) const;

  [[nodiscard]] std::size_t size() const;

  /// The detector behind the pool: peer states and lifecycle tallies.
  [[nodiscard]] const FailureDetector& detector() const { return detector_; }

 private:
  struct Entry {
    bool alive = false;
    ResourceLoad broadcast;
    ResourceLoad reserved;
  };

  std::vector<Entry> entries_;  // indexed by NodeId
  FailureDetector detector_;

  Entry& entry(NodeId node);
  [[nodiscard]] const Entry* find(NodeId node) const;
};

/// Mean of load_function over the current pool members — the cluster-wide
/// pressure signal admission control sheds on (a single hot node should
/// not trip cluster-level shedding; a saturated pool should). 0 when the
/// table is empty.
[[nodiscard]] double mean_pool_load(const LoadTable& table,
                                    const LoadWeights& weights);

}  // namespace qadist::sched
