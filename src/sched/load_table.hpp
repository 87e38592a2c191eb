#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "sched/load.hpp"

namespace qadist::sched {

/// The cluster-load view every node maintains from the load monitors'
/// periodic broadcasts (paper Sec. 3.1): per-node resource loads, refresh
/// timestamps, and broadcast-driven membership — a node silent for longer
/// than the timeout is dropped from the pool; a node starts (re)existing
/// the moment it broadcasts.
///
/// Dispatch decisions read this table; to keep a burst of arrivals from
/// herding onto the same momentarily-idle node before the next broadcast,
/// dispatchers may `reserve()` the expected load of work they just placed.
/// Reservations on a node are cleared by its next broadcast (which then
/// reflects the real load).
class LoadTable {
 public:
  /// Ingests a broadcast from `node` at time `now`.
  ///
  /// `reservation_keep` in [0,1] scales the node's outstanding
  /// reservations: 0 drops them (an instantaneous-load broadcast already
  /// reflects recently placed work), while a damped-average broadcast only
  /// absorbs a fraction alpha of new load per period, so the caller keeps
  /// the complementary (1 - alpha) reserved to avoid herding arrivals onto
  /// a node whose broadcast lags its true backlog.
  void update(NodeId node, const ResourceLoad& load, Seconds now,
              double reservation_keep = 0.0);

  /// Adds a provisional load delta on top of the last broadcast value.
  void reserve(NodeId node, const ResourceLoad& delta);

  /// Drops nodes whose last broadcast is older than `timeout`.
  void expire(Seconds now, Seconds timeout);

  /// Drops one node immediately — a coordinator whose reply timeout fired
  /// on a dead worker declares it out of the pool without waiting for its
  /// broadcast to age past the membership timeout. No-op on non-members;
  /// the node re-enters the pool with its next broadcast.
  void remove(NodeId node);

  /// Flags a member's entry as stale: the node stays in the pool (its
  /// broadcasts may simply be getting lost), but its load figure is no
  /// longer trusted, so least_loaded() passes it over while any fresh
  /// entry exists. Cleared by the node's next broadcast or by
  /// mark_stale(node, false). No-op on non-members.
  void mark_stale(NodeId node, bool stale = true);

  /// True if `node` is a member whose entry is flagged stale.
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

 private:
  struct Entry {
    bool alive = false;
    bool stale = false;
    ResourceLoad broadcast;
    ResourceLoad reserved;
    Seconds last_update = 0.0;
  };

  std::vector<Entry> entries_;  // indexed by NodeId
  // Lower bound on last_update over the members (+inf while there are
  // none): expire() scans only once it is older than the timeout.
  Seconds update_floor_ = std::numeric_limits<Seconds>::infinity();

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
