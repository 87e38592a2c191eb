#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace qadist::shard {

/// Pacing floor for background re-replication after a holder crashes:
/// copying one shard takes at least kShardBytes / kRebuildBandwidth on top
/// of the contended disk/network transfers it pays.
inline constexpr Bandwidth kRebuildBandwidth =
    Bandwidth::from_megabytes_per_second(20.0);
/// Simulated on-disk size of one shard replica (storage accounting and
/// re-replication cost). The synthetic corpus is tiny; this models the
/// TREC-scale artifact each replica would pin.
inline constexpr Bytes kShardBytes = 64_MB;
/// Host CPU charged per gathered PR leg in sharded mode: merging one
/// shard's scored paragraphs into the stream feeding Paragraph Scoring.
inline constexpr Seconds kPartialMergeCpu = 5e-3;

/// Corpus-sharding and index-replication plan. The paper replicates the
/// full TREC collection on every node's disk, so PR can run anywhere —
/// fine for 12 nodes, fatal once the collection outgrows a single disk.
/// With sharding enabled, the collection's sub-collections are grouped
/// into `num_shards` document-partitioned index shards, each stored on
/// `replication` nodes chosen by rendezvous hashing, and PR becomes a
/// scatter-gather over the shards' replica holders.
///
/// `num_shards == 0` (the default) disables the subsystem entirely: no
/// shard map is built and every run is bit-identical to the pre-shard
/// system. `replication == 0` (or >= nodes) means full replication —
/// every node holds every shard, placement is unconstrained, and the
/// event sequence matches the paper's full-replication behaviour exactly;
/// only the per-node storage accounting is added.
struct ShardConfig {
  /// Index shards the corpus is partitioned into; 0 disables sharding.
  std::size_t num_shards = 0;
  /// Replica holders per shard (R). 0 or >= nodes: full replication.
  std::size_t replication = 0;

  [[nodiscard]] bool enabled() const { return num_shards > 0; }

  /// Replica count actually used on an `nodes`-node cluster.
  [[nodiscard]] std::size_t effective_replication(std::size_t nodes) const {
    if (replication == 0 || replication >= nodes) return nodes;
    return replication;
  }

  /// Whether placement is actually constrained (R < nodes). When false,
  /// every node holds every shard and the legacy scheduling path runs
  /// unchanged (bit-compatible with full replication).
  [[nodiscard]] bool partial(std::size_t nodes) const {
    return enabled() && effective_replication(nodes) < nodes;
  }
};

}  // namespace qadist::shard
