#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>

#include "broker/stats.hpp"
#include "common/units.hpp"

namespace qadist::broker {

/// Backbone connecting the question hosts to the brokers: a faster core
/// than the subtree LANs, mirroring the fat-tree wiring hierarchical search
/// clusters use.
inline constexpr Bandwidth kCoreBandwidth = Bandwidth::from_gbps(1.0);

/// Broker CPU charged per routed question (scoring + routing tables).
inline constexpr Seconds kRouteCpu = 1e-3;

/// Selective search + broker/mediator tier configuration (`cfg.broker`).
///
/// Two independent axes, both off by default:
///
/// * **Collection selection** (`selectivity` / `top_k`): route each
///   question to only the top-k shards a CORI-style scorer believes can
///   answer it, instead of scatter-gathering every shard. Requires
///   sharding (`cfg.shard.num_shards > 0`). `selectivity = 1.0` with
///   `top_k = 0` touches every shard — bit-identical to exhaustive
///   search (pinned by test).
///
/// * **Broker tier** (`brokers > 0`): interpose broker nodes between the
///   question host and the shard holders. Nodes split into `brokers`
///   contiguous groups, each fronted by its first node; shards place
///   only within their group (shard s -> group s % brokers). The host
///   talks to brokers over a core backbone link; each group has its own
///   subtree LAN, so scatter traffic no longer shares one wire, and each
///   broker merges its subtree's partial results before one aggregate
///   hop back to the host.
struct BrokerConfig {
  /// Broker nodes to interpose; 0 keeps the flat single-LAN star.
  std::size_t brokers = 0;

  /// Fraction of shards a question may touch, in (0, 1]. 1.0 = all.
  /// Ignored when `top_k > 0` names the shard budget directly.
  double selectivity = 1.0;

  /// Absolute shard budget per question; 0 = derive from `selectivity`.
  std::size_t top_k = 0;

  /// Per-shard term statistics feeding CORI shard scoring. When absent,
  /// selection falls back to a per-question work proxy (plan unit sizes);
  /// when present, shards are scored against the question's keywords.
  std::shared_ptr<const CollectionStats> stats;

  [[nodiscard]] bool tier_enabled() const { return brokers > 0; }

  /// Whether selection actually prunes anything for a `num_shards`-shard
  /// corpus. selectivity = 1.0 with top_k = 0 is a true no-op.
  [[nodiscard]] bool selection_enabled(std::size_t num_shards) const {
    if (num_shards == 0) return false;
    return effective_top_k(num_shards) < num_shards;
  }

  /// The shard budget used per question: `top_k` when set, otherwise
  /// ceil(selectivity * num_shards), floored at one shard.
  [[nodiscard]] std::size_t effective_top_k(std::size_t num_shards) const {
    if (num_shards == 0) return 0;
    std::size_t k = top_k;
    if (k == 0) {
      k = static_cast<std::size_t>(
          std::ceil(selectivity * static_cast<double>(num_shards)));
    }
    return std::clamp<std::size_t>(k, 1, num_shards);
  }
};

}  // namespace qadist::broker
