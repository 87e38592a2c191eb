#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/inverted_index.hpp"
#include "ir/shard_stats.hpp"

namespace qadist::broker {

/// Collection-wide view of the per-shard term statistics: what a broker
/// (or the coordinator, with the tier off) needs to score shards for a
/// question without touching any shard's postings. Mirrors the resource
/// descriptions a query mediator keeps about each federated collection.
///
/// Stored term-major: one hash entry per term points at the term's run in
/// a flat (shard, df) array, so per-question scoring is one hash probe per
/// keyword.
class CollectionStats {
 public:
  /// One shard containing a term, and the term's paragraph df there.
  struct ShardDf {
    std::uint32_t shard = 0;
    std::uint32_t df = 0;
  };

  CollectionStats() = default;

  /// Builds from already-extracted shard statistics (e.g. loaded from a
  /// QASS v2 artifact's stats section); the per-shard maps are released
  /// as they are folded in.
  [[nodiscard]] static CollectionStats from_shard_stats(
      std::vector<ir::ShardTermStats> shards);

  /// Extracts statistics from in-memory shard indexes (shard s = index s).
  [[nodiscard]] static CollectionStats from_indexes(
      std::span<const ir::InvertedIndex> shards);

  [[nodiscard]] std::size_t num_shards() const { return words_.size(); }

  /// Size of shard s in term occurrences (CORI's cw_s).
  [[nodiscard]] std::uint64_t words(std::size_t s) const { return words_[s]; }

  /// The shards containing `term`, ascending shard id; empty for a term
  /// absent from every shard.
  [[nodiscard]] std::span<const ShardDf> shards_with(
      const std::string& term) const;

  /// Number of shards whose index contains the term (CORI's cf); 0 for a
  /// term absent from every shard.
  [[nodiscard]] std::size_t shards_containing(const std::string& term) const {
    return shards_with(term).size();
  }

  /// Mean shard size in term occurrences (CORI's avg_cw); 0 when empty.
  [[nodiscard]] double average_words() const { return average_words_; }

 private:
  struct Run {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  std::vector<std::uint64_t> words_;          // per shard
  std::unordered_map<std::string, Run> runs_;  // term -> its run in holders_
  std::vector<ShardDf> holders_;              // runs back to back
  double average_words_ = 0.0;
};

}  // namespace qadist::broker
