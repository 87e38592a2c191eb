#include "broker/stats.hpp"

#include "common/check.hpp"

namespace qadist::broker {

CollectionStats CollectionStats::from_shard_stats(
    std::vector<ir::ShardTermStats> shards) {
  CollectionStats stats;
  stats.words_.reserve(shards.size());
  std::size_t entries = 0;
  for (const auto& shard : shards) entries += shard.df.size();
  QADIST_CHECK(entries <= UINT32_MAX, << "too many (term, shard) entries");
  // Pass 1: shard sizes, every term's run length (its cf), and the run of
  // every (term, shard) entry in map iteration order.
  std::vector<Run*> entry_runs;
  entry_runs.reserve(entries);
  double total_words = 0.0;
  for (const auto& shard : shards) {
    stats.words_.push_back(shard.words);
    total_words += static_cast<double>(shard.words);
    for (const auto& entry : shard.df) {
      Run& run = stats.runs_[entry.first];
      ++run.count;
      entry_runs.push_back(&run);
    }
  }
  // Pass 2: lay the runs out back to back; count restarts as a fill cursor.
  std::uint32_t offset = 0;
  for (auto& [term, run] : stats.runs_) {
    run.offset = offset;
    offset += run.count;
    run.count = 0;
  }
  // Pass 3: iterating the unchanged maps again visits the entries in the
  // same order, shard by shard, so every run fills in ascending shard
  // order. Each shard's map is released once it is folded in.
  stats.holders_.resize(entries);
  auto next_run = entry_runs.begin();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (const auto& entry : shards[s].df) {
      Run& run = **next_run++;
      stats.holders_[run.offset + run.count++] =
          ShardDf{static_cast<std::uint32_t>(s), entry.second};
    }
    shards[s] = ir::ShardTermStats{};
  }
  if (!shards.empty()) {
    stats.average_words_ = total_words / static_cast<double>(shards.size());
  }
  return stats;
}

CollectionStats CollectionStats::from_indexes(
    std::span<const ir::InvertedIndex> shards) {
  std::vector<ir::ShardTermStats> extracted;
  extracted.reserve(shards.size());
  for (const auto& index : shards) {
    extracted.push_back(ir::extract_term_stats(index));
  }
  return from_shard_stats(std::move(extracted));
}

std::span<const CollectionStats::ShardDf> CollectionStats::shards_with(
    const std::string& term) const {
  const auto it = runs_.find(term);
  if (it == runs_.end()) return {};
  return std::span<const ShardDf>(holders_).subspan(it->second.offset,
                                                     it->second.count);
}

}  // namespace qadist::broker
