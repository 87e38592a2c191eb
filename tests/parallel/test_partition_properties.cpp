// Property sweeps of the partitioners over an (items x workers) grid: the
// coverage/consistency invariants must hold for every combination.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "parallel/partition.hpp"

namespace qadist::parallel {
namespace {

struct Grid {
  std::size_t items;
  std::size_t workers;
};

class PartitionProperties : public ::testing::TestWithParam<Grid> {};

void check_cover(const std::vector<Partition>& parts, std::size_t items) {
  std::set<std::size_t> seen;
  for (const auto& p : parts) {
    for (std::size_t i : p.items) {
      ASSERT_LT(i, items);
      ASSERT_TRUE(seen.insert(i).second) << "item " << i << " duplicated";
    }
  }
  ASSERT_EQ(seen.size(), items);
}

TEST_P(PartitionProperties, SendCoversExactlyOnce) {
  const auto [items, workers] = GetParam();
  const std::vector<double> weights(workers, 1.0);
  check_cover(partition_send(items, weights), items);
}

TEST_P(PartitionProperties, IsendCoversExactlyOnce) {
  const auto [items, workers] = GetParam();
  const std::vector<double> weights(workers, 1.0);
  check_cover(partition_isend(items, weights), items);
}

TEST_P(PartitionProperties, WeightedCountsMatchApportion) {
  const auto [items, workers] = GetParam();
  Rng rng(items * 31 + workers);
  std::vector<double> weights(workers);
  for (auto& w : weights) w = rng.uniform(0.1, 5.0);
  const auto counts = apportion(items, weights);
  // Zero-count workers get no Partition entry, so map back via .worker
  // instead of indexing positionally.
  std::vector<std::size_t> send_counts(workers, 0);
  std::vector<std::size_t> isend_counts(workers, 0);
  for (const auto& p : partition_send(items, weights)) {
    ASSERT_LT(p.worker, workers);
    ASSERT_FALSE(p.items.empty()) << "empty partition not dropped";
    send_counts[p.worker] = p.items.size();
  }
  for (const auto& p : partition_isend(items, weights)) {
    ASSERT_LT(p.worker, workers);
    ASSERT_FALSE(p.items.empty()) << "empty partition not dropped";
    isend_counts[p.worker] = p.items.size();
  }
  for (std::size_t w = 0; w < workers; ++w) {
    EXPECT_EQ(send_counts[w], counts[w]);
    EXPECT_EQ(isend_counts[w], counts[w]);
  }
}

TEST_P(PartitionProperties, ApportionCountsSumToTotal) {
  const auto [items, workers] = GetParam();
  Rng rng(items * 131 + workers);
  std::vector<double> weights(workers);
  for (auto& w : weights) w = rng.uniform(0.0, 3.0);
  if (std::accumulate(weights.begin(), weights.end(), 0.0) == 0.0) {
    weights[0] = 1.0;
  }
  const auto counts = apportion(items, weights);
  ASSERT_EQ(counts.size(), workers);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
            items);
}

TEST_P(PartitionProperties, ZeroWeightWorkersGetNoPartition) {
  const auto [items, workers] = GetParam();
  // Worker 0 carries all the weight; the rest are zero.
  std::vector<double> weights(workers, 0.0);
  weights[0] = 1.0;
  const auto send = partition_send(items, weights);
  const auto isend = partition_isend(items, weights);
  for (const auto* parts : {&send, &isend}) {
    std::size_t total = 0;
    for (const auto& p : *parts) {
      EXPECT_EQ(p.worker, 0u) << "zero-weight worker received items";
      EXPECT_FALSE(p.items.empty());
      total += p.items.size();
    }
    EXPECT_EQ(total, items);
  }
}

TEST_P(PartitionProperties, FinalPaddedChunkIsBounded) {
  const auto [items, workers] = GetParam();
  const std::size_t chunk_size = std::max<std::size_t>(1, items / (2 * workers));
  const auto chunks = make_chunks(items, chunk_size);
  // Every chunk but the last is exactly chunk_size; the last absorbs the
  // remainder and stays below 2 * chunk_size (paper Fig. 6a padding).
  for (std::size_t c = 0; c + 1 < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].size(), chunk_size);
  }
  if (!chunks.empty()) {
    EXPECT_LE(chunks.back().size(), 2 * chunk_size - 1);
    EXPECT_GE(chunks.back().size(), 1u);
  }
}

TEST_P(PartitionProperties, SendBlocksAreContiguousAndOrdered) {
  const auto [items, workers] = GetParam();
  const std::vector<double> weights(workers, 1.0);
  const auto parts = partition_send(items, weights);
  std::size_t expected = 0;
  for (const auto& p : parts) {
    for (std::size_t i : p.items) {
      EXPECT_EQ(i, expected);
      ++expected;
    }
  }
}

TEST_P(PartitionProperties, IsendItemsAreStrictlyIncreasingPerWorker) {
  const auto [items, workers] = GetParam();
  const std::vector<double> weights(workers, 1.0);
  for (const auto& p : partition_isend(items, weights)) {
    for (std::size_t k = 1; k < p.items.size(); ++k) {
      EXPECT_GT(p.items[k], p.items[k - 1]);
    }
  }
}

TEST_P(PartitionProperties, ChunksTileTheRange) {
  const auto [items, workers] = GetParam();
  const std::size_t chunk_size = std::max<std::size_t>(1, items / (2 * workers));
  const auto chunks = make_chunks(items, chunk_size);
  std::size_t expected = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.begin, expected);
    EXPECT_GT(c.end, c.begin);
    expected = c.end;
  }
  EXPECT_EQ(expected, items);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PartitionProperties,
    ::testing::Values(Grid{0, 1}, Grid{1, 1}, Grid{1, 8}, Grid{7, 3},
                      Grid{8, 8}, Grid{100, 7}, Grid{881, 12},
                      Grid{881, 16}, Grid{10000, 5}),
    [](const auto& info) {
      return std::string("i")
          .append(std::to_string(info.param.items))
          .append("_w")
          .append(std::to_string(info.param.workers));
    });

}  // namespace
}  // namespace qadist::parallel
