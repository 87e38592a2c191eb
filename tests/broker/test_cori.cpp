// CORI collection selection: the documented edge cases are load-bearing
// for routing correctness — an empty question or a term absent from every
// shard must not discriminate (all beliefs collapse to the default), a
// top-k at or above the shard count must be exhaustive search exactly,
// and every tie-break must be deterministic (ascending shard id) so runs
// replay bit-identically.

#include "broker/cori.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "broker/stats.hpp"
#include "common/rng.hpp"
#include "ir/inverted_index.hpp"
#include "ir/shard_stats.hpp"

namespace qadist::broker {
namespace {

// Four one-document shards with mostly disjoint vocabulary: "amsen" only
// in shard 0, "lighthouse" in shards 0 and 1, "harbor" in every shard.
corpus::Collection four_shard_collection() {
  corpus::Collection c;
  const std::vector<std::vector<std::string>> paragraphs = {
      {"amsen lighthouse harbor", "amsen amsen harbor"},
      {"lighthouse harbor keepers"},
      {"harbor ships cargo"},
      {"harbor fishing nets", "fishing village"},
  };
  for (std::size_t i = 0; i < paragraphs.size(); ++i) {
    corpus::Document d;
    d.id = static_cast<std::uint32_t>(i);
    d.title = "doc";
    d.paragraphs = paragraphs[i];
    c.add(std::move(d));
  }
  return c;
}

CollectionStats four_shard_stats() {
  const auto c = four_shard_collection();
  ir::Analyzer analyzer;
  std::vector<ir::InvertedIndex> shards;
  for (std::size_t i = 0; i < 4; ++i) {
    shards.push_back(
        ir::InvertedIndex::build(corpus::SubCollection(&c, i, i + 1),
                                 analyzer));
  }
  return CollectionStats::from_indexes(shards);
}

TEST(CoriTest, EmptyQuestionScoresEveryShardAtTheDefaultBelief) {
  const auto stats = four_shard_stats();
  const auto scores = score_shards(stats, {});
  ASSERT_EQ(scores.size(), 4u);
  for (double s : scores) EXPECT_DOUBLE_EQ(s, kCoriDefaultBelief);
}

TEST(CoriTest, TermAbsentFromEveryShardCannotDiscriminate) {
  const auto stats = four_shard_stats();
  EXPECT_EQ(stats.shards_containing("zeppelin"), 0u);
  const std::vector<std::string> keywords = {"zeppelin"};
  const auto scores = score_shards(stats, keywords);
  ASSERT_EQ(scores.size(), 4u);
  for (double s : scores) EXPECT_DOUBLE_EQ(s, kCoriDefaultBelief);
}

TEST(CoriTest, DiscriminativeTermRanksItsShardFirst) {
  const auto stats = four_shard_stats();
  const std::vector<std::string> keywords = {"amsen"};
  const auto scores = score_shards(stats, keywords);
  ASSERT_EQ(scores.size(), 4u);
  // Only shard 0 contains "amsen": it scores above the default belief,
  // everything else sits exactly at it.
  EXPECT_GT(scores[0], kCoriDefaultBelief);
  for (std::size_t s = 1; s < 4; ++s) {
    EXPECT_DOUBLE_EQ(scores[s], kCoriDefaultBelief);
  }
  EXPECT_EQ(select_shards(stats, keywords, 1),
            (std::vector<std::size_t>{0}));
}

TEST(CoriTest, WiderSpreadTermScoresItsHoldersAboveNonHolders) {
  const auto stats = four_shard_stats();
  EXPECT_EQ(stats.shards_containing("lighthouse"), 2u);
  const std::vector<std::string> keywords = {"lighthouse"};
  const auto scores = score_shards(stats, keywords);
  EXPECT_GT(scores[0], scores[2]);
  EXPECT_GT(scores[1], scores[3]);
  const auto picked = select_shards(stats, keywords, 2);
  EXPECT_EQ(picked, (std::vector<std::size_t>{0, 1}));
}

TEST(CoriTest, TopKAtOrAboveShardCountIsExhaustiveSearch) {
  const auto stats = four_shard_stats();
  const std::vector<std::string> keywords = {"amsen"};
  const std::vector<std::size_t> all = {0, 1, 2, 3};
  EXPECT_EQ(select_shards(stats, keywords, 4), all);
  EXPECT_EQ(select_shards(stats, keywords, 100), all);
}

TEST(CoriTest, TopKClampsUpToOneSoRoutingIsNeverEmpty) {
  const auto stats = four_shard_stats();
  const std::vector<std::string> keywords = {"amsen"};
  EXPECT_EQ(select_shards(stats, keywords, 0),
            (std::vector<std::size_t>{0}));
}

TEST(CoriTest, TiesBreakByAscendingShardId) {
  const auto stats = four_shard_stats();
  // No evidence at all: every shard scores the default belief, so top-2
  // must deterministically be the two lowest ids.
  EXPECT_EQ(select_shards(stats, {}, 2), (std::vector<std::size_t>{0, 1}));
}

TEST(CoriTest, SingleShardCollectionAlwaysSelectsIt) {
  const auto c = four_shard_collection();
  ir::Analyzer analyzer;
  std::vector<ir::InvertedIndex> shards;
  shards.push_back(
      ir::InvertedIndex::build(corpus::SubCollection(&c, 0, 4), analyzer));
  const auto stats = CollectionStats::from_indexes(shards);
  ASSERT_EQ(stats.num_shards(), 1u);
  const std::vector<std::string> keywords = {"harbor"};
  EXPECT_EQ(select_shards(stats, keywords, 1),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(select_shards(stats, keywords, 8),
            (std::vector<std::size_t>{0}));
}

TEST(CoriTest, FromShardStatsScoresExactlyLikeFromIndexes) {
  // A broker scoring from a loaded QASS v2 stats section must agree
  // bit-for-bit with one scoring from the live indexes.
  const auto c = four_shard_collection();
  ir::Analyzer analyzer;
  std::vector<ir::InvertedIndex> shards;
  std::vector<ir::ShardTermStats> extracted;
  for (std::size_t i = 0; i < 4; ++i) {
    shards.push_back(
        ir::InvertedIndex::build(corpus::SubCollection(&c, i, i + 1),
                                 analyzer));
    extracted.push_back(ir::extract_term_stats(shards.back()));
  }
  const auto live = CollectionStats::from_indexes(shards);
  const auto loaded = CollectionStats::from_shard_stats(std::move(extracted));
  const std::vector<std::string> keywords = {"lighthouse", "harbor"};
  const auto a = score_shards(live, keywords);
  const auto b = score_shards(loaded, keywords);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) EXPECT_DOUBLE_EQ(a[s], b[s]);
}

TEST(CoriTest, CollectionStatsSummaries) {
  const auto stats = four_shard_stats();
  EXPECT_EQ(stats.num_shards(), 4u);
  EXPECT_EQ(stats.shards_containing("harbor"), 4u);
  EXPECT_EQ(stats.shards_containing("amsen"), 1u);
  EXPECT_GT(stats.average_words(), 0.0);
  // avg_cw is the mean of the per-shard word totals.
  double total = 0.0;
  for (std::size_t s = 0; s < 4; ++s) {
    total += static_cast<double>(stats.words(s));
  }
  EXPECT_DOUBLE_EQ(stats.average_words(), total / 4.0);
}

// Oracle for the bit-equality tests below: CORI computed shard-major from
// the per-shard maps, every keyword's cf from a term -> #shards map and
// its df from the shard's own map.
std::vector<double> shard_major_scores(
    const std::vector<ir::ShardTermStats>& shards,
    std::span<const std::string> keywords) {
  std::unordered_map<std::string, std::uint32_t> shards_containing;
  double total_words = 0.0;
  for (const auto& shard : shards) {
    total_words += static_cast<double>(shard.words);
    for (const auto& entry : shard.df) ++shards_containing[entry.first];
  }
  std::vector<double> scores(shards.size(), kCoriDefaultBelief);
  if (shards.empty() || keywords.empty()) return scores;
  const double c = static_cast<double>(shards.size());
  const double avg_cw = std::max(total_words / c, 1.0);
  const double log_c = std::log(c + 1.0);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const double cw_ratio = static_cast<double>(shards[s].words) / avg_cw;
    double belief_sum = 0.0;
    std::size_t scored_terms = 0;
    for (const std::string& keyword : keywords) {
      const auto cf_it = shards_containing.find(keyword);
      if (cf_it == shards_containing.end()) continue;
      ++scored_terms;
      const auto it = shards[s].df.find(keyword);
      const double df = it == shards[s].df.end()
                            ? 0.0
                            : static_cast<double>(it->second);
      const double t_belief = df / (df + 50.0 + 150.0 * cw_ratio);
      const double i_belief =
          std::log((c + 0.5) / static_cast<double>(cf_it->second)) / log_c;
      belief_sum += kCoriDefaultBelief +
                    (1.0 - kCoriDefaultBelief) * t_belief * i_belief;
    }
    if (scored_terms > 0) {
      scores[s] = belief_sum / static_cast<double>(scored_terms);
    }
  }
  return scores;
}

void expect_bit_equal(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[s]),
              std::bit_cast<std::uint64_t>(want[s]))
        << "shard " << s << ": " << got[s] << " vs " << want[s];
  }
}

// Random keyword lists over `vocabulary` plus terms no shard contains,
// with duplicates, checked against the shard-major oracle.
void expect_matches_oracle(const std::vector<ir::ShardTermStats>& shards,
                           const std::vector<std::string>& vocabulary,
                           std::uint64_t seed) {
  const auto stats = CollectionStats::from_shard_stats(shards);
  ASSERT_EQ(stats.num_shards(), shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(stats.words(s), shards[s].words);
  }
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> keywords;
    const auto n = rng.below(7);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.2)) {
        keywords.push_back("absent" + std::to_string(rng.below(3)));
      } else {
        keywords.push_back(vocabulary[rng.below(vocabulary.size())]);
      }
      if (rng.bernoulli(0.2)) keywords.push_back(keywords.back());
    }
    SCOPED_TRACE(trial);
    expect_bit_equal(score_shards(stats, keywords),
                     shard_major_scores(shards, keywords));
  }
}

TEST(CoriTest, KeywordMajorScoresMatchTheShardMajorLoopOnTheFixture) {
  const auto c = four_shard_collection();
  ir::Analyzer analyzer;
  std::vector<ir::ShardTermStats> shards;
  for (std::size_t i = 0; i < 4; ++i) {
    shards.push_back(ir::extract_term_stats(ir::InvertedIndex::build(
        corpus::SubCollection(&c, i, i + 1), analyzer)));
  }
  std::vector<std::string> vocabulary;
  for (const auto& shard : shards) {
    for (const auto& entry : shard.df) vocabulary.push_back(entry.first);
  }
  std::sort(vocabulary.begin(), vocabulary.end());
  vocabulary.erase(std::unique(vocabulary.begin(), vocabulary.end()),
                   vocabulary.end());
  expect_matches_oracle(shards, vocabulary, 3);
}

TEST(CoriTest, KeywordMajorScoresMatchTheShardMajorLoopOnRandomStats) {
  // 37 shards (two of them empty) over 60 terms of skewed spread.
  Rng rng(11);
  std::vector<std::string> vocabulary;
  for (int t = 0; t < 60; ++t) vocabulary.push_back(std::string("t").append(std::to_string(t)));
  std::vector<ir::ShardTermStats> shards(37);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (s == 5 || s == 36) continue;
    for (std::size_t t = 0; t < vocabulary.size(); ++t) {
      if (rng.uniform01() < 1.0 / static_cast<double>(t + 2)) {
        shards[s].df[vocabulary[t]] =
            static_cast<std::uint32_t>(1 + rng.below(40));
      }
    }
    shards[s].words = 50 + rng.below(5000);
  }
  expect_matches_oracle(shards, vocabulary, 4);
}

TEST(CoriWorkProxyTest, RanksByWorkWithAscendingIdTies) {
  const std::vector<double> work = {1.0, 5.0, 3.0, 5.0};
  // Top-2 by weight: shards 1 and 3 (tied at 5.0), ascending order.
  EXPECT_EQ(select_shards_by_work(work, 2),
            (std::vector<std::size_t>{1, 3}));
  // Top-1 of the tie goes to the lower id.
  EXPECT_EQ(select_shards_by_work(work, 1), (std::vector<std::size_t>{1}));
  // k >= n keeps everything; k = 0 clamps up to 1.
  EXPECT_EQ(select_shards_by_work(work, 9),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(select_shards_by_work(work, 0), (std::vector<std::size_t>{1}));
}

}  // namespace
}  // namespace qadist::broker
