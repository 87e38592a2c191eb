#include "broker/cori.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace qadist::broker {

std::vector<double> score_shards(const CollectionStats& stats,
                                 std::span<const std::string> keywords) {
  const std::size_t num_shards = stats.num_shards();
  std::vector<double> scores(num_shards, kCoriDefaultBelief);
  if (num_shards == 0 || keywords.empty()) return scores;

  const double c = static_cast<double>(num_shards);
  const double avg_cw = std::max(stats.average_words(), 1.0);
  const double log_c = std::log(c + 1.0);

  // Keyword-major: cf and I once per keyword, from the keyword's run of
  // holders. Each shard's belief sum still accumulates over the keywords
  // in keyword order, with a shard absent from the run taking df = 0.
  std::vector<double> belief_sum(num_shards, 0.0);
  std::size_t scored_terms = 0;
  for (const std::string& keyword : keywords) {
    const auto holders = stats.shards_with(keyword);
    // A term no shard contains cannot discriminate between shards (and
    // cf = 0 would make I blow up); it contributes no evidence at all.
    if (holders.empty()) continue;
    ++scored_terms;
    const double i_belief =
        std::log((c + 0.5) / static_cast<double>(holders.size())) / log_c;
    auto next = holders.begin();
    for (std::size_t s = 0; s < num_shards; ++s) {
      double df = 0.0;
      if (next != holders.end() && next->shard == s) {
        df = static_cast<double>(next->df);
        ++next;
      }
      const double cw_ratio = static_cast<double>(stats.words(s)) / avg_cw;
      const double t_belief = df / (df + 50.0 + 150.0 * cw_ratio);
      belief_sum[s] += kCoriDefaultBelief +
                       (1.0 - kCoriDefaultBelief) * t_belief * i_belief;
    }
  }
  if (scored_terms > 0) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      scores[s] = belief_sum[s] / static_cast<double>(scored_terms);
    }
  }
  return scores;
}

namespace {

/// Top-k indices of `scores` (higher = better, ties by ascending index),
/// returned sorted ascending.
std::vector<std::size_t> top_k_indices(std::span<const double> scores,
                                       std::size_t top_k) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t k = std::min(std::max<std::size_t>(top_k, 1), order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(k);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace

std::vector<std::size_t> select_shards(const CollectionStats& stats,
                                       std::span<const std::string> keywords,
                                       std::size_t top_k) {
  if (stats.num_shards() == 0) return {};
  return top_k_indices(score_shards(stats, keywords), top_k);
}

std::vector<std::size_t> select_shards_by_work(std::span<const double> work,
                                               std::size_t top_k) {
  if (work.empty()) return {};
  return top_k_indices(work, top_k);
}

}  // namespace qadist::broker
