#include "qa/paragraph_ordering.hpp"

#include <algorithm>
#include <cstdint>

namespace qadist::qa {

std::vector<ScoredParagraph> ParagraphOrderer::order_and_filter(
    std::vector<ScoredParagraph> paragraphs) const {
  // Sort small keys, not the paragraphs (which carry their keyword hits
  // inline).
  struct Key {
    double score;
    corpus::ParagraphRef ref;
    std::uint32_t index;
  };
  std::vector<Key> keys;
  keys.reserve(paragraphs.size());
  for (std::uint32_t i = 0; i < paragraphs.size(); ++i) {
    keys.push_back({paragraphs[i].score, paragraphs[i].paragraph.ref, i});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.ref < b.ref;
  });
  // Position i takes paragraph keys[i].index. Walking each cycle of that
  // permutation moves every paragraph once, in place: the returned vector
  // keeps the caller's buffer, as an in-place sort would.
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    if (keys[i].index == i) continue;
    ScoredParagraph held = std::move(paragraphs[i]);
    std::uint32_t at = i;
    while (keys[at].index != i) {
      const std::uint32_t from = keys[at].index;
      paragraphs[at] = std::move(paragraphs[from]);
      keys[at].index = at;
      at = from;
    }
    paragraphs[at] = std::move(held);
    keys[at].index = at;
  }
  if (paragraphs.empty()) return paragraphs;

  const double cutoff = paragraphs.front().score * config_.relative_threshold;
  std::size_t keep = 0;
  while (keep < paragraphs.size() && keep < config_.max_accepted &&
         paragraphs[keep].score >= cutoff) {
    ++keep;
  }
  paragraphs.resize(keep);
  return paragraphs;
}

}  // namespace qadist::qa
