#include "qa/paragraph_scoring.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "qa/text_match.hpp"

namespace qadist::qa {

ScoredParagraph ParagraphScorer::score(const ProcessedQuestion& question,
                                       RetrievedParagraph paragraph,
                                       const CorpusAnalysis& analysis) const {
  ScoredParagraph scored;
  scored.paragraph = paragraph;
  keyword_hits(analysis.of(paragraph), question, scored.hits);
  const std::span<const ir::KeywordHit> hits = scored.hits.view();
  const std::size_t k = question.keywords.size();

  // H1: completeness. The per-keyword counts are the calling thread's,
  // reused across calls.
  thread_local std::vector<std::uint32_t> need_count;
  need_count.assign(k, 0);  // hits per keyword
  std::size_t present_count = 0;
  for (const auto& hit : hits) {
    if (need_count[hit.keyword]++ == 0) ++present_count;
  }
  const double h1 = k == 0 ? 0.0
                           : static_cast<double>(present_count) /
                                 static_cast<double>(k);

  // H2: longest run of keyword hits in question order (not necessarily
  // adjacent in the paragraph, but monotone in keyword index).
  std::size_t best_run = 0;
  {
    std::int64_t prev_keyword = -1;
    std::size_t run = 0;
    for (const auto& hit : hits) {
      run = hit.keyword == prev_keyword + 1 ? run + 1 : 1;
      prev_keyword = hit.keyword;
      best_run = std::max(best_run, run);
    }
  }
  const double h2 =
      k == 0 ? 0.0 : static_cast<double>(best_run) / static_cast<double>(k);

  // H3: smallest token window containing one of each present keyword
  // (minimum-window sliding scan over the hits: a smallest window starts
  // and ends on a hit).
  double h3 = 0.0;
  if (present_count > 0) {
    std::fill(need_count.begin(), need_count.end(), 0);
    std::size_t covered = 0;
    std::size_t best_window = std::numeric_limits<std::size_t>::max();
    std::size_t left = 0;
    for (const auto& hit : hits) {
      if (need_count[hit.keyword]++ == 0) ++covered;
      while (covered == present_count) {
        const auto& first = hits[left++];
        best_window = std::min<std::size_t>(
            best_window, hit.position - first.position + 1);
        if (--need_count[first.keyword] == 0) --covered;
      }
    }
    // A window equal to the keyword count is perfect (all adjacent).
    h3 = static_cast<double>(present_count) /
         static_cast<double>(std::max(best_window, present_count));
  }

  scored.score = weights_.completeness * h1 + weights_.sequence * h2 +
                 weights_.proximity * h3;
  return scored;
}

std::vector<ScoredParagraph> ParagraphScorer::score_all(
    const ProcessedQuestion& question,
    std::vector<RetrievedParagraph> paragraphs,
    const CorpusAnalysis& analysis) const {
  std::vector<ScoredParagraph> out;
  out.reserve(paragraphs.size());
  for (auto& p : paragraphs) {
    out.push_back(score(question, std::move(p), analysis));
  }
  return out;
}

}  // namespace qadist::qa
