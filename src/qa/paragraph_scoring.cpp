#include "qa/paragraph_scoring.hpp"

#include <algorithm>
#include <limits>

#include "qa/text_match.hpp"

namespace qadist::qa {

ScoredParagraph ParagraphScorer::score(const ProcessedQuestion& question,
                                       RetrievedParagraph paragraph,
                                       const CorpusAnalysis& analysis) const {
  const auto map = map_keywords(analysis.of(paragraph), question.keywords);
  const std::size_t k = question.keywords.size();

  // H1: completeness.
  std::vector<bool> present(k, false);
  for (int m : map)
    if (m >= 0) present[static_cast<std::size_t>(m)] = true;
  const auto present_count =
      static_cast<std::size_t>(std::count(present.begin(), present.end(), true));
  const double h1 = k == 0 ? 0.0
                           : static_cast<double>(present_count) /
                                 static_cast<double>(k);

  // H2: longest run of keyword hits in question order (not necessarily
  // adjacent in the paragraph, but monotone in keyword index).
  std::size_t best_run = 0;
  {
    int prev_keyword = -1;
    std::size_t run = 0;
    for (int m : map) {
      if (m < 0) continue;
      if (m == prev_keyword + 1) {
        ++run;
      } else if (m <= prev_keyword) {
        run = 1;
      } else {
        run = 1;
      }
      prev_keyword = m;
      best_run = std::max(best_run, run);
    }
  }
  const double h2 =
      k == 0 ? 0.0 : static_cast<double>(best_run) / static_cast<double>(k);

  // H3: smallest token window containing one of each *present* keyword
  // (classic minimum-window sliding scan).
  double h3 = 0.0;
  if (present_count > 0) {
    std::vector<std::size_t> need_count(k, 0);
    std::size_t covered = 0;
    std::size_t best_window = std::numeric_limits<std::size_t>::max();
    std::size_t left = 0;
    for (std::size_t right = 0; right < map.size(); ++right) {
      const int m = map[right];
      if (m >= 0 && present[static_cast<std::size_t>(m)]) {
        if (need_count[static_cast<std::size_t>(m)]++ == 0) ++covered;
      }
      while (covered == present_count) {
        best_window = std::min(best_window, right - left + 1);
        const int lm = map[left];
        if (lm >= 0 && present[static_cast<std::size_t>(lm)]) {
          if (--need_count[static_cast<std::size_t>(lm)] == 0) --covered;
        }
        ++left;
      }
    }
    // A window equal to the keyword count is perfect (all adjacent).
    h3 = static_cast<double>(present_count) /
         static_cast<double>(std::max(best_window, present_count));
  }

  ScoredParagraph scored;
  scored.score = weights_.completeness * h1 + weights_.sequence * h2 +
                 weights_.proximity * h3;
  scored.paragraph = std::move(paragraph);
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
