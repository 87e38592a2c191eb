#pragma once

#include <vector>

#include "qa/paragraph_analysis.hpp"
#include "qa/question.hpp"

namespace qadist::qa {

/// Paragraph Scoring (PS): ranks one retrieved paragraph with the three
/// surface-text heuristics of LASSO/FALCON (paper Sec. 2.1 — keyword
/// presence, same-word-sequence, inter-keyword distance). Iterative unit:
/// the paragraph — this is what gets partitioned intra-question.
///
/// Heuristics (each normalized to [0,1], then weighted):
///  H1 completeness: fraction of question keywords present;
///  H2 sequence:     longest run of keywords appearing in question order;
///  H3 proximity:    1 / (1 + smallest token window covering all present
///                   keywords).
///
/// The paragraph's tokens and norms come from its CorpusAnalysis and the
/// question's keyword norms were resolved once, so the per-paragraph work
/// is one filter test per token, then the heuristics over the paragraph's
/// keyword hits. The hits are returned in the ScoredParagraph for answer
/// processing; a paragraph with at most ir::KeywordHits::kInline of them
/// is scored without allocating.
class ParagraphScorer {
 public:
  struct Weights {
    double completeness = 0.5;
    double sequence = 0.2;
    double proximity = 0.3;
  };

  ParagraphScorer() = default;
  explicit ParagraphScorer(Weights weights) : weights_(weights) {}

  /// Scores one paragraph against the question, reading the paragraph's
  /// entry in `analysis` (checked against its ref and text). Thread-safe.
  [[nodiscard]] ScoredParagraph score(const ProcessedQuestion& question,
                                      RetrievedParagraph paragraph,
                                      const CorpusAnalysis& analysis) const;

  /// Convenience: score a whole batch in order.
  [[nodiscard]] std::vector<ScoredParagraph> score_all(
      const ProcessedQuestion& question,
      std::vector<RetrievedParagraph> paragraphs,
      const CorpusAnalysis& analysis) const;

 private:
  Weights weights_;
};

}  // namespace qadist::qa
