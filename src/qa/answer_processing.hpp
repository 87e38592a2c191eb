#pragma once

#include <span>
#include <vector>

#include "qa/paragraph_analysis.hpp"
#include "qa/question.hpp"

namespace qadist::qa {

/// Work accounting emitted by an AP call — feeds the simulator's cost model
/// (AP is ~100% CPU on the paper's platform, Table 3).
struct AnswerWork {
  std::size_t paragraphs_processed = 0;
  std::size_t tokens_scanned = 0;
  std::size_t candidates_considered = 0;
  std::size_t windows_scored = 0;
};

/// Answer Processing (AP): the pipeline's dominant module (69.7% of TREC-9
/// task time, paper Table 2). For each accepted paragraph it reads the
/// entity mentions recognized when the collection was analyzed (see
/// CorpusAnalysis), keeps candidates matching the question's answer type,
/// builds an answer window around each candidate ("text spans that include
/// the candidate answer and one of each of the question keywords"), and
/// scores the window with seven heuristics (paper Sec. 2.1, after [27]):
///
///  H1 window completeness: fraction of keywords inside the window;
///  H2 candidate proximity: inverse mean distance candidate -> nearest
///     occurrence of each present keyword;
///  H3 same order:          keywords appear in question order in the window;
///  H4 recognizer confidence (gazetteer 1.0, pattern < 1);
///  H5 keyword density within the window;
///  H6 linking cue:         candidate preceded by a linking word
///     ("is", "in", "by", "of", "for", "to", "was");
///  H7 paragraph rank carried in from paragraph scoring.
///
/// Candidates whose tokens are all question keywords are skipped — the
/// question's own subject is never a valid answer.
class AnswerProcessor {
 public:
  struct Config {
    std::size_t answers_requested = 5;   ///< Na: answers returned per call
    std::size_t max_window_tokens = 30;  ///< clip for degenerate paragraphs
    /// Byte budget of the returned answer text, trimmed around the
    /// candidate — the paper's answer formats are 50 bytes (short answers)
    /// or 250 bytes (long answers), cf. Table 1.
    std::size_t answer_window_bytes = 250;
  };

  AnswerProcessor() = default;
  explicit AnswerProcessor(Config config) : config_(config) {}

  /// Extracts and scores candidate answers from one paragraph, reading its
  /// entry in `analysis` (checked against its ref and text). Thread-safe.
  [[nodiscard]] std::vector<Answer> process_paragraph(
      const ProcessedQuestion& question, const ScoredParagraph& paragraph,
      const CorpusAnalysis& analysis, AnswerWork* work = nullptr) const;

  /// Processes a batch of paragraphs and returns the best
  /// `answers_requested` answers (sorted, deduplicated by candidate).
  [[nodiscard]] std::vector<Answer> process(
      const ProcessedQuestion& question,
      std::span<const ScoredParagraph> paragraphs,
      const CorpusAnalysis& analysis, AnswerWork* work = nullptr) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
};

/// Merges answer lists, deduplicates by candidate string (keeping each
/// candidate's best score), sorts descending and truncates to `limit`.
/// Deterministic: ties break on candidate text, then paragraph address.
/// This is the Answer Sorting module that follows distributed AP
/// (paper Fig. 3).
[[nodiscard]] std::vector<Answer> sort_answers(std::vector<Answer> answers,
                                               std::size_t limit);

}  // namespace qadist::qa
