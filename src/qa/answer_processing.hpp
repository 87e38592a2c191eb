#pragma once

#include <algorithm>
#include <iterator>
#include <span>
#include <vector>

#include "qa/paragraph_analysis.hpp"
#include "qa/question.hpp"

namespace qadist::qa {

/// The answer-merge rule: the answer merging and answer sorting modules
/// that follow distributed AP (paper Fig. 3). Keeps the best `limit`
/// candidates, each with its best answer, best first. Answers (Answer or
/// CandidateAnswer) are offered with the index of their paragraph among
/// the accepted paragraphs.
///
/// The result is what merging every offered answer would give after
/// deduplicating by candidate (a higher score wins; at an equal score the
/// earlier paragraph wins, and within one paragraph the first offered),
/// sorting by score descending then candidate ascending, and cutting at
/// `limit`. Only the current top is held: a candidate outside it has
/// `limit` candidates ahead of it, whose keys only rise, so a later answer
/// of that candidate enters only by beating its earlier ones.
///
/// Offering several TopAnswers' lists to one more yields the top of all
/// their answers, in whatever order the lists are offered: a candidate
/// missing from the list holding its best answer has `limit` distinct
/// candidates ahead of it there, and therefore also overall.
template <typename A>
class TopAnswers {
 public:
  struct Ranked {
    A answer;
    std::size_t paragraph = 0;  ///< index among the accepted paragraphs
  };

  explicit TopAnswers(std::size_t limit) : limit_(limit) {}

  /// Whether an answer scoring `score` could enter the top. False only
  /// when the top is full and `score` is below its last answer's, which
  /// offer rejects whatever the candidate: so a caller may build an
  /// answer's candidate text only when this holds.
  [[nodiscard]] bool admits(double score) const {
    return limit_ != 0 &&
           (top_.size() < limit_ || score >= top_.back().answer.score);
  }

  /// Copies `answer` in if it belongs to the top. An answer that displaces
  /// the last one takes over its slot, so the strings the top holds keep
  /// their capacity.
  void offer(const A& answer, std::size_t paragraph) {
    if (limit_ == 0) return;
    auto pos = std::find_if(top_.begin(), top_.end(), [&](const Ranked& r) {
      return r.answer.candidate == answer.candidate;
    });
    if (pos != top_.end()) {
      if (answer.score < pos->answer.score ||
          (answer.score == pos->answer.score && paragraph >= pos->paragraph)) {
        return;
      }
    } else if (top_.size() == limit_) {
      if (!ahead(answer, top_.back().answer)) return;
      pos = std::prev(top_.end());
    } else {
      pos = top_.emplace(top_.end());
    }
    pos->answer = answer;
    pos->paragraph = paragraph;
    // Only this candidate's key rose: move it up to its place.
    for (; pos != top_.begin() && ahead(pos->answer, std::prev(pos)->answer);
         --pos) {
      std::iter_swap(pos, std::prev(pos));
    }
  }

  /// The top, best first.
  [[nodiscard]] std::vector<Ranked> take() { return std::move(top_); }

 private:
  static bool ahead(const A& a, const A& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.candidate < b.candidate;
  }

  std::vector<Ranked> top_;  // sorted by ahead()
  std::size_t limit_;
};

/// Work accounting emitted by an AP call — feeds the simulator's cost model
/// (AP is ~100% CPU on the paper's platform, Table 3).
struct AnswerWork {
  std::size_t paragraphs_processed = 0;
  /// FALCON cost proxy: the tokens of the processed paragraphs, which
  /// FALCON's AP walks. The host code scores over the keyword hits PS
  /// found and does not scan them again.
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
///
/// The keyword hits are the ones paragraph scoring stored in the
/// ScoredParagraph (scored_hits checks they belong to the question's
/// keyword resolution); the windows and heuristics are computed over them.
/// One scoring body (score_candidates) yields every candidate without
/// text. Offered to a TopAnswers, a candidate gets its candidate text only
/// if the top could admit it, and window text only if it is returned.
/// Per-paragraph scratch is the calling thread's, reused across calls.
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

  /// Extracts and scores the candidate answers of one paragraph, the
  /// `index`th of the accepted ones, reading its entry in `analysis`
  /// (checked against its ref and text) and the keyword hits PS stored in
  /// it (checked against the question's keyword resolution), and offers
  /// them to `top` in mention order. Only a candidate `top` admits gets its
  /// candidate text; none gets window text. Thread-safe for distinct tops.
  void offer_candidates(const ProcessedQuestion& question,
                        const ScoredParagraph& paragraph, std::size_t index,
                        const CorpusAnalysis& analysis,
                        TopAnswers<CandidateAnswer>& top,
                        AnswerWork* work = nullptr) const;

  /// The answer `candidate` stands for: its window text built from its
  /// paragraph's analysis and trimmed to `answer_window_bytes`.
  [[nodiscard]] Answer answer(CandidateAnswer candidate,
                              const CorpusAnalysis& analysis) const;

  /// Every candidate answer of one paragraph, with its text, unsorted.
  [[nodiscard]] std::vector<Answer> process_paragraph(
      const ProcessedQuestion& question, const ScoredParagraph& paragraph,
      const CorpusAnalysis& analysis, AnswerWork* work = nullptr) const;

  /// Processes a batch of paragraphs and returns the best
  /// `answers_requested` answers (TopAnswers over the batch in order); only
  /// those get window text.
  [[nodiscard]] std::vector<Answer> process(
      const ProcessedQuestion& question,
      std::span<const ScoredParagraph> paragraphs,
      const CorpusAnalysis& analysis, AnswerWork* work = nullptr) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// The scoring body: calls `emit(candidate, name)` for every scored
  /// candidate of `paragraph`, in mention order, with `candidate` lacking
  /// text; `name()` builds its candidate text.
  template <typename Emit>
  void score_candidates(const ProcessedQuestion& question,
                        const ScoredParagraph& paragraph,
                        const CorpusAnalysis& analysis, AnswerWork* work,
                        Emit&& emit) const;

  Config config_;
};

}  // namespace qadist::qa
