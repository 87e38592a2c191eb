#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "corpus/generator.hpp"
#include "ir/inverted_index.hpp"
#include "qa/answer_processing.hpp"
#include "qa/paragraph_analysis.hpp"
#include "qa/paragraph_ordering.hpp"
#include "qa/paragraph_retrieval.hpp"
#include "qa/paragraph_scoring.hpp"
#include "qa/question_processing.hpp"

namespace qadist::qa {

/// Everything configurable about a Q/A deployment.
struct EngineConfig {
  /// Paper setup: the collection is split into 8 separately indexed
  /// sub-collections; PR iterates over them (Table 2 granularity).
  std::size_t subcollections = 8;
  /// Largest/smallest sub-collection size (1 = even split). Real TREC
  /// sub-collections are topic-oriented and uneven; the paper's
  /// per-collection PR cost varied ~8x (Fig. 7).
  double subcollection_size_ratio = 1.0;
  std::size_t min_paragraphs_per_subcollection = 10;
  ParagraphScorer::Weights scoring;
  ParagraphOrderer::Config ordering;
  AnswerProcessor::Config answers;
};

/// Wall-clock seconds spent in each pipeline module for one question —
/// the measurement behind the paper's Table 2 and Table 8.
struct ModuleTimes {
  Seconds qp = 0.0;
  Seconds pr = 0.0;
  Seconds ps = 0.0;
  Seconds po = 0.0;
  Seconds ap = 0.0;

  [[nodiscard]] Seconds total() const { return qp + pr + ps + po + ap; }
  ModuleTimes& operator+=(const ModuleTimes& other);
};

/// Work counters for one question; the simulator's cost model converts
/// these into simulated service demands.
struct WorkCounters {
  RetrievalWork retrieval;
  AnswerWork answer;
  std::size_t paragraphs_retrieved = 0;
  std::size_t paragraphs_accepted = 0;
};

/// Result of answering one question.
struct QAResult {
  ProcessedQuestion question;
  std::vector<Answer> answers;
  ModuleTimes times;
  WorkCounters work;
};

/// The sequential FALCON-like question answering engine (paper Fig. 1).
///
/// The per-stage API is deliberately exposed — `retrieve()` per
/// sub-collection, `score()` and `answer_paragraph()` per paragraph,
/// `answer_paragraphs()` per paragraph batch — because those are exactly
/// the granularities the distributed system partitions at. All stage
/// methods are const and thread-safe; one Engine is shared by all
/// host-parallel workers.
///
/// Construction analyzes every paragraph once (CorpusAnalysis: interned
/// tokens, norms, entity mentions) and builds the sub-collection indexes
/// from that analysis. PR hands out views of the collection's paragraph
/// text, never copies. PS and AP look a paragraph's analysis up by its ref
/// and never re-tokenize its text; a paragraph whose ref or text length
/// does not match the analyzed collection, or a question not resolved by
/// this engine's process_question, fails a QADIST_CHECK.
class Engine {
 public:
  Engine(const corpus::GeneratedCorpus& corpus, EngineConfig config = {});

  // --- Stage API ------------------------------------------------------
  /// QP, with the keywords resolved against the engine's analysis, as the
  /// other stages need them.
  [[nodiscard]] ProcessedQuestion process_question(
      std::uint32_t id, const std::string& text) const;

  /// PR over one sub-collection (iterative unit: the collection).
  [[nodiscard]] std::vector<RetrievedParagraph> retrieve(
      std::size_t subcollection, const ProcessedQuestion& question,
      RetrievalWork* work = nullptr) const;

  /// PS for one paragraph (iterative unit: the paragraph).
  [[nodiscard]] ScoredParagraph score(const ProcessedQuestion& question,
                                      RetrievedParagraph paragraph) const;

  /// PO: centralized sort + threshold filter.
  [[nodiscard]] std::vector<ScoredParagraph> order(
      std::vector<ScoredParagraph> paragraphs) const;

  /// AP for one paragraph (iterative unit: the paragraph): its candidate
  /// answers with their text, unsorted.
  [[nodiscard]] std::vector<Answer> answer_paragraph(
      const ProcessedQuestion& question, const ScoredParagraph& paragraph,
      AnswerWork* work = nullptr) const;

  /// AP's scoring for one paragraph, the `index`th of the accepted ones:
  /// offers its candidate answers to `top`, building candidate text only
  /// for those `top` could admit; build_answer then gives the kept ones
  /// their window text.
  void offer_answers(const ProcessedQuestion& question,
                     const ScoredParagraph& paragraph, std::size_t index,
                     TopAnswers<CandidateAnswer>& top,
                     AnswerWork* work = nullptr) const;
  [[nodiscard]] Answer build_answer(CandidateAnswer candidate) const;

  /// AP over a paragraph batch (iterative unit: the paragraph). Returns the
  /// batch's best `answers_requested` answers.
  [[nodiscard]] std::vector<Answer> answer_paragraphs(
      const ProcessedQuestion& question,
      std::span<const ScoredParagraph> paragraphs,
      AnswerWork* work = nullptr) const;

  // --- End-to-end -----------------------------------------------------
  /// Runs the full sequential pipeline with per-module wall timing.
  [[nodiscard]] QAResult answer(std::uint32_t id, const std::string& text) const;
  [[nodiscard]] QAResult answer(const corpus::Question& q) const {
    return answer(q.id, q.text);
  }

  // --- Introspection --------------------------------------------------
  [[nodiscard]] std::size_t subcollection_count() const {
    return indexes_.size();
  }
  [[nodiscard]] const ir::InvertedIndex& index(std::size_t sub) const;
  [[nodiscard]] const corpus::SubCollection& subcollection(std::size_t sub) const;
  [[nodiscard]] const ir::Analyzer& analyzer() const { return analyzer_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] const CorpusAnalysis& analysis() const { return analysis_; }

 private:
  EngineConfig config_;
  ir::Analyzer analyzer_;
  QuestionProcessor question_processor_;
  ParagraphRetriever retriever_;
  ParagraphScorer scorer_;
  ParagraphOrderer orderer_;
  AnswerProcessor answer_processor_;
  CorpusAnalysis analysis_;
  std::vector<corpus::SubCollection> subcollections_;
  std::vector<ir::InvertedIndex> indexes_;
};

}  // namespace qadist::qa
