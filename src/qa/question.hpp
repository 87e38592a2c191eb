#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "corpus/entity.hpp"
#include "corpus/generator.hpp"
#include "ir/analysis.hpp"

namespace qadist::qa {

/// Output of the Question Processing module: the expected answer entity
/// type plus the retrieval keywords (analyzer-normalized, deduplicated,
/// question order preserved — the order matters to the answer-window
/// same-order heuristic).
struct ProcessedQuestion {
  std::uint32_t id = 0;
  std::string text;
  corpus::EntityType answer_type = corpus::EntityType::kUnknown;
  std::vector<std::string> keywords;
  /// `keywords` resolved once against the analyzed collection PS and AP
  /// read (CorpusAnalysis::resolve; Engine::process_question does it).
  ir::KeywordNorms keyword_norms;
};

/// A paragraph handed from Paragraph Retrieval to scoring: its address, a
/// view of its text in the (immutable) collection, and the retrieval-time
/// keyword hit count.
struct RetrievedParagraph {
  corpus::ParagraphRef ref;
  std::string_view text;
  std::uint32_t keywords_present = 0;
};

/// A paragraph with its Paragraph Scoring rank value attached, and the
/// keyword hits PS scored it over, which AP reads instead of scanning the
/// paragraph again (tagged with the question's keyword resolution, which AP
/// checks).
struct ScoredParagraph {
  RetrievedParagraph paragraph;
  double score = 0.0;
  ir::KeywordHits hits;
};

/// One extracted answer: the candidate entity plus its surrounding answer
/// window (the "50/250 bytes of text" the paper returns), and its combined
/// heuristic score.
struct Answer {
  std::string candidate;  ///< the entity string proposed as the answer
  std::string window;     ///< short context snippet around the candidate
  double score = 0.0;
  corpus::ParagraphRef ref;
  corpus::EntityType type = corpus::EntityType::kUnknown;
};

/// A scored answer before its window text is built: the Answer's fields
/// but `window`, and the token span the window is built from. AP scores
/// every candidate into one of these; `candidate` text is built only for
/// the candidates a TopAnswers could admit, and window text only for the
/// answers kept.
struct CandidateAnswer {
  std::string candidate;
  double score = 0.0;
  corpus::ParagraphRef ref;
  corpus::EntityType type = corpus::EntityType::kUnknown;
  std::uint32_t window_first = 0;   ///< first token of the answer window
  std::uint32_t window_tokens = 0;  ///< its length in tokens
};

}  // namespace qadist::qa
