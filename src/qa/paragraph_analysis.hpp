#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "corpus/collection.hpp"
#include "ir/analysis.hpp"
#include "ir/analyzer.hpp"
#include "qa/ner.hpp"
#include "qa/question.hpp"

namespace qadist::qa {

/// What paragraph scoring and answer processing read about one paragraph:
/// its interned tokens, the lexicon they index, and its entity mentions.
struct AnalyzedParagraph {
  const ir::Lexicon* lexicon = nullptr;
  std::span<const ir::WordToken> tokens;
  std::span<const EntityMention> mentions;
};

/// The question-independent half of PS and AP, computed once per paragraph:
/// the ir::CollectionAnalysis of a document range (interned tokens and
/// their norms) plus every paragraph's entity mentions. qa::Engine builds
/// one over its whole collection at construction; standalone PS and AP
/// calls on free text build one with the same constructor.
///
/// Immutable after construction; concurrent reads need no locking.
class CorpusAnalysis {
 public:
  CorpusAnalysis(const corpus::SubCollection& docs,
                 const ir::Analyzer& analyzer,
                 const EntityRecognizer& recognizer);

  /// `question` with its keywords resolved against this analysis' lexicon,
  /// once, for every PS and AP call on its paragraphs (which fail a
  /// QADIST_CHECK for a question resolved against another analysis).
  [[nodiscard]] ProcessedQuestion resolve(ProcessedQuestion question) const;

  /// The analysis of `paragraph`. Fails a QADIST_CHECK unless its ref lies
  /// in the analyzed documents and its text has the analyzed paragraph's
  /// length, so a paragraph is never read as a different one.
  [[nodiscard]] AnalyzedParagraph of(const RetrievedParagraph& paragraph) const;
  /// The analysis of the paragraph at `ref` (checked to lie in the analyzed
  /// documents).
  [[nodiscard]] AnalyzedParagraph of(corpus::ParagraphRef ref) const;

  [[nodiscard]] const ir::CollectionAnalysis& text() const { return text_; }
  [[nodiscard]] std::size_t mention_count() const { return mentions_.size(); }

 private:
  [[nodiscard]] AnalyzedParagraph of_ordinal(std::uint32_t ordinal) const;

  ir::CollectionAnalysis text_;
  std::vector<std::uint32_t> mention_begin_;  // ordinal -> mention; size P+1
  std::vector<EntityMention> mentions_;
};

}  // namespace qadist::qa
