#pragma once

#include <span>
#include <string>
#include <vector>

#include "corpus/collection.hpp"
#include "qa/paragraph_analysis.hpp"

namespace qadist::testing {

/// Analyzes free paragraphs with the constructor qa::Engine runs over its
/// collection, for standalone PS, AP and NER calls. Each paragraph sits at
/// its own ref in a collection built for it; refs no paragraph claims hold
/// empty text.
inline qa::CorpusAnalysis analyze_paragraphs(
    std::span<const qa::RetrievedParagraph> paragraphs,
    const ir::Analyzer& analyzer, const qa::EntityRecognizer& recognizer) {
  std::vector<corpus::Document> docs;
  for (const auto& p : paragraphs) {
    while (docs.size() <= p.ref.doc) {
      docs.push_back(
          corpus::Document{static_cast<corpus::DocId>(docs.size()), "", {}});
    }
    auto& texts = docs[p.ref.doc].paragraphs;
    if (texts.size() <= p.ref.index) texts.resize(p.ref.index + 1);
    texts[p.ref.index] = std::string(p.text);
  }
  const corpus::Collection collection(std::move(docs));
  return qa::CorpusAnalysis(
      corpus::SubCollection(&collection, 0,
                            static_cast<corpus::DocId>(collection.size())),
      analyzer, recognizer);
}

inline qa::CorpusAnalysis analyze_paragraphs(
    const qa::RetrievedParagraph& paragraph, const ir::Analyzer& analyzer,
    const qa::EntityRecognizer& recognizer) {
  return analyze_paragraphs(std::span(&paragraph, 1), analyzer, recognizer);
}

inline qa::CorpusAnalysis analyze_paragraphs(
    std::span<const qa::ScoredParagraph> paragraphs,
    const ir::Analyzer& analyzer, const qa::EntityRecognizer& recognizer) {
  std::vector<qa::RetrievedParagraph> texts;
  for (const auto& p : paragraphs) texts.push_back(p.paragraph);
  return analyze_paragraphs(texts, analyzer, recognizer);
}

}  // namespace qadist::testing
