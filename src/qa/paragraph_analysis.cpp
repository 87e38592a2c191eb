#include "qa/paragraph_analysis.hpp"

#include "common/check.hpp"

namespace qadist::qa {

CorpusAnalysis::CorpusAnalysis(const corpus::SubCollection& docs,
                               const ir::Analyzer& analyzer,
                               const EntityRecognizer& recognizer)
    : text_(docs, analyzer) {
  const auto paragraphs = static_cast<std::uint32_t>(text_.paragraph_count());
  mention_begin_.reserve(std::size_t{paragraphs} + 1);
  mention_begin_.push_back(0);
  for (std::uint32_t p = 0; p < paragraphs; ++p) {
    const auto found = recognizer.recognize(text_.lexicon(), text_.tokens(p));
    mentions_.insert(mentions_.end(), found.begin(), found.end());
    mention_begin_.push_back(static_cast<std::uint32_t>(mentions_.size()));
  }
}

ProcessedQuestion CorpusAnalysis::resolve(ProcessedQuestion question) const {
  question.keyword_norms = text_.lexicon().resolve(question.keywords);
  return question;
}

AnalyzedParagraph CorpusAnalysis::of(const RetrievedParagraph& paragraph) const {
  const std::uint32_t p = text_.ordinal(paragraph.ref);
  QADIST_CHECK(paragraph.text.size() == text_.text_bytes(p),
               << "paragraph (" << paragraph.ref.doc << ", "
               << paragraph.ref.index << ") has " << paragraph.text.size()
               << " bytes of text; the analyzed paragraph has "
               << text_.text_bytes(p));
  return of_ordinal(p);
}

AnalyzedParagraph CorpusAnalysis::of(corpus::ParagraphRef ref) const {
  return of_ordinal(text_.ordinal(ref));
}

AnalyzedParagraph CorpusAnalysis::of_ordinal(std::uint32_t p) const {
  return AnalyzedParagraph{
      &text_.lexicon(), text_.tokens(p),
      std::span<const EntityMention>(mentions_).subspan(
          mention_begin_[p], mention_begin_[p + 1] - mention_begin_[p])};
}

}  // namespace qadist::qa
