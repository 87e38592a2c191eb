#include "ir/analysis.hpp"

#include "common/check.hpp"

namespace qadist::ir {

NormId Lexicon::find_norm(std::string_view term) const {
  const auto it = norm_ids_.find(term);
  return it == norm_ids_.end() ? kNoNorm : it->second;
}

CollectionAnalysis::CollectionAnalysis(const corpus::SubCollection& docs,
                                       const Analyzer& analyzer)
    : first_doc_(docs.first()) {
  // The word -> id map is only needed while interning.
  StringMap<WordId> word_ids;
  Lexicon& lex = lexicon_;
  doc_begin_.reserve(docs.size() + 1);
  doc_begin_.push_back(0);
  token_begin_.push_back(0);
  for (corpus::DocId doc = docs.first(); doc < docs.last(); ++doc) {
    for (const std::string& text : docs.document(doc).paragraphs) {
      for (Token& token : analyzer.tokenize(text)) {
        const auto [it, inserted] = word_ids.try_emplace(
            std::move(token.text), static_cast<WordId>(lex.word_count()));
        if (inserted) {
          QADIST_CHECK(lex.word_count() < (WordId{1} << 31),
                       << "too many distinct words for WordToken");
          const std::string& word = it->first;
          lex.word_chars_ += word;
          lex.word_begin_.push_back(
              static_cast<std::uint32_t>(lex.word_chars_.size()));
          NormId norm = kStopword;
          if (!is_stopword(word)) {
            const auto [n, fresh] = lex.norm_ids_.try_emplace(
                token.numeric ? word : analyzer.stem(word),
                static_cast<NormId>(lex.norm_texts_.size()));
            if (fresh) lex.norm_texts_.push_back(n->first);
            norm = n->second;
          }
          lex.word_norms_.push_back(norm);
        }
        tokens_.emplace_back(it->second, token.capitalized);
      }
      token_begin_.push_back(static_cast<std::uint32_t>(tokens_.size()));
      text_bytes_.push_back(static_cast<std::uint32_t>(text.size()));
    }
    doc_begin_.push_back(static_cast<std::uint32_t>(text_bytes_.size()));
  }
}

std::uint32_t CollectionAnalysis::ordinal(corpus::ParagraphRef ref) const {
  const auto last_doc =
      first_doc_ + static_cast<corpus::DocId>(doc_begin_.size() - 1);
  QADIST_CHECK(ref.doc >= first_doc_ && ref.doc < last_doc,
               << "paragraph (" << ref.doc << ", " << ref.index
               << ") lies outside the analyzed documents [" << first_doc_
               << ", " << last_doc << ")");
  const std::size_t d = ref.doc - first_doc_;
  QADIST_CHECK(ref.index < doc_begin_[d + 1] - doc_begin_[d],
               << "document " << ref.doc << " has no paragraph "
               << ref.index);
  return doc_begin_[d] + ref.index;
}

}  // namespace qadist::ir
