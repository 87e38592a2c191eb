#include "ir/analysis.hpp"

#include <atomic>

#include "common/check.hpp"

namespace qadist::ir {

namespace {

/// Norms map onto the 64 filter bits by their low bits: ids are dense.
std::uint64_t filter_bit(NormId norm) {
  return std::uint64_t{1} << (norm & 63);
}

}  // namespace

NormId Lexicon::find_norm(std::string_view term) const {
  const auto it = norm_ids_.find(term);
  return it == norm_ids_.end() ? kNoNorm : it->second;
}

void KeywordHits::push_back(KeywordHit hit) {
  if (size_ < kInline) {
    inline_[size_++] = hit;
    return;
  }
  if (size_ == kInline) {
    heap_.reserve(2 * kInline);
    heap_.assign(inline_.begin(), inline_.end());
  }
  heap_.push_back(hit);
  ++size_;
}

KeywordNorms Lexicon::resolve(std::span<const std::string> keywords) const {
  static std::atomic<std::uint64_t> next_resolution{1};
  KeywordNorms out;
  out.lexicon = serial_;
  out.resolution = next_resolution.fetch_add(1, std::memory_order_relaxed);
  out.norms.reserve(keywords.size());
  for (const auto& keyword : keywords) {
    const NormId norm = find_norm(keyword);
    out.norms.push_back(norm);
    if (norm != kNoNorm) out.filter |= filter_bit(norm);
  }
  return out;
}

void Lexicon::keyword_hits(std::span<const WordToken> tokens,
                           const KeywordNorms& keywords,
                           KeywordHits& hits) const {
  QADIST_CHECK(resolved(keywords),
               << "keywords not resolved against this analysis");
  hits.resolution_ = keywords.resolution;
  hits.size_ = 0;
  hits.heap_.clear();
  const auto keyword_count = static_cast<std::uint32_t>(keywords.norms.size());
  for (std::uint32_t t = 0; t < tokens.size(); ++t) {
    // A stopword's norm is never a keyword's; it fails the filter unless
    // a keyword shares its filter bit, and then fails the comparison.
    const NormId norm = word_norms_[tokens[t].word()];
    if ((keywords.filter & filter_bit(norm)) == 0) continue;
    for (std::uint32_t k = 0; k < keyword_count; ++k) {
      if (keywords.norms[k] == norm) {
        hits.push_back(KeywordHit{t, k});
        break;
      }
    }
  }
}

CollectionAnalysis::CollectionAnalysis(const corpus::SubCollection& docs,
                                       const Analyzer& analyzer)
    : first_doc_(docs.first()) {
  static std::atomic<std::uint64_t> next_serial{1};
  lexicon_.serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
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
