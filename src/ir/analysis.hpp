#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"
#include "corpus/collection.hpp"
#include "ir/analyzer.hpp"

namespace qadist::ir {

/// Dense id of a distinct lowercased word of an analyzed collection.
using WordId = std::uint32_t;
/// Dense id of a distinct normalized term: a stem, or a number's text.
using NormId = std::uint32_t;
/// Norm of a stopword: matches no keyword and indexes no posting.
inline constexpr NormId kStopword = std::numeric_limits<NormId>::max();
/// What Lexicon::find_norm returns for a term no analyzed word has.
inline constexpr NormId kNoNorm = kStopword - 1;

/// One keyword occurrence in a paragraph: the token's position and the
/// index of the first question keyword whose norm the token carries.
struct KeywordHit {
  std::uint32_t position = 0;
  std::uint32_t keyword = 0;
};

/// A question's keywords looked up once in one Lexicon: each keyword's norm
/// id (kNoNorm when no analyzed word carries it), and a one-word filter of
/// the norms found. O(keywords); Lexicon::keyword_hits scans paragraphs
/// against it.
struct KeywordNorms {
  std::uint64_t lexicon = 0;     ///< serial of the resolving Lexicon; 0: none
  std::uint64_t resolution = 0;  ///< serial of this resolve() call; 0: none
  std::vector<NormId> norms;     ///< per keyword, in question order
  std::uint64_t filter = 0;      ///< bit (norm % 64) of every found norm
};

/// The keyword hits of one paragraph, in position order, tagged with the
/// KeywordNorms::resolution they were computed against. Up to kInline hits
/// are held inline, so a paragraph with few hits costs no allocation; a
/// longer list moves to the heap, and every list reads through the same
/// view. Filled only by Lexicon::keyword_hits.
class KeywordHits {
 public:
  static constexpr std::size_t kInline = 4;

  [[nodiscard]] std::uint64_t resolution() const { return resolution_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<const KeywordHit> view() const {
    return {size_ <= kInline ? inline_.data() : heap_.data(), size_};
  }

 private:
  friend class Lexicon;

  void push_back(KeywordHit hit);

  std::uint64_t resolution_ = 0;
  std::uint32_t size_ = 0;
  std::array<KeywordHit, kInline> inline_;
  std::vector<KeywordHit> heap_;  // every hit, once size_ > kInline
};

/// One token of an analyzed paragraph: its interned word and whether the
/// source spelled it with a leading capital.
class WordToken {
 public:
  WordToken(WordId word, bool capitalized)
      : bits_((word << 1) | (capitalized ? 1u : 0u)) {}
  [[nodiscard]] WordId word() const { return bits_ >> 1; }
  [[nodiscard]] bool capitalized() const { return (bits_ & 1u) != 0; }

 private:
  std::uint32_t bits_;
};

/// The interned vocabulary of an analyzed collection: every distinct word,
/// and for each its norm — the term the Analyzer indexes it under (its
/// stem, or a number's own text), or kStopword.
class Lexicon {
 public:
  Lexicon() = default;
  // The norm views point into norm_ids_'s nodes, which survive a move but
  // not a copy.
  Lexicon(const Lexicon&) = delete;
  Lexicon& operator=(const Lexicon&) = delete;
  Lexicon(Lexicon&&) = default;
  Lexicon& operator=(Lexicon&&) = default;

  [[nodiscard]] std::string_view word(WordId id) const {
    return std::string_view(word_chars_)
        .substr(word_begin_[id], word_begin_[id + 1] - word_begin_[id]);
  }
  [[nodiscard]] NormId norm(WordId id) const { return word_norms_[id]; }
  [[nodiscard]] std::string_view norm_text(NormId id) const {
    return norm_texts_[id];
  }
  /// Norm id of an analyzer-normalized term, or kNoNorm when no analyzed
  /// word normalizes to it. Allocation-free.
  [[nodiscard]] NormId find_norm(std::string_view term) const;

  /// Every keyword's norm, looked up once (keywords are analyzer-normalized
  /// terms, as QP extracts them). Each call gets a fresh resolution serial.
  [[nodiscard]] KeywordNorms resolve(
      std::span<const std::string> keywords) const;
  /// Whether `keywords` were resolved by this lexicon.
  [[nodiscard]] bool resolved(const KeywordNorms& keywords) const {
    return keywords.lexicon == serial_ && serial_ != 0;
  }
  /// Replaces `hits` with the keyword hits of `tokens` in position order,
  /// tagged with `keywords`' resolution: every token whose norm is a
  /// keyword's, with the first such keyword (stopwords never hit). One
  /// filter test per token; only the tokens that pass it are compared with
  /// the keywords. Fails a QADIST_CHECK unless `keywords` were resolved by
  /// this lexicon.
  void keyword_hits(std::span<const WordToken> tokens,
                    const KeywordNorms& keywords, KeywordHits& hits) const;

  [[nodiscard]] std::size_t word_count() const { return word_norms_.size(); }
  [[nodiscard]] std::size_t norm_count() const { return norm_texts_.size(); }

 private:
  friend class CollectionAnalysis;

  std::uint64_t serial_ = 0;               // unique per analysis; 0: empty
  std::string word_chars_;                 // every word, concatenated
  std::vector<std::uint32_t> word_begin_{0};  // word id -> offset; size W+1
  std::vector<NormId> word_norms_;         // word id -> norm
  StringMap<NormId> norm_ids_;             // norm text -> norm id
  std::vector<std::string_view> norm_texts_;  // norm id -> norm_ids_ key
};

/// The question-independent text analysis of every paragraph of a document
/// range, done once: the Analyzer's tokens of each paragraph, interned in
/// one Lexicon, in one flat array. The inverted indexes are built from it,
/// and paragraph scoring and answer processing read it instead of
/// re-tokenizing and re-stemming paragraph text for every question.
///
/// Immutable after construction; concurrent reads need no locking.
class CollectionAnalysis {
 public:
  CollectionAnalysis(const corpus::SubCollection& docs,
                     const Analyzer& analyzer);

  [[nodiscard]] const Lexicon& lexicon() const { return lexicon_; }
  [[nodiscard]] std::size_t paragraph_count() const {
    return text_bytes_.size();
  }
  [[nodiscard]] std::size_t token_count() const { return tokens_.size(); }

  /// Dense number of a paragraph in (doc, index) order. Fails a
  /// QADIST_CHECK when `ref` is not a paragraph of the analyzed documents.
  [[nodiscard]] std::uint32_t ordinal(corpus::ParagraphRef ref) const;

  [[nodiscard]] std::span<const WordToken> tokens(std::uint32_t ordinal) const {
    return std::span<const WordToken>(tokens_).subspan(
        token_begin_[ordinal], token_begin_[ordinal + 1] - token_begin_[ordinal]);
  }
  /// Length in bytes of the analyzed paragraph's text.
  [[nodiscard]] std::size_t text_bytes(std::uint32_t ordinal) const {
    return text_bytes_[ordinal];
  }

 private:
  Lexicon lexicon_;
  corpus::DocId first_doc_ = 0;
  std::vector<std::uint32_t> doc_begin_;    // doc - first -> ordinal; size D+1
  std::vector<std::uint32_t> token_begin_;  // ordinal -> token offset; size P+1
  std::vector<WordToken> tokens_;
  std::vector<std::uint32_t> text_bytes_;   // ordinal -> text length
};

}  // namespace qadist::ir
