#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace qadist::ir {

/// A lexical token with enough surface detail for downstream NER.
struct Token {
  std::string text;          ///< lowercased surface form
  std::uint32_t position;    ///< token index within the input
  bool capitalized = false;  ///< original form started with an uppercase letter
  bool numeric = false;      ///< all digits
};

/// True for closed-class words that carry no retrieval signal ("the", "of",
/// question words, ...). The list mirrors what FALCON's keyword extractor
/// would discard.
[[nodiscard]] bool is_stopword(std::string_view word);

/// Text analysis bundle shared by the indexer and the query side:
/// tokenization, stopping, and a light suffix stemmer. Index terms and
/// query keywords MUST come from the same analyzer or postings won't line
/// up — hence one type owning all three steps. Paragraph text goes through
/// it once, when a CollectionAnalysis is built; question text through
/// index_terms.
class Analyzer {
 public:
  /// Splits into tokens: maximal runs of alphanumerics; '$' is its own
  /// token (money amounts); everything else is a separator. Lowercases,
  /// recording the original capitalization flag.
  [[nodiscard]] std::vector<Token> tokenize(std::string_view text) const;

  /// Light suffix stemmer ("-'s", "-ies", "-ing", "-ed", plural "-s").
  /// Deliberately conservative: never stems below 3 characters.
  [[nodiscard]] std::string stem(std::string_view word) const;

  /// Lowercased, stemmed, stopword-free terms of a text (numbers kept
  /// verbatim): a question's keywords, normalized exactly as
  /// CollectionAnalysis normalizes paragraph words.
  [[nodiscard]] std::vector<std::string> index_terms(
      std::string_view text) const;
};

}  // namespace qadist::ir
