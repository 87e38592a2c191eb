#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "corpus/entity.hpp"
#include "ir/analysis.hpp"
#include "ir/analyzer.hpp"

namespace qadist::qa {

/// One entity mention found in a paragraph: a token span and its type.
/// Its surface text is built (surface_span) only for answers that are
/// emitted.
struct EntityMention {
  corpus::EntityType type = corpus::EntityType::kUnknown;
  std::uint32_t first_token = 0;  ///< index into the paragraph's token list
  std::uint32_t token_count = 0;
  double confidence = 1.0;   ///< 1.0 gazetteer hit, lower for pattern hits

  friend bool operator==(const EntityMention&, const EntityMention&) = default;
};

/// Named-entity recognizer: the candidate-answer detector of the Answer
/// Processing module (the paper's "advanced NLP techniques ... named-entity
/// recognition for the detection of candidate answers").
///
/// Two mechanisms:
///  * gazetteer matching — longest-match n-gram scan over capitalized token
///    spans against the generated world's dictionary;
///  * patterns — DATE ("March 14 , 1912" or a bare 4-digit year),
///    QUANTITY (standalone multi-digit numbers), MONEY ("$ <num> [million]").
///
/// NER does not depend on the question, so it runs once per paragraph when
/// the collection is analyzed (qa::CorpusAnalysis); answer processing reads
/// the stored mentions.
class EntityRecognizer {
 public:
  EntityRecognizer(const corpus::Gazetteer& gazetteer,
                   const ir::Analyzer& analyzer)
      : gazetteer_(&gazetteer), analyzer_(&analyzer) {}

  /// Finds all non-overlapping mentions in an analyzed paragraph; prefers
  /// longer gazetteer matches.
  [[nodiscard]] std::vector<EntityMention> recognize(
      const ir::Lexicon& lexicon,
      std::span<const ir::WordToken> tokens) const;

  /// Analyzes `text` as one paragraph, then recognizes its mentions.
  [[nodiscard]] std::vector<EntityMention> recognize_text(
      std::string_view text) const;

 private:
  const corpus::Gazetteer* gazetteer_;
  const ir::Analyzer* analyzer_;
};

}  // namespace qadist::qa
