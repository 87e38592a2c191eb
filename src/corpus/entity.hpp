#pragma once

#include <optional>
#include <utility>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"

namespace qadist::corpus {

/// Semantic categories of answer entities — the answer types the question
/// processing module predicts and the answer processing module matches
/// (paper Sec. 1.1: DISEASE, LOCATION, NATIONALITY, ... entities).
enum class EntityType {
  kPerson,
  kLocation,
  kOrganization,
  kDate,
  kQuantity,
  kNationality,
  kDisease,
  kMoney,
  kUnknown,
};

[[nodiscard]] std::string_view to_string(EntityType type);

/// Number of concrete (non-kUnknown) entity types.
inline constexpr int kEntityTypeCount = 8;

/// Surface-string → entity-type dictionary.
///
/// The corpus generator registers every entity it mints, so the answer
/// processing NER recognizes exactly the generated world plus pattern-based
/// types (dates, quantities, money) — the same closed-world trick FALCON's
/// gazetteers play for the TREC collections. Keys are stored lowercase;
/// lookups are case-normalized by the caller (the tokenizer already
/// lowercases).
class Gazetteer {
 public:
  /// Registers an entity surface form. Multi-word entities are stored as
  /// their space-joined lowercase token sequence.
  void add(std::string_view surface, EntityType type);

  /// Looks up a (lowercase, space-joined) token sequence. Allocation-free.
  [[nodiscard]] std::optional<EntityType> lookup(std::string_view key) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Longest entity length in tokens — bounds the NER n-gram scan.
  [[nodiscard]] std::size_t max_tokens() const { return max_tokens_; }

  /// All surface forms of a given type (test support).
  [[nodiscard]] std::vector<std::string> surfaces_of(EntityType type) const;

  /// Every (surface, type) entry, sorted by surface — deterministic order
  /// for serialization.
  [[nodiscard]] std::vector<std::pair<std::string, EntityType>> entries()
      const;

 private:
  StringMap<EntityType> entries_;
  std::size_t max_tokens_ = 0;
};

}  // namespace qadist::corpus
