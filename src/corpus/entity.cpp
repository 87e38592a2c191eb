#include "corpus/entity.hpp"

#include <algorithm>
#include "common/check.hpp"
#include "common/strings.hpp"

namespace qadist::corpus {

std::string_view to_string(EntityType type) {
  switch (type) {
    case EntityType::kPerson:
      return "PERSON";
    case EntityType::kLocation:
      return "LOCATION";
    case EntityType::kOrganization:
      return "ORGANIZATION";
    case EntityType::kDate:
      return "DATE";
    case EntityType::kQuantity:
      return "QUANTITY";
    case EntityType::kNationality:
      return "NATIONALITY";
    case EntityType::kDisease:
      return "DISEASE";
    case EntityType::kMoney:
      return "MONEY";
    case EntityType::kUnknown:
      return "UNKNOWN";
  }
  QADIST_UNREACHABLE("bad EntityType");
}

void Gazetteer::add(std::string_view surface, EntityType type) {
  QADIST_CHECK(!surface.empty());
  std::string key = to_lower(surface);
  const std::size_t tokens = split_whitespace(key).size();
  max_tokens_ = std::max(max_tokens_, tokens);
  entries_.insert_or_assign(std::move(key), type);
}

std::optional<EntityType> Gazetteer::lookup(std::string_view key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<std::string, EntityType>> Gazetteer::entries() const {
  std::vector<std::pair<std::string, EntityType>> out(entries_.begin(),
                                                      entries_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Gazetteer::surfaces_of(EntityType type) const {
  std::vector<std::string> out;
  for (const auto& [surface, t] : entries_) {
    if (t == type) out.push_back(surface);
  }
  return out;
}

}  // namespace qadist::corpus
