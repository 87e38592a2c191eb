#include "corpus/name_forge.hpp"

#include <array>

#include "common/check.hpp"

namespace qadist::corpus {

namespace {

constexpr std::array<const char*, 20> kOnsets = {
    "b", "d", "f", "g", "h", "k", "l", "m",  "n",  "p",
    "r", "s", "t", "v", "z", "br", "dr", "st", "tr", "gr"};
constexpr std::array<const char*, 10> kVowels = {"a", "e", "i", "o",  "u",
                                                 "ai", "ei", "or", "ar", "el"};
constexpr std::array<const char*, 12> kCodas = {"n", "r", "s", "l", "m", "t",
                                                "nd", "rn", "st", "x", "k", ""};
constexpr std::array<const char*, 12> kMonths = {
    "January", "February", "March",     "April",   "May",      "June",
    "July",    "August",   "September", "October", "November", "December"};
constexpr std::array<const char*, 6> kLocationPrefixes = {
    "Port", "Lake", "Mount", "New", "East", "Fort"};
constexpr std::array<const char*, 6> kLocationSuffixes = {
    "City", "Valley", "Island", "Harbor", "Springs", "Province"};
constexpr std::array<const char*, 8> kOrgKinds = {
    "Textile Group",   "Steel Works",    "Observatory",     "Institute",
    "Trading Company", "Rail Consortium", "Shipping Lines", "Foundation"};
constexpr std::array<const char*, 5> kLandmarkKinds = {
    "Lighthouse", "Cathedral", "Bridge", "Monument", "Aqueduct"};

template <std::size_t N>
const char* pick(Rng& rng, const std::array<const char*, N>& options) {
  return options[rng.below(N)];
}

void capitalize(std::string& word) {
  if (!word.empty() && word[0] >= 'a' && word[0] <= 'z') {
    word[0] = static_cast<char>(word[0] - 'a' + 'A');
  }
}

}  // namespace

std::string NameForge::stem() {
  const int syllables = 2 + static_cast<int>(rng_.below(2));
  std::string s;
  for (int i = 0; i < syllables; ++i) {
    s += pick(rng_, kOnsets);
    s += pick(rng_, kVowels);
    if (i + 1 == syllables) s += pick(rng_, kCodas);
  }
  capitalize(s);
  return s;
}

std::string NameForge::person() { return stem() + " " + stem(); }

std::string NameForge::location() {
  switch (rng_.below(3)) {
    case 0:
      return std::string(pick(rng_, kLocationPrefixes)) + " " + stem();
    case 1:
      return stem() + " " + pick(rng_, kLocationSuffixes);
    default:
      return stem();
  }
}

std::string NameForge::organization() {
  return stem() + " " + pick(rng_, kOrgKinds);
}

std::string NameForge::disease() {
  if (rng_.bernoulli(0.5)) return stem() + "osis";
  return stem() + " Fever";
}

std::string NameForge::nationality() { return stem() + "ian"; }

std::string NameForge::date() {
  const char* month = kMonths[rng_.below(kMonths.size())];
  const int day = 1 + static_cast<int>(rng_.below(28));
  const int year = 1800 + static_cast<int>(rng_.below(200));
  return std::string(month) + " " + std::to_string(day) + " , " +
         std::to_string(year);
}

std::string NameForge::quantity() {
  // Population-style numeral: 5-9 digits, round-ish. Kept >= 10000 so a
  // quantity can never be mistaken for a 4-digit year by the NER patterns.
  const auto magnitude = 4 + rng_.below(4);
  std::uint64_t value = 1 + rng_.below(9);
  for (std::uint64_t i = 0; i < magnitude; ++i) value *= 10;
  value += rng_.below(value / 10 + 1);
  return std::to_string(value);
}

std::string NameForge::money() {
  const auto amount = 1 + rng_.below(900);
  const char* unit = rng_.bernoulli(0.5) ? "million" : "thousand";
  return "$ " + std::to_string(amount) + " " + unit;
}

std::string NameForge::landmark() {
  return std::string("the ") + stem() + " " + pick(rng_, kLandmarkKinds);
}

std::string NameForge::of_type(EntityType type) {
  switch (type) {
    case EntityType::kPerson:
      return person();
    case EntityType::kLocation:
      return location();
    case EntityType::kOrganization:
      return organization();
    case EntityType::kDate:
      return date();
    case EntityType::kQuantity:
      return quantity();
    case EntityType::kNationality:
      return nationality();
    case EntityType::kDisease:
      return disease();
    case EntityType::kMoney:
      return money();
    case EntityType::kUnknown:
      break;
  }
  QADIST_UNREACHABLE("cannot mint a name of unknown type");
}

}  // namespace qadist::corpus
