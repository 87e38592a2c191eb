#include "qa/ner.hpp"

#include <algorithm>
#include <array>

#include "corpus/collection.hpp"

namespace qadist::qa {

namespace {

bool is_month(std::string_view w) {
  static constexpr std::array<std::string_view, 12> kMonths = {
      "january", "february", "march",     "april",   "may",      "june",
      "july",    "august",   "september", "october", "november", "december"};
  for (auto m : kMonths)
    if (w == m) return true;
  return false;
}

/// The tokenizer's "numeric": all digits.
bool is_numeric(std::string_view w) {
  return !w.empty() && std::all_of(w.begin(), w.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
}

bool is_year(std::string_view w) {
  if (w.size() != 4 || !is_numeric(w)) return false;
  const int y = (w[0] - '0') * 1000 + (w[1] - '0') * 100 + (w[2] - '0') * 10 +
                (w[3] - '0');
  return y >= 1000 && y <= 2100;
}

}  // namespace

std::vector<EntityMention> EntityRecognizer::recognize(
    const ir::Lexicon& lexicon, std::span<const ir::WordToken> tokens) const {
  std::vector<EntityMention> mentions;
  const auto n = static_cast<std::uint32_t>(tokens.size());
  const auto max_len =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, gazetteer_->max_tokens()));
  const auto text = [&](std::uint32_t i) {
    return lexicon.word(tokens[i].word());
  };
  std::string key;

  std::uint32_t i = 0;
  while (i < n) {
    const std::string_view word = text(i);

    // --- Gazetteer: longest capitalized-led n-gram first. Entity names may
    // begin with a lowercase article ("the Amsen Lighthouse"), so "the" is
    // also allowed to open a candidate span.
    if (tokens[i].capitalized() || word == "the") {
      bool matched = false;
      const std::uint32_t limit = std::min(max_len, n - i);
      for (std::uint32_t len = limit; len >= 1 && !matched; --len) {
        key.clear();
        for (std::uint32_t k = i; k < i + len; ++k) {
          if (!key.empty()) key += ' ';
          key += text(k);
        }
        if (const auto type = gazetteer_->lookup(key)) {
          mentions.push_back(EntityMention{*type, i, len, 1.0});
          i += len;
          matched = true;
        }
      }
      if (matched) continue;
    }

    // --- DATE: "<month> <day> [<year>]" or a bare plausible year.
    if (is_month(word) && i + 1 < n && is_numeric(text(i + 1))) {
      std::uint32_t len = 2;
      if (i + 2 < n && is_year(text(i + 2))) len = 3;
      mentions.push_back(
          EntityMention{corpus::EntityType::kDate, i, len, 0.9});
      i += len;
      continue;
    }
    if (is_year(word)) {
      mentions.push_back(EntityMention{corpus::EntityType::kDate, i, 1, 0.6});
      ++i;
      continue;
    }

    // --- MONEY: "$ <number> [million|thousand|billion]".
    if (word == "$" && i + 1 < n && is_numeric(text(i + 1))) {
      std::uint32_t len = 2;
      if (i + 2 < n && (text(i + 2) == "million" ||
                        text(i + 2) == "thousand" ||
                        text(i + 2) == "billion")) {
        len = 3;
      }
      mentions.push_back(
          EntityMention{corpus::EntityType::kMoney, i, len, 0.9});
      i += len;
      continue;
    }

    // --- QUANTITY: standalone multi-digit numbers (years already handled).
    if (is_numeric(word) && word.size() >= 3) {
      mentions.push_back(
          EntityMention{corpus::EntityType::kQuantity, i, 1, 0.9});
      ++i;
      continue;
    }

    ++i;
  }
  return mentions;
}

std::vector<EntityMention> EntityRecognizer::recognize_text(
    std::string_view text) const {
  const corpus::Collection one(
      {corpus::Document{0, "", {std::string(text)}}});
  const ir::CollectionAnalysis analysis(corpus::SubCollection(&one, 0, 1),
                                        *analyzer_);
  return recognize(analysis.lexicon(), analysis.tokens(0));
}

}  // namespace qadist::qa
