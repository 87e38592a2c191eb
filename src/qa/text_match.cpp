#include "qa/text_match.hpp"

namespace qadist::qa {

std::vector<int> map_keywords(const AnalyzedParagraph& paragraph,
                              std::span<const std::string> keywords) {
  std::vector<ir::NormId> norms;
  norms.reserve(keywords.size());
  for (const auto& keyword : keywords) {
    norms.push_back(paragraph.lexicon->find_norm(keyword));
  }
  std::vector<int> map(paragraph.tokens.size(), -1);
  for (std::size_t t = 0; t < paragraph.tokens.size(); ++t) {
    const ir::NormId norm = paragraph.lexicon->norm(paragraph.tokens[t].word());
    if (norm == ir::kStopword) continue;
    for (std::size_t k = 0; k < norms.size(); ++k) {
      if (norms[k] == norm) {
        map[t] = static_cast<int>(k);
        break;
      }
    }
  }
  return map;
}

std::string surface_span(const AnalyzedParagraph& paragraph, std::size_t first,
                         std::size_t count) {
  std::string out;
  const auto& tokens = paragraph.tokens;
  for (std::size_t i = first; i < first + count && i < tokens.size(); ++i) {
    if (!out.empty()) out += ' ';
    const std::size_t start = out.size();
    out += paragraph.lexicon->word(tokens[i].word());
    if (tokens[i].capitalized() && out.size() > start && out[start] >= 'a' &&
        out[start] <= 'z') {
      out[start] = static_cast<char>(out[start] - 'a' + 'A');
    }
  }
  return out;
}

}  // namespace qadist::qa
