#include "qa/text_match.hpp"

#include "common/check.hpp"

namespace qadist::qa {

void keyword_hits(const AnalyzedParagraph& paragraph,
                  const ProcessedQuestion& question, ir::KeywordHits& hits) {
  paragraph.lexicon->keyword_hits(paragraph.tokens, question.keyword_norms,
                                  hits);
  QADIST_CHECK(question.keyword_norms.norms.size() == question.keywords.size(),
               << "question " << question.id << " has "
               << question.keywords.size() << " keywords but "
               << question.keyword_norms.norms.size() << " resolved");
}

std::span<const ir::KeywordHit> scored_hits(const ScoredParagraph& paragraph,
                                            const AnalyzedParagraph& text,
                                            const ProcessedQuestion& question) {
  QADIST_CHECK(text.lexicon->resolved(question.keyword_norms),
               << "keywords not resolved against this analysis");
  QADIST_CHECK(paragraph.hits.resolution() != 0 &&
                   paragraph.hits.resolution() ==
                       question.keyword_norms.resolution,
               << "paragraph (" << paragraph.paragraph.ref.doc << ", "
               << paragraph.paragraph.ref.index
               << ") carries no keyword hits of question " << question.id
               << "'s resolution " << question.keyword_norms.resolution
               << " (hits resolution " << paragraph.hits.resolution() << ")");
  return paragraph.hits.view();
}

void surface_span(const AnalyzedParagraph& paragraph, std::size_t first,
                  std::size_t count, std::string& out) {
  out.clear();
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
}

std::string surface_span(const AnalyzedParagraph& paragraph, std::size_t first,
                         std::size_t count) {
  std::string out;
  surface_span(paragraph, first, count, out);
  return out;
}

std::string trim_window(std::string window, const std::string& candidate,
                        std::size_t budget) {
  if (window.size() <= budget) return window;
  const std::size_t cand_pos = window.find(candidate);
  const std::size_t cand_mid =
      cand_pos == std::string::npos ? window.size() / 2
                                    : cand_pos + candidate.size() / 2;
  std::size_t begin = cand_mid > budget / 2 ? cand_mid - budget / 2 : 0;
  if (begin + budget > window.size()) begin = window.size() - budget;
  // Snap to token boundaries (never cutting into the candidate itself).
  std::size_t end = begin + budget;
  if (begin > 0) {
    const std::size_t space = window.find(' ', begin);
    if (space != std::string::npos &&
        (cand_pos == std::string::npos || space < cand_pos)) {
      begin = space + 1;
    }
  }
  if (end < window.size()) {
    const std::size_t space = window.rfind(' ', end);
    if (space != std::string::npos && space > begin &&
        (cand_pos == std::string::npos ||
         space >= cand_pos + candidate.size())) {
      end = space;
    }
  }
  return window.substr(begin, end - begin);
}

}  // namespace qadist::qa
