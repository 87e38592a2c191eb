#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "ir/analysis.hpp"
#include "qa/paragraph_analysis.hpp"

namespace qadist::qa {

/// Replaces `hits` with the keyword hits of `paragraph` for `question`:
/// each token whose norm is a keyword's, in position order, tagged with
/// the first such keyword (Lexicon::keyword_hits) and with the question's
/// keyword resolution. Paragraph scoring computes them once and hands them
/// to answer processing in its ScoredParagraph. Fails a QADIST_CHECK
/// unless the question's keywords were resolved against the paragraph's
/// analysis (CorpusAnalysis::resolve).
void keyword_hits(const AnalyzedParagraph& paragraph,
                  const ProcessedQuestion& question, ir::KeywordHits& hits);

/// The keyword hits paragraph scoring stored in `paragraph`. Fails a
/// QADIST_CHECK unless `question`'s keywords were resolved against
/// `text`'s lexicon and the hits were computed against that resolution:
/// a ScoredParagraph scored for another resolution of the keywords, or
/// built without PS, is refused rather than read with the wrong hits.
[[nodiscard]] std::span<const ir::KeywordHit> scored_hits(
    const ScoredParagraph& paragraph, const AnalyzedParagraph& text,
    const ProcessedQuestion& question);

/// Replaces `out` with the space-joined surface form of a token range,
/// re-capitalizing tokens whose source was capitalized. (Punctuation
/// between tokens is not recoverable.) Reuses `out`'s capacity.
void surface_span(const AnalyzedParagraph& paragraph, std::size_t first,
                  std::size_t count, std::string& out);
[[nodiscard]] std::string surface_span(const AnalyzedParagraph& paragraph,
                                       std::size_t first, std::size_t count);

/// Trims `window` to `budget` bytes, keeping the candidate centered — the
/// paper's 50/250-byte answer presentation (Table 1). Cuts land on token
/// boundaries (spaces) where possible.
[[nodiscard]] std::string trim_window(std::string window,
                                      const std::string& candidate,
                                      std::size_t budget);

}  // namespace qadist::qa
