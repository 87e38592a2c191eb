#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ir/analysis.hpp"
#include "qa/paragraph_analysis.hpp"

namespace qadist::qa {

/// Replaces `hits` with the keyword hits of `paragraph` for `question`:
/// each token whose norm is a keyword's, in position order, tagged with
/// the first such keyword (Lexicon::keyword_hits). Shared by paragraph
/// scoring and answer windowing so both stages agree on what counts as a
/// keyword hit. Fails a QADIST_CHECK unless the question's keywords were
/// resolved against the paragraph's analysis (CorpusAnalysis::resolve).
void keyword_hits(const AnalyzedParagraph& paragraph,
                  const ProcessedQuestion& question,
                  std::vector<ir::KeywordHit>& hits);

/// Space-joined surface form of a token range, re-capitalizing tokens whose
/// source was capitalized. (Punctuation between tokens is not recoverable.)
[[nodiscard]] std::string surface_span(const AnalyzedParagraph& paragraph,
                                       std::size_t first, std::size_t count);

/// Trims `window` to `budget` bytes, keeping the candidate centered — the
/// paper's 50/250-byte answer presentation (Table 1). Cuts land on token
/// boundaries (spaces) where possible.
[[nodiscard]] std::string trim_window(std::string window,
                                      const std::string& candidate,
                                      std::size_t budget);

}  // namespace qadist::qa
