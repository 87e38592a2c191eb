#pragma once

#include <span>
#include <string>
#include <vector>

#include "qa/paragraph_analysis.hpp"

namespace qadist::qa {

/// Maps each paragraph token to the index of the first (analyzer-
/// normalized) keyword its norm equals, or -1; stopwords never match.
/// Shared by paragraph scoring and answer windowing so both stages agree
/// on what counts as a keyword hit. Integer matching only: each keyword is
/// looked up in the lexicon once, and each token's norm was computed when
/// the paragraph was analyzed.
[[nodiscard]] std::vector<int> map_keywords(
    const AnalyzedParagraph& paragraph, std::span<const std::string> keywords);

/// Space-joined surface form of a token range, re-capitalizing tokens whose
/// source was capitalized. (Punctuation between tokens is not recoverable.)
[[nodiscard]] std::string surface_span(const AnalyzedParagraph& paragraph,
                                       std::size_t first, std::size_t count);

}  // namespace qadist::qa
