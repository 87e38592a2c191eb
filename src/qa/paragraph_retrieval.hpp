#pragma once

#include <span>
#include <vector>

#include "corpus/collection.hpp"
#include "ir/inverted_index.hpp"
#include "ir/retrieval.hpp"
#include "qa/question.hpp"

namespace qadist::qa {

/// Work accounting emitted by a PR call — feeds the simulator's cost model
/// (PR is 80% disk I/O on the paper's platform, Table 3).
struct RetrievalWork {
  std::size_t postings_scanned = 0;
  std::size_t paragraphs_returned = 0;
  /// FALCON cost proxy: the text bytes of the returned paragraphs, which
  /// FALCON's PR reads from disk and ships. The host code copies none of
  /// it (RetrievedParagraph views the collection).
  std::size_t bytes_materialized = 0;
};

/// Paragraph Retrieval (PR): Boolean retrieval against one sub-collection's
/// index, returning the matching paragraphs as views of their text in the
/// collection.
/// The iterative unit is the sub-collection (paper Table 2), which is what
/// the PR dispatcher partitions across nodes.
class ParagraphRetriever {
 public:
  /// @param min_paragraphs relaxation target per sub-collection: keep
  ///   relaxing the required-keyword count until at least this many match.
  ParagraphRetriever(const corpus::Collection& collection,
                     std::size_t min_paragraphs)
      : collection_(&collection), min_paragraphs_(min_paragraphs) {}

  /// Retrieves from one sub-collection index. Thread-safe (const index,
  /// const collection).
  [[nodiscard]] std::vector<RetrievedParagraph> retrieve(
      const ir::InvertedIndex& index, const ProcessedQuestion& question,
      RetrievalWork* work = nullptr) const;

 private:
  const corpus::Collection* collection_;
  std::size_t min_paragraphs_;
};

}  // namespace qadist::qa
