#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"
#include "corpus/collection.hpp"
#include "ir/analysis.hpp"
#include "ir/analyzer.hpp"

namespace qadist::ir {

/// One postings entry: a term occurs `tf` times in paragraph
/// (`doc`, `paragraph`). Postings are sorted by (doc, paragraph), which is
/// what intersection/union evaluation relies on.
struct Posting {
  corpus::DocId doc = 0;
  std::uint32_t paragraph = 0;
  std::uint32_t tf = 0;

  [[nodiscard]] std::uint64_t key() const {
    return (static_cast<std::uint64_t>(doc) << 32) | paragraph;
  }
  friend bool operator==(const Posting&, const Posting&) = default;
};

/// Paragraph-granularity Boolean inverted index over one sub-collection —
/// our stand-in for the ZPrise Boolean IR engine the paper indexes each
/// TREC-9 sub-collection with.
///
/// Terms are analyzer-normalized (lowercase, stemmed, stopped). Every
/// postings list lives in one contiguous array, sliced by per-term offsets.
/// The index is immutable after build; queries are thread-safe reads, so
/// host-parallel PR partitions can share one instance.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Indexes every paragraph of a sub-collection from an analysis that
  /// covers it: each paragraph's norm ids are counted, and a term string
  /// is stored the first time its norm appears in the sub-collection.
  [[nodiscard]] static InvertedIndex build(const corpus::SubCollection& sub,
                                           const CollectionAnalysis& analysis);

  /// Analyzes the sub-collection alone, then builds from that analysis.
  [[nodiscard]] static InvertedIndex build(const corpus::SubCollection& sub,
                                           const Analyzer& analyzer);

  /// Postings for an (already analyzer-normalized) term; empty if absent.
  /// Allocation-free.
  [[nodiscard]] std::span<const Posting> postings(std::string_view term) const;

  /// Number of paragraphs containing the term (its postings length).
  [[nodiscard]] std::size_t document_frequency(std::string_view term) const;

  [[nodiscard]] std::size_t term_count() const { return terms_.size(); }
  [[nodiscard]] std::size_t posting_count() const { return postings_.size(); }
  [[nodiscard]] std::size_t paragraph_count() const { return paragraph_count_; }

  /// Approximate in-memory footprint; also the serialized size driver.
  [[nodiscard]] std::size_t byte_size() const;

  /// Visits every indexed term with its postings list. Iteration order is
  /// the hash map's (unspecified); callers that need a canonical order
  /// (e.g. stats serialization) must collect and sort. Used by the broker
  /// tier's collection-selection statistics extraction.
  template <typename Fn>
  void for_each_term(Fn&& fn) const {
    for (const auto& [term, slot] : terms_) {
      fn(std::string_view(term), slice(slot));
    }
  }

  /// Binary serialization (little-endian, versioned, magic-checked). The
  /// paper's PR module reads indexes from per-node disks; persistence makes
  /// that a real I/O path in host-mode experiments.
  void save(std::ostream& out) const;
  [[nodiscard]] static InvertedIndex load(std::istream& in);

 private:
  [[nodiscard]] std::span<const Posting> slice(std::uint32_t slot) const {
    return std::span<const Posting>(postings_).subspan(
        offsets_[slot], offsets_[slot + 1] - offsets_[slot]);
  }

  StringMap<std::uint32_t> terms_;           // term -> slot
  std::vector<std::uint32_t> offsets_{0};    // slot -> first posting; size T+1
  std::vector<Posting> postings_;            // every list, slot by slot
  std::size_t paragraph_count_ = 0;
};

}  // namespace qadist::ir
