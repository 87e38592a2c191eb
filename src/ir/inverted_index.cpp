#include "ir/inverted_index.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "ir/binary_io.hpp"

namespace qadist::ir {

namespace {
constexpr std::uint32_t kIndexMagic = 0x51414958;  // "QAIX"
// Version 2: postings are delta-encoded varints — each entry stores the
// gap between successive (doc, paragraph) keys plus the term frequency,
// all LEB128-encoded. Typical gaps and frequencies are small, so index
// files shrink several-fold versus the fixed-width v1 layout.
constexpr std::uint32_t kIndexVersion = 2;
}  // namespace

InvertedIndex InvertedIndex::build(const corpus::SubCollection& sub,
                                   const CollectionAnalysis& analysis) {
  const Lexicon& lexicon = analysis.lexicon();
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  std::vector<std::uint32_t> slot_of(lexicon.norm_count(), kUnseen);
  std::vector<NormId> norms;
  // Calls visit(norm, doc, paragraph, tf) for every distinct norm of every
  // paragraph of the sub-collection, in (doc, paragraph) order.
  const auto for_each_posting = [&](auto&& visit) {
    for (corpus::DocId doc = sub.first(); doc < sub.last(); ++doc) {
      const auto& texts = sub.document(doc).paragraphs;
      for (std::uint32_t p = 0; p < texts.size(); ++p) {
        const std::uint32_t ordinal = analysis.ordinal({doc, p});
        QADIST_CHECK(analysis.text_bytes(ordinal) == texts[p].size(),
                     << "paragraph (" << doc << ", " << p
                     << ") is not the analyzed text");
        norms.clear();
        for (const WordToken t : analysis.tokens(ordinal)) {
          const NormId norm = lexicon.norm(t.word());
          if (norm != kStopword) norms.push_back(norm);
        }
        std::sort(norms.begin(), norms.end());
        for (std::size_t i = 0; i < norms.size();) {
          std::size_t j = i + 1;
          while (j < norms.size() && norms[j] == norms[i]) ++j;
          visit(norms[i], doc, p, static_cast<std::uint32_t>(j - i));
          i = j;
        }
      }
    }
  };

  // Pass 1: give each term a slot at its first occurrence and count its
  // paragraphs; pass 2 fills the postings array through per-slot cursors.
  // Paragraphs are visited in (doc, paragraph) order both times, so every
  // postings list comes out sorted.
  InvertedIndex index;
  std::vector<std::uint32_t> df;
  for_each_posting([&](NormId norm, corpus::DocId, std::uint32_t,
                       std::uint32_t) {
    if (slot_of[norm] == kUnseen) {
      slot_of[norm] = static_cast<std::uint32_t>(df.size());
      index.terms_.emplace(lexicon.norm_text(norm), slot_of[norm]);
      df.push_back(0);
    }
    ++df[slot_of[norm]];
  });
  index.offsets_.reserve(df.size() + 1);
  for (const std::uint32_t n : df) {
    index.offsets_.push_back(index.offsets_.back() + n);
  }
  index.postings_.resize(index.offsets_.back());
  std::vector<std::uint32_t> cursor(index.offsets_.begin(),
                                    index.offsets_.end() - 1);
  for_each_posting([&](NormId norm, corpus::DocId doc, std::uint32_t p,
                       std::uint32_t tf) {
    index.postings_[cursor[slot_of[norm]]++] = Posting{doc, p, tf};
  });
  for (corpus::DocId doc = sub.first(); doc < sub.last(); ++doc) {
    index.paragraph_count_ += sub.document(doc).paragraphs.size();
  }
  return index;
}

InvertedIndex InvertedIndex::build(const corpus::SubCollection& sub,
                                   const Analyzer& analyzer) {
  return build(sub, CollectionAnalysis(sub, analyzer));
}

std::span<const Posting> InvertedIndex::postings(std::string_view term) const {
  const auto it = terms_.find(term);
  if (it == terms_.end()) return {};
  return slice(it->second);
}

std::size_t InvertedIndex::document_frequency(std::string_view term) const {
  return postings(term).size();
}

std::size_t InvertedIndex::byte_size() const {
  std::size_t bytes = 0;
  for (const auto& [term, slot] : terms_) {
    bytes += term.size() + sizeof(std::uint32_t);
  }
  return bytes + postings_.size() * sizeof(Posting);
}

void InvertedIndex::save(std::ostream& out) const {
  BinaryWriter w(out);
  w.write_u32(kIndexMagic);
  w.write_u32(kIndexVersion);
  w.write_u64(paragraph_count_);
  w.write_u32(static_cast<std::uint32_t>(terms_.size()));
  // Emit terms in deterministic (sorted) order so files are reproducible.
  std::vector<const std::string*> ordered;
  ordered.reserve(terms_.size());
  std::vector<std::uint32_t> slots;
  for (const auto& [term, slot] : terms_) {
    ordered.push_back(&term);
    slots.push_back(slot);
  }
  std::vector<std::size_t> perm(ordered.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    return *ordered[a] < *ordered[b];
  });
  for (std::size_t i : perm) {
    w.write_string(*ordered[i]);
    const auto list = slice(slots[i]);
    w.write_u32(static_cast<std::uint32_t>(list.size()));
    std::uint64_t previous_key = 0;
    for (const Posting& p : list) {
      const std::uint64_t key = p.key();
      w.write_varint(key - previous_key);  // sorted: gaps are non-negative
      w.write_varint(p.tf);
      previous_key = key;
    }
  }
}

InvertedIndex InvertedIndex::load(std::istream& in) {
  BinaryReader r(in);
  QADIST_CHECK(r.read_u32() == kIndexMagic, << "not a qadist index file");
  const auto version = r.read_u32();
  QADIST_CHECK(version == kIndexVersion,
               << "unsupported index version " << version);
  InvertedIndex index;
  index.paragraph_count_ = r.read_u64();
  const std::uint32_t term_count = r.read_u32();
  index.offsets_.reserve(std::size_t{term_count} + 1);
  for (std::uint32_t t = 0; t < term_count; ++t) {
    std::string term = r.read_string();
    const std::uint32_t len = r.read_u32();
    std::uint64_t key = 0;
    for (std::uint32_t i = 0; i < len; ++i) {
      key += r.read_varint();
      const auto tf = static_cast<std::uint32_t>(r.read_varint());
      index.postings_.push_back(
          Posting{static_cast<corpus::DocId>(key >> 32),
                  static_cast<std::uint32_t>(key & 0xffffffff), tf});
    }
    index.terms_.emplace(std::move(term), t);
    index.offsets_.push_back(static_cast<std::uint32_t>(index.postings_.size()));
  }
  return index;
}

}  // namespace qadist::ir
