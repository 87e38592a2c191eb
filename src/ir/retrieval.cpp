#include "ir/retrieval.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace qadist::ir {

namespace {

/// Gathers the postings lists for each term; returns false (empty AND) if
/// any term is absent from the index.
bool gather(const InvertedIndex& index, std::span<const std::string> terms,
            std::vector<std::span<const Posting>>& lists) {
  lists.clear();
  for (const auto& term : terms) {
    const auto p = index.postings(term);
    if (p.empty()) return false;
    lists.push_back(p);
  }
  return true;
}

/// Galloping lower_bound: exponential probe then binary search. `hint` is
/// the position to start from (monotonically advancing across calls).
std::size_t gallop_to(std::span<const Posting> list, std::size_t hint,
                      std::uint64_t key) {
  std::size_t lo = hint;
  std::size_t step = 1;
  while (lo + step < list.size() && list[lo + step].key() < key) {
    lo += step;
    step <<= 1;
  }
  const std::size_t hi = std::min(lo + step + 1, list.size());
  const auto it = std::lower_bound(
      list.begin() + static_cast<std::ptrdiff_t>(lo),
      list.begin() + static_cast<std::ptrdiff_t>(hi), key,
      [](const Posting& p, std::uint64_t k) { return p.key() < k; });
  return static_cast<std::size_t>(it - list.begin());
}

}  // namespace

std::vector<ParagraphMatch> intersect_all(const InvertedIndex& index,
                                          std::span<const std::string> terms) {
  std::vector<ParagraphMatch> out;
  if (terms.empty()) return out;
  std::vector<std::span<const Posting>> lists;
  if (!gather(index, terms, lists)) return out;

  // Drive from the shortest list; gallop the others.
  std::sort(lists.begin(), lists.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  const auto pivot = lists.front();
  std::vector<std::size_t> cursors(lists.size(), 0);

  for (const Posting& candidate : pivot) {
    const std::uint64_t key = candidate.key();
    std::uint32_t tf = candidate.tf;
    bool in_all = true;
    for (std::size_t l = 1; l < lists.size(); ++l) {
      auto& cur = cursors[l];
      cur = gallop_to(lists[l], cur, key);
      if (cur >= lists[l].size() || lists[l][cur].key() != key) {
        in_all = false;
        break;
      }
      tf += lists[l][cur].tf;
    }
    if (in_all) {
      out.push_back(ParagraphMatch{
          corpus::ParagraphRef{candidate.doc, candidate.paragraph},
          static_cast<std::uint32_t>(lists.size()), tf});
    }
  }
  return out;
}

std::vector<ParagraphMatch> intersect_all_linear(
    const InvertedIndex& index, std::span<const std::string> terms) {
  std::vector<ParagraphMatch> out;
  if (terms.empty()) return out;
  std::vector<std::span<const Posting>> lists;
  if (!gather(index, terms, lists)) return out;

  std::vector<std::size_t> cursors(lists.size(), 0);
  for (;;) {
    // Find the max current key; advance everyone to it.
    std::uint64_t max_key = 0;
    for (std::size_t l = 0; l < lists.size(); ++l) {
      if (cursors[l] >= lists[l].size()) return out;
      max_key = std::max(max_key, lists[l][cursors[l]].key());
    }
    bool aligned = true;
    std::uint32_t tf = 0;
    for (std::size_t l = 0; l < lists.size(); ++l) {
      auto& cur = cursors[l];
      while (cur < lists[l].size() && lists[l][cur].key() < max_key) ++cur;
      if (cur >= lists[l].size()) return out;
      if (lists[l][cur].key() != max_key) {
        aligned = false;
      } else {
        tf += lists[l][cur].tf;
      }
    }
    if (aligned) {
      const Posting& p = lists[0][cursors[0]];
      out.push_back(ParagraphMatch{corpus::ParagraphRef{p.doc, p.paragraph},
                                   static_cast<std::uint32_t>(lists.size()),
                                   tf});
      for (auto& cur : cursors) ++cur;
    }
  }
}

std::vector<ParagraphMatch> union_count(const InvertedIndex& index,
                                        std::span<const std::string> terms) {
  // k-way merge over sorted postings, counting distinct matched terms.
  struct Cursor {
    std::span<const Posting> list;
    std::size_t pos;
  };
  std::vector<Cursor> cursors;
  for (const auto& term : terms) {
    const auto p = index.postings(term);
    if (!p.empty()) cursors.push_back(Cursor{p, 0});
  }
  std::vector<ParagraphMatch> out;
  while (!cursors.empty()) {
    std::uint64_t min_key = ~std::uint64_t{0};
    for (const auto& c : cursors)
      min_key = std::min(min_key, c.list[c.pos].key());
    ParagraphMatch match;
    match.ref = corpus::ParagraphRef{
        static_cast<corpus::DocId>(min_key >> 32),
        static_cast<std::uint32_t>(min_key & 0xffffffff)};
    for (auto it = cursors.begin(); it != cursors.end();) {
      if (it->list[it->pos].key() == min_key) {
        ++match.keywords_present;
        match.total_tf += it->list[it->pos].tf;
        if (++it->pos >= it->list.size()) {
          it = cursors.erase(it);
          continue;
        }
      }
      ++it;
    }
    out.push_back(match);
  }
  return out;
}

std::vector<ParagraphMatch> retrieve(const InvertedIndex& index,
                                     std::span<const std::string> terms,
                                     std::size_t min_paragraphs) {
  if (terms.empty()) return {};
  // One union pass gives every relaxation level at once; then lower the
  // required distinct-keyword count until enough paragraphs qualify.
  std::vector<ParagraphMatch> all = union_count(index, terms);
  for (std::uint32_t required = static_cast<std::uint32_t>(terms.size());
       required >= 1; --required) {
    std::vector<ParagraphMatch> selected;
    for (const auto& m : all) {
      if (m.keywords_present >= required) selected.push_back(m);
    }
    if (selected.size() >= min_paragraphs || required == 1) return selected;
  }
  return {};
}

}  // namespace qadist::ir
