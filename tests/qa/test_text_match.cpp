#include "qa/text_match.hpp"

#include <gtest/gtest.h>

#include "support/analyzed_text.hpp"

namespace qadist::qa {
namespace {

class TextMatchTest : public ::testing::Test {
 protected:
  /// `text` analyzed as one paragraph.
  CorpusAnalysis analyze(std::string_view text) const {
    return testing::analyze_paragraphs(
        RetrievedParagraph{corpus::ParagraphRef{0, 0}, text, 0}, analyzer_,
        ner_);
  }

  /// The keyword hits of `text` for `keywords`, resolved against its
  /// analysis.
  std::vector<ir::KeywordHit> hits(std::string_view text,
                                   std::vector<std::string> keywords) const {
    const auto analysis = analyze(text);
    ProcessedQuestion question;
    question.keywords = std::move(keywords);
    ir::KeywordHits out;
    keyword_hits(analysis.of(corpus::ParagraphRef{0, 0}),
                 analysis.resolve(question), out);
    return {out.view().begin(), out.view().end()};
  }

  /// (position, keyword) of each hit.
  using Pairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  static Pairs pairs(std::span<const ir::KeywordHit> hits) {
    Pairs out;
    for (const auto& hit : hits) out.emplace_back(hit.position, hit.keyword);
    return out;
  }

  corpus::Gazetteer gazetteer_;
  ir::Analyzer analyzer_;
  EntityRecognizer ner_{gazetteer_, analyzer_};
};

TEST_F(TextMatchTest, HitsStemmedKeywords) {
  // "he"(0) "founded"(1) -> "found" "the"(2, stopword) "amsen"(3)
  // "works"(4) -> "work", not a keyword.
  EXPECT_EQ(pairs(hits("he founded the Amsen works", {"found", "amsen"})),
            (Pairs{{1, 0}, {3, 1}}));
}

TEST_F(TextMatchTest, NumericTokensMatchVerbatim) {
  EXPECT_EQ(pairs(hits("population of 340000 people", {"340000"})),
            (Pairs{{2, 0}}));
}

TEST_F(TextMatchTest, FirstMatchingKeywordWins) {
  // A token matching multiple keywords hits the first (question order).
  EXPECT_EQ(pairs(hits("amsen", {"amsen", "amsen"})), (Pairs{{0, 0}}));
}

TEST_F(TextMatchTest, EmptyInputs) {
  EXPECT_TRUE(hits("", {}).empty());
  EXPECT_TRUE(hits("some words", {}).empty());
  EXPECT_TRUE(hits("", {"amsen"}).empty());
}

TEST_F(TextMatchTest, KeywordAbsentFromTheLexiconNeverHits) {
  const auto analysis = analyze("the amsen lighthouse");
  ProcessedQuestion question;
  question.keywords = {"zzyzx", "amsen"};
  question = analysis.resolve(question);
  ASSERT_EQ(question.keyword_norms.norms.size(), 2u);
  EXPECT_EQ(question.keyword_norms.norms[0], ir::kNoNorm);
  ir::KeywordHits out;
  keyword_hits(analysis.of(corpus::ParagraphRef{0, 0}), question, out);
  EXPECT_EQ(pairs(out.view()), (Pairs{{1, 1}}));
  EXPECT_EQ(out.resolution(), question.keyword_norms.resolution);
}

// Hits beyond the inline capacity move to the heap and read the same, in
// position order; a later list replaces an overflowed one entirely.
TEST_F(TextMatchTest, HitsBeyondTheInlineCapacity) {
  std::string text;
  Pairs want;
  for (std::uint32_t i = 0; i < 3 * ir::KeywordHits::kInline; ++i) {
    text += "amsen filler ";
    want.emplace_back(2 * i, 0);
  }
  EXPECT_EQ(pairs(hits(text, {"amsen"})), want);

  const auto analysis = analyze(text);
  const auto paragraph = analysis.of(corpus::ParagraphRef{0, 0});
  ProcessedQuestion question;
  question.keywords = {"amsen"};
  const auto many = analysis.resolve(question);
  question.keywords = {"zzyzx"};
  const auto none = analysis.resolve(question);
  ir::KeywordHits out;
  keyword_hits(paragraph, many, out);
  EXPECT_EQ(pairs(out.view()), want);
  EXPECT_EQ(out.resolution(), many.keyword_norms.resolution);
  keyword_hits(paragraph, none, out);
  EXPECT_TRUE(out.view().empty());
  EXPECT_EQ(out.resolution(), none.keyword_norms.resolution);
  EXPECT_NE(many.keyword_norms.resolution, none.keyword_norms.resolution);
}

TEST_F(TextMatchTest, SurfaceSpanRecapitalizes) {
  const auto analysis = analyze("the Amsen Lighthouse is TALL");
  const auto text = analysis.of(corpus::ParagraphRef{0, 0});
  EXPECT_EQ(surface_span(text, 0, 3), "the Amsen Lighthouse");
  EXPECT_EQ(surface_span(text, 4, 1), "Tall");  // only first letter restored
}

TEST_F(TextMatchTest, SurfaceSpanClampsAtEnd) {
  const auto analysis = analyze("one two");
  const auto text = analysis.of(corpus::ParagraphRef{0, 0});
  EXPECT_EQ(surface_span(text, 1, 10), "two");
  EXPECT_EQ(surface_span(text, 5, 2), "");
}

}  // namespace
}  // namespace qadist::qa
