#include "qa/text_match.hpp"

#include <gtest/gtest.h>

#include "support/analyzed_text.hpp"

namespace qadist::qa {
namespace {

class TextMatchTest : public ::testing::Test {
 protected:
  /// `text` analyzed as one paragraph.
  struct Analyzed {
    RetrievedParagraph paragraph;
    CorpusAnalysis analysis;
    [[nodiscard]] AnalyzedParagraph view() const {
      return analysis.of(paragraph);
    }
  };

  Analyzed analyze(std::string text) const {
    RetrievedParagraph p{corpus::ParagraphRef{0, 0}, std::move(text), 0};
    auto analysis = testing::analyze_paragraphs(p, analyzer_, ner_);
    return Analyzed{std::move(p), std::move(analysis)};
  }

  corpus::Gazetteer gazetteer_;
  ir::Analyzer analyzer_;
  EntityRecognizer ner_{gazetteer_, analyzer_};
};

TEST_F(TextMatchTest, MapsStemmedKeywords) {
  const std::vector<std::string> keywords = {"found", "amsen"};
  const auto text = analyze("he founded the Amsen works");
  const auto map = map_keywords(text.view(), keywords);
  ASSERT_EQ(map.size(), 5u);
  EXPECT_EQ(map[0], -1);  // "he"
  EXPECT_EQ(map[1], 0);   // "founded" -> "found"
  EXPECT_EQ(map[2], -1);  // "the" (stopword)
  EXPECT_EQ(map[3], 1);   // "amsen"
  EXPECT_EQ(map[4], -1);  // "works" -> "work" not a keyword
}

TEST_F(TextMatchTest, NumericTokensMatchVerbatim) {
  const std::vector<std::string> keywords = {"340000"};
  const auto text = analyze("population of 340000 people");
  const auto map = map_keywords(text.view(), keywords);
  EXPECT_EQ(map[2], 0);
}

TEST_F(TextMatchTest, FirstMatchingKeywordWins) {
  // A token matching multiple keywords maps to the first (question order).
  const std::vector<std::string> keywords = {"amsen", "amsen"};
  const auto text = analyze("amsen");
  EXPECT_EQ(map_keywords(text.view(), keywords)[0], 0);
}

TEST_F(TextMatchTest, EmptyInputs) {
  EXPECT_TRUE(map_keywords(analyze("").view(), {}).empty());
  const auto text = analyze("some words");
  const auto map = map_keywords(text.view(), {});
  for (int m : map) EXPECT_EQ(m, -1);
}

TEST_F(TextMatchTest, SurfaceSpanRecapitalizes) {
  const auto text = analyze("the Amsen Lighthouse is TALL");
  EXPECT_EQ(surface_span(text.view(), 0, 3), "the Amsen Lighthouse");
  EXPECT_EQ(surface_span(text.view(), 4, 1), "Tall");  // only first letter restored
}

TEST_F(TextMatchTest, SurfaceSpanClampsAtEnd) {
  const auto text = analyze("one two");
  EXPECT_EQ(surface_span(text.view(), 1, 10), "two");
  EXPECT_EQ(surface_span(text.view(), 5, 2), "");
}

}  // namespace
}  // namespace qadist::qa
