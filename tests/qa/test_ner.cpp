#include "qa/ner.hpp"

#include <gtest/gtest.h>

#include "qa/text_match.hpp"
#include "support/analyzed_text.hpp"

namespace qadist::qa {
namespace {

using corpus::EntityType;

class NerTest : public ::testing::Test {
 protected:
  NerTest() {
    gazetteer_.add("Port Amsen", EntityType::kLocation);
    gazetteer_.add("Doran Veltis", EntityType::kPerson);
    gazetteer_.add("Amsen Steel Works", EntityType::kOrganization);
    gazetteer_.add("the Amsen Lighthouse", EntityType::kLocation);
    gazetteer_.add("Velinosis", EntityType::kDisease);
  }

  /// A mention with its surface text.
  struct Found : EntityMention {
    std::string text;
  };

  /// recognize_text's mentions of `text`, each with its surface form.
  std::vector<Found> recognize(std::string text) const {
    const RetrievedParagraph p{corpus::ParagraphRef{0, 0}, text, 0};
    const auto analysis = testing::analyze_paragraphs(p, analyzer_, ner_);
    std::vector<Found> out;
    for (const auto& m : ner_.recognize_text(p.text)) {
      out.push_back(Found{
          m, surface_span(analysis.of(p), m.first_token, m.token_count)});
    }
    return out;
  }

  corpus::Gazetteer gazetteer_;
  ir::Analyzer analyzer_;
  EntityRecognizer ner_{gazetteer_, analyzer_};
};

TEST_F(NerTest, FindsGazetteerEntities) {
  const auto mentions =
      recognize("Doran Veltis sailed to Port Amsen yesterday .");
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].type, EntityType::kPerson);
  EXPECT_EQ(mentions[0].text, "Doran Veltis");
  EXPECT_EQ(mentions[1].type, EntityType::kLocation);
  EXPECT_EQ(mentions[1].text, "Port Amsen");
}

TEST_F(NerTest, PrefersLongestMatch) {
  // "Amsen Steel Works" must win over any shorter prefix.
  const auto mentions = recognize("workers at Amsen Steel Works");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].type, EntityType::kOrganization);
  EXPECT_EQ(mentions[0].token_count, 3u);
}

TEST_F(NerTest, ArticleLedEntity) {
  const auto mentions =
      recognize("the Amsen Lighthouse is located in Port Amsen .");
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].text, "the Amsen Lighthouse");
}

TEST_F(NerTest, DatePatterns) {
  const auto full = recognize("founded in March 14 , 1912 .");
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].type, EntityType::kDate);
  EXPECT_EQ(full[0].token_count, 3u);

  const auto year_only = recognize("built around 1885 by settlers");
  ASSERT_EQ(year_only.size(), 1u);
  EXPECT_EQ(year_only[0].type, EntityType::kDate);
  EXPECT_LT(year_only[0].confidence, 1.0);
}

TEST_F(NerTest, MoneyPattern) {
  const auto mentions = recognize("it cost $ 12 million overall");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].type, EntityType::kMoney);
  EXPECT_EQ(mentions[0].text, "$ 12 million");
}

TEST_F(NerTest, QuantityPattern) {
  const auto mentions = recognize("a population of 3400000 people");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].type, EntityType::kQuantity);
  EXPECT_EQ(mentions[0].text, "3400000");
}

TEST_F(NerTest, SmallNumbersIgnored) {
  const auto mentions = recognize("we saw 12 ships and 42 gulls");
  EXPECT_TRUE(mentions.empty());
}

TEST_F(NerTest, UncapitalizedWordsNotLookedUp) {
  // "velinosis" in lowercase prose: the gazetteer scan requires a
  // capitalized opener, so only the capitalized mention is found.
  const auto mentions =
      recognize("Velinosis spreads fast ; velinosis is rare");
  // Lowercase "velinosis" is skipped by the capitalization gate.
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].first_token, 0u);
}

TEST_F(NerTest, EmptyText) {
  EXPECT_TRUE(recognize("").empty());
}

TEST_F(NerTest, MentionsAreNonOverlapping) {
  const auto mentions = recognize(
      "Doran Veltis met Doran Veltis at Port Amsen near Port Amsen in March "
      "3 , 1920 with $ 5 million and 123456 coins");
  for (std::size_t i = 1; i < mentions.size(); ++i) {
    EXPECT_GE(mentions[i].first_token,
              mentions[i - 1].first_token + mentions[i - 1].token_count);
  }
  // 2x person, 2x location, date, money, quantity.
  EXPECT_EQ(mentions.size(), 7u);
}

}  // namespace
}  // namespace qadist::qa
