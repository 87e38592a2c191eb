#include "qa/paragraph_ordering.hpp"
#include "qa/paragraph_scoring.hpp"

#include <gtest/gtest.h>

#include "qa/question_processing.hpp"
#include "support/analyzed_text.hpp"

namespace qadist::qa {
namespace {

class ScoringTest : public ::testing::Test {
 protected:
  ScoringTest() : qp_(analyzer_), ner_(gazetteer_, analyzer_) {}

  static RetrievedParagraph make_paragraph(std::string_view text,
                                           corpus::DocId doc = 0,
                                           std::uint32_t idx = 0) {
    return RetrievedParagraph{corpus::ParagraphRef{doc, idx}, text, 0};
  }

  /// Scores a free paragraph through its own analysis.
  ScoredParagraph score(const ProcessedQuestion& q,
                        RetrievedParagraph p) const {
    const auto analysis = testing::analyze_paragraphs(p, analyzer_, ner_);
    return scorer_.score(analysis.resolve(q), p, analysis);
  }

  corpus::Gazetteer gazetteer_;
  ir::Analyzer analyzer_;
  QuestionProcessor qp_;
  EntityRecognizer ner_;
  ParagraphScorer scorer_;
};

TEST_F(ScoringTest, AllKeywordsBeatSomeKeywords) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  const auto full = score(
      q, make_paragraph("the amsen lighthouse is located in port varen ."));
  const auto partial =
      score(q, make_paragraph("the lighthouse is very old ."));
  EXPECT_GT(full.score, partial.score);
}

TEST_F(ScoringTest, AdjacentKeywordsBeatScattered) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  const auto adjacent =
      score(q, make_paragraph("the amsen lighthouse stands here ."));
  const auto scattered = score(
      q, make_paragraph("amsen wool trade and later the harbor grew and a "
                        "lighthouse appeared ."));
  EXPECT_GT(adjacent.score, scattered.score);
}

TEST_F(ScoringTest, QuestionOrderBeatsReversedOrder) {
  const auto q = qp_.process(0, "Who founded Amsen Steel Works ?");
  // Keywords: found, amsen, steel, works (question order).
  const auto ordered = score(
      q, make_paragraph("records say he founded amsen steel works with ease"));
  const auto reversed = score(
      q, make_paragraph("records say works steel amsen founded with ease he"));
  EXPECT_GT(ordered.score, reversed.score);
}

TEST_F(ScoringTest, NoKeywordsScoresZero) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  const auto none =
      score(q, make_paragraph("unrelated words entirely here ."));
  EXPECT_DOUBLE_EQ(none.score, 0.0);
}

TEST_F(ScoringTest, ScoreIsBounded) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  const auto best =
      score(q, make_paragraph("amsen lighthouse"));
  EXPECT_LE(best.score, 1.0 + 1e-12);
  EXPECT_GE(best.score, 0.0);
}

TEST_F(ScoringTest, EmptyParagraph) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  const auto scored = score(q, make_paragraph(""));
  EXPECT_DOUBLE_EQ(scored.score, 0.0);
}

TEST_F(ScoringTest, ScoreAllPreservesOrderAndCount) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  std::vector<RetrievedParagraph> batch;
  batch.push_back(make_paragraph("amsen lighthouse", 0, 0));
  batch.push_back(make_paragraph("nothing", 0, 1));
  const auto analysis = testing::analyze_paragraphs(batch, analyzer_, ner_);
  const auto scored =
      scorer_.score_all(analysis.resolve(q), std::move(batch), analysis);
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_EQ(scored[0].paragraph.ref, (corpus::ParagraphRef{0, 0}));
  EXPECT_EQ(scored[1].paragraph.ref, (corpus::ParagraphRef{0, 1}));
}

// ---------------------------------------------------------------- ordering

ScoredParagraph sp(double score, corpus::DocId doc, std::uint32_t idx) {
  ScoredParagraph p;
  p.paragraph = RetrievedParagraph{corpus::ParagraphRef{doc, idx}, "", 0};
  p.score = score;
  return p;
}

TEST(OrderingTest, SortsDescending) {
  ParagraphOrderer::Config cfg;
  cfg.relative_threshold = 0.0;  // keep everything; this test is about order
  ParagraphOrderer po(cfg);
  auto out = po.order_and_filter({sp(0.2, 0, 0), sp(0.9, 1, 0), sp(0.6, 2, 0)});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].score, 0.9);
  EXPECT_DOUBLE_EQ(out[1].score, 0.6);
  EXPECT_DOUBLE_EQ(out[2].score, 0.2);
}

TEST(OrderingTest, ThresholdFilters) {
  ParagraphOrderer::Config cfg;
  cfg.relative_threshold = 0.5;
  cfg.max_accepted = 100;
  ParagraphOrderer po(cfg);
  auto out = po.order_and_filter(
      {sp(1.0, 0, 0), sp(0.6, 1, 0), sp(0.49, 2, 0), sp(0.1, 3, 0)});
  ASSERT_EQ(out.size(), 2u);  // 0.49 and 0.1 fall below 0.5 * 1.0
}

TEST(OrderingTest, MaxAcceptedCaps) {
  ParagraphOrderer::Config cfg;
  cfg.relative_threshold = 0.0;
  cfg.max_accepted = 2;
  ParagraphOrderer po(cfg);
  auto out = po.order_and_filter({sp(0.3, 0, 0), sp(0.2, 1, 0), sp(0.1, 2, 0)});
  EXPECT_EQ(out.size(), 2u);
}

TEST(OrderingTest, TieBreakIsDeterministic) {
  ParagraphOrderer po;
  auto out = po.order_and_filter({sp(0.5, 3, 0), sp(0.5, 1, 0), sp(0.5, 2, 0)});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].paragraph.ref.doc, 1u);
  EXPECT_EQ(out[1].paragraph.ref.doc, 2u);
  EXPECT_EQ(out[2].paragraph.ref.doc, 3u);
}

TEST(OrderingTest, EmptyInput) {
  ParagraphOrderer po;
  EXPECT_TRUE(po.order_and_filter({}).empty());
}

}  // namespace
}  // namespace qadist::qa
