#include "qa/answer_processing.hpp"

#include <gtest/gtest.h>

#include "qa/question_processing.hpp"
#include "support/analyzed_text.hpp"

namespace qadist::qa {
namespace {

using corpus::EntityType;

class ApTest : public ::testing::Test {
 protected:
  ApTest() : qp_(analyzer_), ner_(gazetteer_, analyzer_) {
    gazetteer_.add("Port Varen", EntityType::kLocation);
    gazetteer_.add("Lake Tarnin", EntityType::kLocation);
    gazetteer_.add("Doran Veltis", EntityType::kPerson);
    gazetteer_.add("the Amsen Lighthouse", EntityType::kLocation);
    gazetteer_.add("Amsen Steel Works", EntityType::kOrganization);
  }

  ScoredParagraph make_paragraph(std::string text, double score = 0.8,
                                 corpus::DocId doc = 0,
                                 std::uint32_t idx = 0) {
    return ScoredParagraph{
        RetrievedParagraph{corpus::ParagraphRef{doc, idx}, std::move(text), 0},
        score};
  }

  /// AP on a free paragraph through its own analysis.
  std::vector<Answer> process_paragraph(const ProcessedQuestion& q,
                                        const ScoredParagraph& p,
                                        AnswerWork* work = nullptr) const {
    const auto analysis =
        testing::analyze_paragraphs(p.paragraph, analyzer_, ner_);
    return ap_.process_paragraph(q, p, analysis, work);
  }

  corpus::Gazetteer gazetteer_;
  ir::Analyzer analyzer_;
  QuestionProcessor qp_;
  EntityRecognizer ner_;
  AnswerProcessor ap_;
};

TEST_F(ApTest, ExtractsTypedCandidate) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  const auto answers = process_paragraph(
      q, make_paragraph("the Amsen Lighthouse is located in Port Varen ."));
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].candidate, "Port Varen");
  EXPECT_EQ(answers[0].type, EntityType::kLocation);
  EXPECT_GT(answers[0].score, 0.0);
  EXPECT_NE(answers[0].window.find("Port Varen"), std::string::npos);
}

TEST_F(ApTest, SubjectIsNeverItsOwnAnswer) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  // Only the subject entity appears — no valid candidate remains.
  const auto answers = process_paragraph(
      q, make_paragraph("the Amsen Lighthouse shines at night ."));
  EXPECT_TRUE(answers.empty());
}

TEST_F(ApTest, WrongTypeCandidatesFiltered) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  const auto answers = process_paragraph(
      q, make_paragraph(
             "Doran Veltis painted the Amsen Lighthouse in March 3 , 1901 ."));
  // PERSON and DATE candidates must be dropped for a LOCATION question.
  EXPECT_TRUE(answers.empty());
}

TEST_F(ApTest, UnknownTypeAcceptsAnyEntity) {
  const auto q = qp_.process(0, "Tell me about the Amsen Lighthouse");
  ASSERT_EQ(q.answer_type, EntityType::kUnknown);
  const auto answers = process_paragraph(
      q, make_paragraph("Doran Veltis painted the Amsen Lighthouse ."));
  ASSERT_FALSE(answers.empty());
}

TEST_F(ApTest, CloserCandidateScoresHigher) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  const auto near = process_paragraph(
      q, make_paragraph("the Amsen Lighthouse is located in Port Varen ."));
  const auto far = process_paragraph(
      q, make_paragraph("the Amsen Lighthouse was commissioned long ago by "
                        "the harbor council and painted white and red and "
                        "after many storms it still guides ships toward "
                        "Lake Tarnin ."));
  ASSERT_EQ(near.size(), 1u);
  ASSERT_EQ(far.size(), 1u);
  EXPECT_GT(near[0].score, far[0].score);
}

TEST_F(ApTest, CandidateWithNoNearbyKeywordDropped) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  // Keywords never occur: candidate has no window.
  const auto answers =
      process_paragraph(q, make_paragraph("Port Varen is sunny ."));
  EXPECT_TRUE(answers.empty());
}

TEST_F(ApTest, ProcessBatchDeduplicatesAndLimits) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  std::vector<ScoredParagraph> batch;
  batch.push_back(make_paragraph(
      "the Amsen Lighthouse is located in Port Varen .", 0.9, 0, 0));
  batch.push_back(make_paragraph(
      "some say the Amsen Lighthouse is located in Port Varen indeed .", 0.8,
      1, 0));
  batch.push_back(make_paragraph(
      "the Amsen Lighthouse is near Lake Tarnin .", 0.7, 2, 0));
  AnswerWork work;
  const auto analysis = testing::analyze_paragraphs(batch, analyzer_, ner_);
  const auto answers = ap_.process(q, batch, analysis, &work);
  // Two distinct candidates, Port Varen deduplicated across paragraphs.
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].candidate, "Port Varen");
  EXPECT_EQ(answers[1].candidate, "Lake Tarnin");
  EXPECT_EQ(work.paragraphs_processed, 3u);
  EXPECT_GT(work.candidates_considered, 0u);
}

TEST_F(ApTest, WorkCountersAccumulate) {
  const auto q = qp_.process(0, "Where is the Amsen Lighthouse ?");
  AnswerWork work;
  (void)process_paragraph(
      q, make_paragraph("the Amsen Lighthouse is located in Port Varen ."),
      &work);
  EXPECT_EQ(work.paragraphs_processed, 1u);
  EXPECT_GT(work.tokens_scanned, 5u);
  EXPECT_GE(work.windows_scored, 1u);
}

TEST(SortAnswersTest, SortsDescendingDeduplicates) {
  std::vector<Answer> answers;
  Answer a;
  a.candidate = "X";
  a.score = 0.5;
  answers.push_back(a);
  a.candidate = "Y";
  a.score = 0.9;
  answers.push_back(a);
  a.candidate = "X";
  a.score = 0.7;  // better window for X
  answers.push_back(a);

  const auto sorted = sort_answers(std::move(answers), 10);
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].candidate, "Y");
  EXPECT_EQ(sorted[1].candidate, "X");
  EXPECT_DOUBLE_EQ(sorted[1].score, 0.7);
}

TEST(SortAnswersTest, LimitTruncates) {
  std::vector<Answer> answers;
  for (int i = 0; i < 10; ++i) {
    Answer a;
    a.candidate = "c" + std::to_string(i);
    a.score = i * 0.1;
    answers.push_back(a);
  }
  EXPECT_EQ(sort_answers(std::move(answers), 3).size(), 3u);
}

TEST(SortAnswersTest, EmptyInput) {
  EXPECT_TRUE(sort_answers({}, 5).empty());
}

}  // namespace
}  // namespace qadist::qa
