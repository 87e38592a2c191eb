// The paper's 50/250-byte answer presentation (Table 1): answers trim to
// the configured byte budget with the candidate kept inside.

#include <gtest/gtest.h>

#include "qa/answer_processing.hpp"
#include "qa/paragraph_scoring.hpp"
#include "qa/question_processing.hpp"
#include "support/analyzed_text.hpp"

namespace qadist::qa {
namespace {

using corpus::EntityType;

class AnswerWindowTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  AnswerWindowTest() : qp_(analyzer_), ner_(gazetteer_, analyzer_) {
    gazetteer_.add("Port Varen", EntityType::kLocation);
    gazetteer_.add("the Amsen Lighthouse", EntityType::kLocation);
    std::string filler;
    for (int i = 0; i < 40; ++i) filler += "wordy filler text segment ";
    long_text_ =
        filler + "the Amsen Lighthouse is located in Port Varen . " + filler;
  }

  RetrievedParagraph long_paragraph() const {
    return RetrievedParagraph{corpus::ParagraphRef{0, 0}, long_text_, 0};
  }

  std::string long_text_;
  corpus::Gazetteer gazetteer_;
  ir::Analyzer analyzer_;
  QuestionProcessor qp_;
  EntityRecognizer ner_;
};

TEST_P(AnswerWindowTest, WindowRespectsByteBudget) {
  AnswerProcessor::Config cfg;
  cfg.answer_window_bytes = GetParam();
  AnswerProcessor ap(cfg);
  const auto p = long_paragraph();
  const auto analysis = testing::analyze_paragraphs(p, analyzer_, ner_);
  const auto q =
      analysis.resolve(qp_.process(0, "Where is the Amsen Lighthouse ?"));
  auto scored = ParagraphScorer().score(q, p, analysis);
  scored.score = 0.8;
  const auto answers = ap.process_paragraph(q, scored, analysis);
  ASSERT_FALSE(answers.empty());
  for (const auto& a : answers) {
    EXPECT_LE(a.window.size(), GetParam())
        << "window '" << a.window << "'";
    EXPECT_NE(a.window.find(a.candidate), std::string::npos)
        << "candidate trimmed out of its own window";
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, AnswerWindowTest,
                         ::testing::Values(50u, 100u, 250u),
                         [](const auto& info) {
                           return "bytes" + std::to_string(info.param);
                         });

TEST(AnswerWindowDefaultTest, ShortWindowsUntouched) {
  corpus::Gazetteer gazetteer;
  gazetteer.add("Port Varen", EntityType::kLocation);
  gazetteer.add("the Amsen Lighthouse", EntityType::kLocation);
  ir::Analyzer analyzer;
  QuestionProcessor qp(analyzer);
  EntityRecognizer ner(gazetteer, analyzer);
  AnswerProcessor ap;
  const RetrievedParagraph p{corpus::ParagraphRef{0, 0},
                             "the Amsen Lighthouse is located in Port Varen .",
                             0};
  const auto analysis = testing::analyze_paragraphs(p, analyzer, ner);
  const auto q =
      analysis.resolve(qp.process(0, "Where is the Amsen Lighthouse ?"));
  auto scored = ParagraphScorer().score(q, p, analysis);
  scored.score = 0.8;
  const auto answers = ap.process_paragraph(q, scored, analysis);
  ASSERT_FALSE(answers.empty());
  // The window is shorter than the 250-byte default: intact.
  EXPECT_NE(answers[0].window.find("located in Port Varen"),
            std::string::npos);
}

}  // namespace
}  // namespace qadist::qa
