#include "qa/answer_processing.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "qa/question_processing.hpp"
#include "support/analyzed_text.hpp"
#include "support/reference_qa.hpp"

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

  /// A free paragraph at (doc, idx) and the rank value AP should see.
  struct FreeParagraph {
    RetrievedParagraph paragraph;
    double score = 0.0;
  };

  static FreeParagraph make_paragraph(std::string_view text,
                                      double score = 0.8,
                                      corpus::DocId doc = 0,
                                      std::uint32_t idx = 0) {
    return {RetrievedParagraph{corpus::ParagraphRef{doc, idx}, text, 0},
            score};
  }

  /// The paragraphs through PS, for the resolved question `q`: each
  /// carries its keyword hits and the rank value it was made with.
  std::vector<ScoredParagraph> scored(const ProcessedQuestion& q,
                                      std::span<const FreeParagraph> batch,
                                      const CorpusAnalysis& analysis) const {
    std::vector<ScoredParagraph> out;
    for (const auto& p : batch) {
      out.push_back(scorer_.score(q, p.paragraph, analysis));
      out.back().score = p.score;
    }
    return out;
  }

  CorpusAnalysis analyze(std::span<const FreeParagraph> batch) const {
    std::vector<RetrievedParagraph> paragraphs;
    for (const auto& p : batch) paragraphs.push_back(p.paragraph);
    return testing::analyze_paragraphs(paragraphs, analyzer_, ner_);
  }

  /// AP on a free paragraph through its own analysis.
  std::vector<Answer> process_paragraph(const ProcessedQuestion& q,
                                        const FreeParagraph& p,
                                        AnswerWork* work = nullptr) const {
    const auto analysis = analyze(std::span(&p, 1));
    const auto resolved = analysis.resolve(q);
    return ap_.process_paragraph(
        resolved, scored(resolved, std::span(&p, 1), analysis).front(),
        analysis, work);
  }

  corpus::Gazetteer gazetteer_;
  ir::Analyzer analyzer_;
  QuestionProcessor qp_;
  EntityRecognizer ner_;
  ParagraphScorer scorer_;
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
  std::vector<FreeParagraph> batch;
  batch.push_back(make_paragraph(
      "the Amsen Lighthouse is located in Port Varen .", 0.9, 0, 0));
  batch.push_back(make_paragraph(
      "some say the Amsen Lighthouse is located in Port Varen indeed .", 0.8,
      1, 0));
  batch.push_back(make_paragraph(
      "the Amsen Lighthouse is near Lake Tarnin .", 0.7, 2, 0));
  AnswerWork work;
  const auto analysis = analyze(batch);
  const auto resolved = analysis.resolve(q);
  const auto answers =
      ap_.process(resolved, scored(resolved, batch, analysis), analysis, &work);
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

// --------------------------------------------------------------- TopAnswers

/// Offers `answers` to a TopAnswers in order, answer i from paragraph
/// `paragraph[i]`, and returns its list.
std::vector<Answer> top_of(const std::vector<Answer>& answers,
                           const std::vector<std::size_t>& paragraph,
                           std::size_t limit) {
  TopAnswers<Answer> top(limit);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    top.offer(answers[i], paragraph[i]);
  }
  std::vector<Answer> out;
  for (auto& ranked : top.take()) out.push_back(std::move(ranked.answer));
  return out;
}

std::vector<Answer> top_of(const std::vector<Answer>& answers,
                           std::size_t limit) {
  std::vector<std::size_t> paragraph(answers.size());
  for (std::size_t i = 0; i < paragraph.size(); ++i) paragraph[i] = i;
  return top_of(answers, paragraph, limit);
}

Answer answer(std::string candidate, double score, corpus::DocId doc = 0) {
  Answer a;
  a.candidate = std::move(candidate);
  a.score = score;
  a.ref = corpus::ParagraphRef{doc, 0};
  a.window = "window of " + a.candidate + " in " + std::to_string(doc);
  return a;
}

void expect_same(const std::vector<Answer>& got,
                 const std::vector<Answer>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].candidate, want[i].candidate) << i;
    EXPECT_EQ(got[i].window, want[i].window) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
    EXPECT_EQ(got[i].ref, want[i].ref) << i;
  }
}

TEST(TopAnswersTest, SortsDescendingDeduplicates) {
  std::vector<Answer> answers = {answer("X", 0.5), answer("Y", 0.9),
                                 answer("X", 0.7, 2)};  // better window for X
  const auto sorted = top_of(answers, 10);
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].candidate, "Y");
  EXPECT_EQ(sorted[1].candidate, "X");
  EXPECT_DOUBLE_EQ(sorted[1].score, 0.7);
  EXPECT_EQ(sorted[1].ref.doc, 2u);
  expect_same(sorted, testing::sort_answers(answers, 10));
}

TEST(TopAnswersTest, LimitTruncates) {
  std::vector<Answer> answers;
  for (int i = 0; i < 10; ++i) {
    answers.push_back(answer(std::to_string(i), i * 0.1));
  }
  expect_same(top_of(answers, 3), testing::sort_answers(answers, 3));
  EXPECT_EQ(top_of(answers, 3).size(), 3u);
  EXPECT_TRUE(top_of(answers, 0).empty());
}

TEST(TopAnswersTest, EmptyInput) { EXPECT_TRUE(top_of({}, 5).empty()); }

TEST(TopAnswersTest, EqualScoresKeepTheFirstAnswerAndSortByCandidate) {
  std::vector<Answer> answers = {answer("b", 0.5, 1), answer("a", 0.5, 2),
                                 answer("b", 0.5, 3), answer("c", 0.5, 4)};
  const auto top = top_of(answers, 2);
  expect_same(top, testing::sort_answers(answers, 2));
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].candidate, "a");
  EXPECT_EQ(top[1].ref.doc, 1u);  // b's first answer
}

// Random answer lists over few candidates and few scores (ties at every
// level): TopAnswers over the list in paragraph order is sort_answers' list
// in every field, and so is the merge of TopAnswers over any split of the
// list into worker shares, whatever order the shares are merged in.
TEST(TopAnswersTest, MatchesSortAnswersOnRandomTies) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = rng.uniform_u64(0, 40);
    const std::size_t limit = rng.uniform_u64(0, 6);
    std::vector<Answer> answers;
    std::vector<std::size_t> paragraph;
    std::size_t p = 0;
    for (std::size_t i = 0; i < n; ++i) {
      p += rng.uniform_u64(0, 1);  // several answers per paragraph
      answers.push_back(
          answer(std::string(1, static_cast<char>('a' + rng.uniform_u64(0, 7))),
                 0.125 * static_cast<double>(rng.uniform_u64(0, 4)),
                 static_cast<corpus::DocId>(p)));
      paragraph.push_back(p);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto want = testing::sort_answers(answers, limit);
    expect_same(top_of(answers, paragraph, limit), want);

    const std::size_t workers = rng.uniform_u64(1, 4);
    std::vector<TopAnswers<Answer>> tops(workers, TopAnswers<Answer>(limit));
    for (std::size_t i = 0; i < n; ++i) {
      tops[rng.uniform_u64(0, workers - 1)].offer(answers[i], paragraph[i]);
    }
    TopAnswers<Answer> merged(limit);
    for (std::size_t w = workers; w-- > 0;) {
      for (const auto& ranked : tops[w].take()) {
        merged.offer(ranked.answer, ranked.paragraph);
      }
    }
    std::vector<Answer> got;
    for (auto& ranked : merged.take()) got.push_back(std::move(ranked.answer));
    expect_same(got, want);
  }
}

// AP builds a candidate's text only when the running top admits its score.
// Offering only the admitted answers gives the top that offering every
// answer gives, in one top and in per-worker tops merged the same way: on
// random tie-heavy lists, both equal sort_answers' list in every field.
TEST(TopAnswersTest, OfferingOnlyAdmittedAnswersKeepsTheTop) {
  Rng rng(1913);
  std::size_t skipped = 0;
  const auto offer_admitted = [&](TopAnswers<Answer>& top, const Answer& a,
                                  std::size_t paragraph) {
    if (!top.admits(a.score)) {
      ++skipped;
      return;
    }
    top.offer(a, paragraph);
  };
  const auto take = [](TopAnswers<Answer>& top) {
    std::vector<Answer> out;
    for (auto& ranked : top.take()) out.push_back(std::move(ranked.answer));
    return out;
  };
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = rng.uniform_u64(0, 40);
    const std::size_t limit = rng.uniform_u64(0, 6);
    std::vector<Answer> answers;
    std::vector<std::size_t> paragraph;
    std::size_t p = 0;
    for (std::size_t i = 0; i < n; ++i) {
      p += rng.uniform_u64(0, 1);
      answers.push_back(
          answer(std::string(1, static_cast<char>('a' + rng.uniform_u64(0, 7))),
                 0.125 * static_cast<double>(rng.uniform_u64(0, 4)),
                 static_cast<corpus::DocId>(p)));
      paragraph.push_back(p);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto want = top_of(answers, paragraph, limit);
    expect_same(want, testing::sort_answers(answers, limit));

    TopAnswers<Answer> one(limit);
    for (std::size_t i = 0; i < n; ++i) {
      offer_admitted(one, answers[i], paragraph[i]);
    }
    expect_same(take(one), want);

    const std::size_t workers = rng.uniform_u64(1, 4);
    std::vector<TopAnswers<Answer>> tops(workers, TopAnswers<Answer>(limit));
    for (std::size_t i = 0; i < n; ++i) {
      offer_admitted(tops[rng.uniform_u64(0, workers - 1)], answers[i],
                     paragraph[i]);
    }
    TopAnswers<Answer> merged(limit);
    for (std::size_t w = workers; w-- > 0;) {
      for (const auto& ranked : tops[w].take()) {
        offer_admitted(merged, ranked.answer, ranked.paragraph);
      }
    }
    expect_same(take(merged), want);
  }
  EXPECT_GT(skipped, 1000u);  // the score test did turn answers away
}

}  // namespace
}  // namespace qadist::qa
