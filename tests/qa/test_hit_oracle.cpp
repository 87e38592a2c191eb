// Paragraph scoring and answer processing run over each paragraph's
// keyword hits, and only the answers kept get window text. The token-walk
// references in support/reference_qa.hpp compute the same values by
// mapping every token to a keyword; every PS score, every AP candidate and
// every work counter must equal theirs bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "qa/engine.hpp"
#include "qa/question_processing.hpp"
#include "support/analyzed_text.hpp"
#include "support/reference_qa.hpp"
#include "support/test_world.hpp"

namespace qadist::qa {
namespace {

using corpus::EntityType;
using testing::test_world;

void expect_same_answers(const std::vector<Answer>& got,
                         const std::vector<Answer>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].candidate, want[i].candidate) << i;
    EXPECT_EQ(got[i].window, want[i].window) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
              std::bit_cast<std::uint64_t>(want[i].score))
        << i << ": " << got[i].candidate;
    EXPECT_EQ(got[i].ref, want[i].ref) << i;
    EXPECT_EQ(got[i].type, want[i].type) << i;
  }
}

void expect_same_work(const AnswerWork& got, const AnswerWork& want) {
  EXPECT_EQ(got.paragraphs_processed, want.paragraphs_processed);
  EXPECT_EQ(got.tokens_scanned, want.tokens_scanned);
  EXPECT_EQ(got.candidates_considered, want.candidates_considered);
  EXPECT_EQ(got.windows_scored, want.windows_scored);
}

/// Every stage of `engine` on every retrieved paragraph of every test-world
/// question against the references; returns the number of AP candidates
/// compared.
std::size_t compare_with_references(const Engine& engine) {
  const auto& world = test_world();
  const auto& analysis = engine.analysis();
  const auto& config = engine.config();
  std::size_t candidates = 0;
  for (const auto& q : world.questions) {
    SCOPED_TRACE(q.text);
    const auto pq = engine.process_question(q.id, q.text);
    std::vector<ScoredParagraph> scored;
    for (std::size_t sub = 0; sub < engine.subcollection_count(); ++sub) {
      RetrievalWork work;
      std::size_t bytes = 0;
      std::size_t returned = 0;
      for (auto& p : engine.retrieve(sub, pq, &work)) {
        ++returned;
        // PR hands out views of the collection's text.
        const std::string& text = world.corpus.collection.paragraph(p.ref);
        EXPECT_EQ(p.text.data(), text.data());
        EXPECT_EQ(p.text.size(), text.size());
        bytes += text.size();

        const auto paragraph = analysis.of(p);
        const auto s = engine.score(pq, p);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(s.score),
                  std::bit_cast<std::uint64_t>(testing::reference_score(
                      config.scoring, pq, paragraph)))
            << p.ref.doc << "/" << p.ref.index;

        AnswerWork got_work;
        AnswerWork want_work;
        const auto got = engine.answer_paragraph(pq, s, &got_work);
        const auto want = testing::reference_answers(config.answers, pq, s,
                                                     paragraph, &want_work);
        expect_same_answers(got, want);
        expect_same_work(got_work, want_work);
        candidates += want.size();
        scored.push_back(s);
      }
      EXPECT_EQ(work.bytes_materialized, bytes);
      EXPECT_EQ(work.paragraphs_returned, returned);
    }

    // The batch: TopAnswers over the accepted paragraphs, text for the
    // kept answers only, against sort_answers over every answer.
    const auto accepted = engine.order(std::move(scored));
    std::vector<Answer> all;
    AnswerWork want_work;
    for (const auto& p : accepted) {
      auto answers = testing::reference_answers(
          config.answers, pq, p, analysis.of(p.paragraph), &want_work);
      all.insert(all.end(), answers.begin(), answers.end());
    }
    AnswerWork got_work;
    expect_same_answers(
        engine.answer_paragraphs(pq, accepted, &got_work),
        testing::sort_answers(std::move(all),
                              config.answers.answers_requested));
    expect_same_work(got_work, want_work);
  }
  return candidates;
}

TEST(HitOracleTest, EvenEngineMatchesTheTokenWalk) {
  EXPECT_GT(compare_with_references(*test_world().engine), 100u);
}

TEST(HitOracleTest, SkewedEngineMatchesTheTokenWalk) {
  EngineConfig config;
  config.subcollection_size_ratio = 3.0;
  const Engine engine(test_world().corpus, config);
  EXPECT_GT(compare_with_references(engine), 100u);
}

// A keyword whose norm shares the filter bit of the stopword norm lets every
// stopword through the filter; the keyword comparison must still reject
// them.
TEST(HitOracleTest, KeywordSharingTheStopwordFilterBit) {
  const auto& world = test_world();
  const Engine& engine = *world.engine;
  const auto& lexicon = engine.analysis().text().lexicon();
  ir::NormId shared = ir::kNoNorm;
  for (ir::NormId n = 0; n < lexicon.norm_count(); ++n) {
    if ((n & 63) == (ir::kStopword & 63)) {
      shared = n;
      break;
    }
  }
  ASSERT_NE(shared, ir::kNoNorm);
  auto pq = engine.process_question(0, world.questions[0].text);
  pq.keywords.insert(pq.keywords.begin(),
                     std::string(lexicon.norm_text(shared)));
  pq.answer_type = EntityType::kUnknown;
  pq = engine.analysis().resolve(std::move(pq));

  std::size_t hits = 0;
  for (const auto& doc : world.corpus.collection.documents()) {
    for (std::uint32_t i = 0; i < doc.paragraphs.size(); ++i) {
      const RetrievedParagraph p{{doc.id, i}, doc.paragraphs[i], 0};
      const auto paragraph = engine.analysis().of(p);
      const auto s = engine.score(pq, p);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(s.score),
                std::bit_cast<std::uint64_t>(testing::reference_score(
                    engine.config().scoring, pq, paragraph)));
      expect_same_answers(engine.answer_paragraph(pq, s),
                          testing::reference_answers(engine.config().answers,
                                                     pq, s, paragraph));
      hits += s.hits.size();
    }
  }
  EXPECT_GT(hits, 0u);
}

// Hand-made paragraphs for the cases the test world may not reach.
class HitOracleCaseTest : public ::testing::Test {
 protected:
  HitOracleCaseTest() : qp_(analyzer_), ner_(gazetteer_, analyzer_) {
    gazetteer_.add("Port Varen", EntityType::kLocation);
    gazetteer_.add("Lake Tarnin", EntityType::kLocation);
    gazetteer_.add("Doran Veltis", EntityType::kPerson);
    gazetteer_.add("the Amsen Lighthouse", EntityType::kLocation);
    gazetteer_.add("Amsen Steel Works", EntityType::kOrganization);
  }

  /// PS and AP on `text` (its own analysis) against the references, for a
  /// question of `answer_type` with `keywords`; returns AP's answers.
  std::vector<Answer> compare(std::string_view text,
                              std::vector<std::string> keywords,
                              EntityType answer_type) const {
    const RetrievedParagraph p{corpus::ParagraphRef{0, 0}, text, 0};
    const auto analysis = testing::analyze_paragraphs(p, analyzer_, ner_);
    ProcessedQuestion question;
    question.keywords = std::move(keywords);
    question.answer_type = answer_type;
    question = analysis.resolve(std::move(question));

    const ParagraphScorer scorer;
    const AnswerProcessor ap;
    const auto s = scorer.score(question, p, analysis);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.score),
              std::bit_cast<std::uint64_t>(testing::reference_score(
                  ParagraphScorer::Weights{}, question, analysis.of(p))));
    AnswerWork got_work;
    AnswerWork want_work;
    auto got = ap.process_paragraph(question, s, analysis, &got_work);
    expect_same_answers(got, testing::reference_answers(
                                 AnswerProcessor::Config{}, question, s,
                                 analysis.of(p), &want_work));
    expect_same_work(got_work, want_work);
    return got;
  }

  std::vector<std::string> keywords(const std::string& question) const {
    return qp_.process(0, question).keywords;
  }

  corpus::Gazetteer gazetteer_;
  ir::Analyzer analyzer_;
  QuestionProcessor qp_;
  EntityRecognizer ner_;
};

TEST_F(HitOracleCaseTest, KeywordAbsentFromTheLexicon) {
  // "amsen" is no keyword here, so the lighthouse is a candidate too.
  const auto answers =
      compare("the Amsen Lighthouse is located in Port Varen .",
              keywords("Where is the Zzyzx Lighthouse ?"),
              EntityType::kLocation);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[1].candidate, "Port Varen");
}

TEST_F(HitOracleCaseTest, KeywordRepeatedInTheParagraph) {
  const auto answers = compare(
      "Amsen lighthouse , the lighthouse of Amsen , stands in Port Varen "
      "and the Amsen lighthouse faces Lake Tarnin past the lighthouse .",
      keywords("Where is the Amsen Lighthouse ?"), EntityType::kLocation);
  EXPECT_EQ(answers.size(), 2u);
}

// More hits than ir::KeywordHits holds inline: PS moves them to the heap,
// and its score and AP's answers still equal the token walk's.
TEST_F(HitOracleCaseTest, KeywordRepeatedBeyondTheInlineCapacity) {
  std::string text = "Port Varen";
  for (std::size_t i = 0; i < 2 * ir::KeywordHits::kInline; ++i) {
    text += " and the Amsen Lighthouse";
  }
  text += " face Lake Tarnin .";
  const auto question_keywords = keywords("Where is the Amsen Lighthouse ?");
  const RetrievedParagraph p{corpus::ParagraphRef{0, 0}, text, 0};
  const auto analysis = testing::analyze_paragraphs(p, analyzer_, ner_);
  ProcessedQuestion question;
  question.keywords = question_keywords;
  const auto s = ParagraphScorer().score(analysis.resolve(question), p,
                                         analysis);
  EXPECT_EQ(s.hits.size(), 4 * ir::KeywordHits::kInline);

  const auto answers = compare(text, question_keywords, EntityType::kLocation);
  std::vector<std::string> candidates;
  for (const auto& a : answers) candidates.push_back(a.candidate);
  EXPECT_EQ(candidates, (std::vector<std::string>{"Port Varen", "Lake Tarnin"}));
}

TEST_F(HitOracleCaseTest, KeywordInsideTheCandidate) {
  // "Amsen Steel Works" holds the keyword "amsen" but is not the subject;
  // "the Amsen Lighthouse" is all keywords and stopwords: the subject.
  const auto answers = compare(
      "Doran Veltis founded Amsen Steel Works near the Amsen Lighthouse .",
      keywords("Who founded the company at the Amsen Lighthouse ?"),
      EntityType::kUnknown);
  std::vector<std::string> candidates;
  for (const auto& a : answers) candidates.push_back(a.candidate);
  EXPECT_EQ(candidates,
            (std::vector<std::string>{"Doran Veltis", "Amsen Steel Works"}));
}

TEST_F(HitOracleCaseTest, EmptyKeywordList) {
  EXPECT_TRUE(compare("the Amsen Lighthouse is located in Port Varen .", {},
                      EntityType::kLocation)
                  .empty());
  EXPECT_TRUE(compare("", {}, EntityType::kUnknown).empty());
}

TEST_F(HitOracleCaseTest, OneStemSharedByManyWords) {
  const std::string text =
      "founded by Doran Veltis , founding Port Varen , he founds and found "
      "what founding fathers founded near Lake Tarnin .";
  const auto analysis = testing::analyze_paragraphs(
      RetrievedParagraph{corpus::ParagraphRef{0, 0}, text, 0}, analyzer_,
      ner_);
  const auto& lexicon = analysis.text().lexicon();
  const ir::NormId found = lexicon.find_norm("found");
  std::size_t words = 0;
  for (ir::WordId w = 0; w < lexicon.word_count(); ++w) {
    if (lexicon.norm(w) == found) ++words;
  }
  EXPECT_EQ(words, 4u);  // founded, founding, founds, found
  EXPECT_FALSE(
      compare(text, keywords("Who founded Port Varen ?"), EntityType::kPerson)
          .empty());
}

// A token is capitalized when its source starts with an uppercase letter,
// so "$" and "3Com" come back lowercase in the surface text and "Million"
// gets its capital back.
TEST_F(HitOracleCaseTest, CapitalizedTokensStartingWithADigitOrDollar) {
  const auto answers = compare(
      "The $5 Million Fund of 3Com paid $ 12 million to Port Varen in 1912 "
      ", and 3Com Fund Directors said The 1912 Port Varen Fund cost $ 40 .",
      keywords("How much did the 3Com Fund pay Port Varen ?"),
      EntityType::kMoney);
  std::vector<std::string> candidates;
  for (const auto& a : answers) candidates.push_back(a.candidate);
  EXPECT_EQ(candidates, (std::vector<std::string>{"$ 5 Million",
                                                  "$ 12 million", "$ 40"}));
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[1].window, "Fund of 3com paid $ 12 million to Port Varen");
}

}  // namespace
}  // namespace qadist::qa
