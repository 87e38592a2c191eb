// The analysis the Engine computes once per paragraph must say exactly what
// re-analyzing the paragraph's text would: the Analyzer's tokens, their
// norms and stopword marks, and the recognizer's mentions. And a paragraph
// that is not the analyzed one must never be read through it.

#include "qa/paragraph_analysis.hpp"

#include <gtest/gtest.h>

#include "qa/question_processing.hpp"
#include "support/test_world.hpp"

namespace qadist::qa {
namespace {

using testing::test_world;

TEST(ParagraphAnalysisTest, TokensAndNormsMatchTheAnalyzer) {
  const auto& world = test_world();
  const ir::Analyzer analyzer;
  const auto& text = world.engine->analysis().text();
  const auto& lexicon = text.lexicon();
  ASSERT_EQ(text.paragraph_count(), world.corpus.collection.total_paragraphs());

  std::size_t tokens = 0;
  std::size_t stopwords = 0;
  for (const auto& doc : world.corpus.collection.documents()) {
    for (std::uint32_t p = 0; p < doc.paragraphs.size(); ++p) {
      const auto expected = analyzer.tokenize(doc.paragraphs[p]);
      const auto analyzed = text.tokens(text.ordinal({doc.id, p}));
      ASSERT_EQ(analyzed.size(), expected.size()) << doc.id << "/" << p;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto& tok = expected[i];
        const ir::WordToken t = analyzed[i];
        ASSERT_EQ(lexicon.word(t.word()), tok.text);
        ASSERT_EQ(t.capitalized(), tok.capitalized) << tok.text;
        const ir::NormId norm = lexicon.norm(t.word());
        if (ir::is_stopword(tok.text)) {
          ASSERT_EQ(norm, ir::kStopword) << tok.text;
          ++stopwords;
        } else {
          ASSERT_NE(norm, ir::kStopword) << tok.text;
          ASSERT_EQ(lexicon.norm_text(norm),
                    tok.numeric ? tok.text : analyzer.stem(tok.text));
          ASSERT_EQ(lexicon.find_norm(lexicon.norm_text(norm)), norm);
        }
      }
      tokens += expected.size();
    }
  }
  EXPECT_EQ(text.token_count(), tokens);
  EXPECT_GT(stopwords, 0u);
  EXPECT_EQ(lexicon.find_norm("no-such-term"), ir::kNoNorm);
}

TEST(ParagraphAnalysisTest, MentionsMatchTheRecognizer) {
  const auto& world = test_world();
  const ir::Analyzer analyzer;
  const EntityRecognizer recognizer(world.corpus.gazetteer, analyzer);
  const auto& analysis = world.engine->analysis();

  std::size_t mentions = 0;
  for (const auto& doc : world.corpus.collection.documents()) {
    for (std::uint32_t p = 0; p < doc.paragraphs.size(); ++p) {
      const RetrievedParagraph paragraph{{doc.id, p}, doc.paragraphs[p], 0};
      const auto stored = analysis.of(paragraph).mentions;
      const auto expected = recognizer.recognize_text(doc.paragraphs[p]);
      ASSERT_EQ(std::vector<EntityMention>(stored.begin(), stored.end()),
                expected)
          << doc.id << "/" << p;
      mentions += expected.size();
    }
  }
  EXPECT_EQ(analysis.mention_count(), mentions);
  EXPECT_GT(mentions, 100u);
}

TEST(ParagraphAnalysisDeathTest, RefOutsideTheCollectionDies) {
  const auto& world = test_world();
  const auto pq = world.engine->process_question(0, world.questions[0].text);
  const auto docs = static_cast<corpus::DocId>(world.corpus.collection.size());
  const RetrievedParagraph beyond{{docs, 0}, "Port Amsen", 0};
  EXPECT_DEATH((void)world.engine->score(pq, beyond), "outside the analyzed");

  const auto& last = world.corpus.collection.document(docs - 1);
  const RetrievedParagraph no_such_paragraph{
      {docs - 1, static_cast<std::uint32_t>(last.paragraphs.size())}, "", 0};
  EXPECT_DEATH(
      (void)world.engine->answer_paragraph(pq, {no_such_paragraph, 1.0, {}}),
      "has no paragraph");
}

TEST(ParagraphAnalysisDeathTest, TextOfAnotherLengthDies) {
  const auto& world = test_world();
  const auto pq = world.engine->process_question(0, world.questions[0].text);
  const auto& doc = world.corpus.collection.document(0);
  const std::string edited_text = doc.paragraphs[0] + " Port Amsen";
  const RetrievedParagraph edited{{0, 0}, edited_text, 0};
  EXPECT_DEATH((void)world.engine->score(pq, edited), "bytes of text");
  EXPECT_DEATH((void)world.engine->answer_paragraph(pq, {edited, 1.0, {}}),
               "bytes of text");
}

// PS and AP read a question's keywords as norm ids of one lexicon; a
// question resolved against another analysis, or not at all, is refused
// rather than matched against the wrong ids.
TEST(ParagraphAnalysisDeathTest, QuestionResolvedElsewhereDies) {
  const auto& world = test_world();
  const auto& engine = *world.engine;
  const auto& doc = world.corpus.collection.document(0);
  const RetrievedParagraph paragraph{{0, 0}, doc.paragraphs[0], 0};
  const auto pq = engine.process_question(0, world.questions[0].text);
  (void)engine.score(pq, paragraph);  // resolved here: fine

  const ir::Analyzer analyzer;
  const QuestionProcessor qp(analyzer);
  const auto unresolved = qp.process(0, world.questions[0].text);
  EXPECT_DEATH((void)engine.score(unresolved, paragraph),
               "not resolved against this analysis");

  // The same documents analyzed again are another analysis.
  const CorpusAnalysis other(
      corpus::SubCollection(&world.corpus.collection, 0, 1), analyzer,
      EntityRecognizer(world.corpus.gazetteer, analyzer));
  const auto foreign = other.resolve(unresolved);
  EXPECT_DEATH((void)engine.score(foreign, paragraph),
               "not resolved against this analysis");
  EXPECT_DEATH((void)engine.answer_paragraph(foreign, {paragraph, 1.0, {}}),
               "not resolved against this analysis");

  auto edited = pq;
  edited.keywords.push_back("amsen");
  EXPECT_DEATH((void)engine.score(edited, paragraph), "keywords but");
}

// AP reads the keyword hits PS stored in a ScoredParagraph and never scans
// the paragraph for them: hits computed against another resolution of the
// same keywords, or none at all (a ScoredParagraph built without PS), are
// refused rather than read as this question's.
TEST(ParagraphAnalysisDeathTest, HitsOfAnotherResolutionDie) {
  const auto& world = test_world();
  const auto& engine = *world.engine;
  const auto& q = world.questions[0];
  const auto pq = engine.process_question(q.id, q.text);
  const auto again = engine.process_question(q.id, q.text);
  ASSERT_EQ(again.keyword_norms.norms, pq.keyword_norms.norms);
  const auto& doc = world.corpus.collection.document(0);
  const RetrievedParagraph paragraph{{0, 0}, doc.paragraphs[0], 0};
  const auto scored = engine.score(pq, paragraph);
  (void)engine.answer_paragraph(pq, scored);  // its own resolution: fine

  EXPECT_DEATH((void)engine.answer_paragraph(again, scored),
               "carries no keyword hits");
  EXPECT_DEATH((void)engine.answer_paragraphs(again, std::span(&scored, 1)),
               "carries no keyword hits");

  ScoredParagraph by_hand;
  by_hand.paragraph = paragraph;
  by_hand.score = scored.score;
  EXPECT_DEATH((void)engine.answer_paragraph(pq, by_hand),
               "carries no keyword hits");
  EXPECT_DEATH((void)engine.answer_paragraphs(pq, std::span(&by_hand, 1)),
               "carries no keyword hits");
}

}  // namespace
}  // namespace qadist::qa
