#include "ir/retrieval.hpp"

#include <gtest/gtest.h>

#include "corpus/generator.hpp"

namespace qadist::ir {
namespace {

corpus::Collection docs_collection() {
  corpus::Collection c;
  const std::vector<std::vector<std::string>> docs = {
      {"alpha beta gamma", "alpha alpha delta"},
      {"beta gamma", "alpha beta gamma delta"},
      {"epsilon zeta"},
  };
  for (std::size_t i = 0; i < docs.size(); ++i) {
    corpus::Document d;
    d.id = static_cast<corpus::DocId>(i);
    d.title = std::string("d").append(std::to_string(i));
    d.paragraphs = docs[i];
    c.add(std::move(d));
  }
  return c;
}

class RetrievalTest : public ::testing::Test {
 protected:
  RetrievalTest()
      : collection_(docs_collection()),
        sub_(&collection_, 0, 3),
        index_(InvertedIndex::build(sub_, analyzer_)) {}

  corpus::Collection collection_;
  Analyzer analyzer_;
  corpus::SubCollection sub_;
  InvertedIndex index_;
};

TEST_F(RetrievalTest, IntersectFindsAllTermParagraphs) {
  const std::vector<std::string> terms = {"alpha", "beta", "gamma"};
  const auto matches = intersect_all(index_, terms);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].ref, (corpus::ParagraphRef{0, 0}));
  EXPECT_EQ(matches[1].ref, (corpus::ParagraphRef{1, 1}));
  EXPECT_EQ(matches[0].keywords_present, 3u);
}

TEST_F(RetrievalTest, IntersectMissingTermYieldsEmpty) {
  const std::vector<std::string> terms = {"alpha", "nonexistent"};
  EXPECT_TRUE(intersect_all(index_, terms).empty());
}

TEST_F(RetrievalTest, IntersectEmptyTermsYieldsEmpty) {
  EXPECT_TRUE(intersect_all(index_, {}).empty());
}

TEST_F(RetrievalTest, GallopingMatchesLinearReference) {
  const std::vector<std::vector<std::string>> queries = {
      {"alpha"},
      {"alpha", "beta"},
      {"alpha", "beta", "gamma"},
      {"beta", "gamma", "delta"},
      {"epsilon", "zeta"},
  };
  for (const auto& q : queries) {
    EXPECT_EQ(intersect_all(index_, q), intersect_all_linear(index_, q));
  }
}

TEST_F(RetrievalTest, UnionCountsDistinctKeywords) {
  const std::vector<std::string> terms = {"alpha", "delta"};
  const auto matches = union_count(index_, terms);
  // Paragraphs containing alpha or delta: (0,0) alpha, (0,1) both,
  // (1,1) both.
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].ref, (corpus::ParagraphRef{0, 0}));
  EXPECT_EQ(matches[0].keywords_present, 1u);
  EXPECT_EQ(matches[1].keywords_present, 2u);
  EXPECT_EQ(matches[1].total_tf, 3u);  // alpha twice + delta once
  EXPECT_EQ(matches[2].keywords_present, 2u);
}

TEST_F(RetrievalTest, UnionResultsAreSorted) {
  const std::vector<std::string> terms = {"alpha", "beta", "gamma", "delta",
                                          "epsilon", "zeta"};
  const auto matches = union_count(index_, terms);
  for (std::size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LT(matches[i - 1].ref, matches[i].ref);
  }
}

TEST_F(RetrievalTest, RetrieveRelaxesUntilEnoughResults) {
  const std::vector<std::string> terms = {"alpha", "beta", "gamma"};
  // Strict AND yields 2; asking for >= 3 forces relaxation to 2-of-3.
  const auto strict = retrieve(index_, terms, 1);
  EXPECT_EQ(strict.size(), 2u);
  const auto relaxed = retrieve(index_, terms, 3);
  EXPECT_GT(relaxed.size(), strict.size());
  for (const auto& m : relaxed) EXPECT_GE(m.keywords_present, 2u);
}

TEST_F(RetrievalTest, RetrieveBottomsOutAtOneKeyword) {
  const std::vector<std::string> terms = {"epsilon", "alpha"};
  const auto result = retrieve(index_, terms, 100);
  // 1-of-2 relaxation: every paragraph containing either word.
  EXPECT_EQ(result.size(), 4u);
}

// Property check on a realistic corpus: galloping == linear everywhere.
TEST(RetrievalPropertyTest, GallopingEqualsLinearOnGeneratedCorpus) {
  corpus::CorpusConfig cfg;
  cfg.seed = 21;
  cfg.num_documents = 80;
  cfg.vocabulary_size = 800;
  const auto corpus = corpus::generate_corpus(cfg);
  Analyzer analyzer;
  const corpus::SubCollection sub(&corpus.collection, 0,
                                  static_cast<corpus::DocId>(corpus.collection.size()));
  const auto index = InvertedIndex::build(sub, analyzer);

  const auto questions = corpus::generate_questions(corpus, 30, 1);
  for (const auto& q : questions) {
    const auto terms = analyzer.index_terms(q.text);
    EXPECT_EQ(intersect_all(index, terms), intersect_all_linear(index, terms))
        << q.text;
  }
}

}  // namespace
}  // namespace qadist::ir
