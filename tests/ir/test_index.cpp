#include "ir/inverted_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "corpus/generator.hpp"

namespace qadist::ir {
namespace {

corpus::Collection tiny_collection() {
  corpus::Collection c;
  corpus::Document d0;
  d0.id = 0;
  d0.title = "first";
  d0.paragraphs = {"the amsen lighthouse stands tall",
                   "amsen harbor amsen ships"};
  c.add(std::move(d0));
  corpus::Document d1;
  d1.id = 1;
  d1.title = "second";
  d1.paragraphs = {"lighthouse keepers live here"};
  c.add(std::move(d1));
  return c;
}

TEST(InvertedIndexTest, BuildsPostingsWithTf) {
  const auto c = tiny_collection();
  const corpus::SubCollection sub(&c, 0, 2);
  Analyzer analyzer;
  const auto index = InvertedIndex::build(sub, analyzer);

  const auto amsen = index.postings("amsen");
  ASSERT_FALSE(amsen.empty());
  ASSERT_EQ(amsen.size(), 2u);
  EXPECT_EQ(amsen[0], (Posting{0, 0, 1}));
  EXPECT_EQ(amsen[1], (Posting{0, 1, 2}));  // "amsen" twice in paragraph 1

  const auto lighthouse = index.postings("lighthouse");
  ASSERT_FALSE(lighthouse.empty());
  EXPECT_EQ(lighthouse.size(), 2u);
  EXPECT_EQ(index.document_frequency("lighthouse"), 2u);
}

TEST(InvertedIndexTest, StopwordsNotIndexed) {
  const auto c = tiny_collection();
  const corpus::SubCollection sub(&c, 0, 2);
  Analyzer analyzer;
  const auto index = InvertedIndex::build(sub, analyzer);
  EXPECT_TRUE(index.postings("the").empty());
  EXPECT_EQ(index.document_frequency("the"), 0u);
}

TEST(InvertedIndexTest, RespectsSubCollectionBounds) {
  const auto c = tiny_collection();
  const corpus::SubCollection sub(&c, 1, 2);  // only doc 1
  Analyzer analyzer;
  const auto index = InvertedIndex::build(sub, analyzer);
  EXPECT_TRUE(index.postings("amsen").empty());
  const auto keeper = index.postings("keeper");
  ASSERT_FALSE(keeper.empty());
  EXPECT_EQ(keeper[0].doc, 1u);
  EXPECT_EQ(index.paragraph_count(), 1u);
}

TEST(InvertedIndexTest, Counts) {
  const auto c = tiny_collection();
  const corpus::SubCollection sub(&c, 0, 2);
  Analyzer analyzer;
  const auto index = InvertedIndex::build(sub, analyzer);
  EXPECT_GT(index.term_count(), 5u);
  EXPECT_GT(index.posting_count(), index.term_count() - 1);
  EXPECT_EQ(index.paragraph_count(), 3u);
  EXPECT_GT(index.byte_size(), 0u);
}

TEST(InvertedIndexTest, EmptySubCollection) {
  const auto c = tiny_collection();
  const corpus::SubCollection sub(&c, 1, 1);
  Analyzer analyzer;
  const auto index = InvertedIndex::build(sub, analyzer);
  EXPECT_EQ(index.term_count(), 0u);
  EXPECT_EQ(index.paragraph_count(), 0u);
}

/// The per-paragraph std::map term counting the index used to be built
/// with, before it read a CollectionAnalysis: term -> postings.
std::map<std::string, std::vector<Posting>> term_counting_postings(
    const corpus::SubCollection& sub, const Analyzer& analyzer) {
  std::map<std::string, std::vector<Posting>> out;
  for (corpus::DocId doc = sub.first(); doc < sub.last(); ++doc) {
    const auto& paragraphs = sub.document(doc).paragraphs;
    for (std::uint32_t p = 0; p < paragraphs.size(); ++p) {
      std::map<std::string, std::uint32_t> tf;
      for (auto& term : analyzer.index_terms(paragraphs[p])) ++tf[term];
      for (const auto& [term, count] : tf) {
        out[term].push_back(Posting{doc, p, count});
      }
    }
  }
  return out;
}

TEST(InvertedIndexTest, AnalysisBuildMatchesTermCounting) {
  corpus::CorpusConfig cfg;
  cfg.seed = 5;
  cfg.num_documents = 60;
  cfg.vocabulary_size = 800;
  const auto world = corpus::generate_corpus(cfg);
  const auto& c = world.collection;
  Analyzer analyzer;
  const CollectionAnalysis analysis(
      corpus::SubCollection(&c, 0, static_cast<corpus::DocId>(c.size())),
      analyzer);

  for (const auto& sub : corpus::split_collection(c, 3)) {
    const auto index = InvertedIndex::build(sub, analysis);
    const auto expected = term_counting_postings(sub, analyzer);
    ASSERT_EQ(index.term_count(), expected.size());
    std::size_t postings = 0;
    for (const auto& [term, list] : expected) {
      EXPECT_TRUE(std::ranges::equal(index.postings(term), list)) << term;
      postings += list.size();
    }
    EXPECT_EQ(index.posting_count(), postings);

    // Analyzing the sub-collection alone builds the same index.
    std::ostringstream shared, alone;
    index.save(shared);
    InvertedIndex::build(sub, analyzer).save(alone);
    EXPECT_EQ(shared.str(), alone.str());
  }
}

TEST(InvertedIndexDeathTest, AnalysisMustCoverTheSubCollection) {
  const auto c = tiny_collection();
  Analyzer analyzer;
  const CollectionAnalysis first_doc(corpus::SubCollection(&c, 0, 1),
                                     analyzer);
  EXPECT_DEATH((void)InvertedIndex::build(corpus::SubCollection(&c, 0, 2),
                                          first_doc),
               "outside the analyzed");
}

TEST(InvertedIndexDeathTest, AnalysisMustBeOfTheSameText) {
  const auto c = tiny_collection();
  corpus::Collection edited;
  for (auto doc : c.documents()) {
    doc.paragraphs[0] += " amsen";
    edited.add(std::move(doc));
  }
  Analyzer analyzer;
  const CollectionAnalysis analysis(corpus::SubCollection(&c, 0, 2), analyzer);
  EXPECT_DEATH((void)InvertedIndex::build(corpus::SubCollection(&edited, 0, 2),
                                          analysis),
               "not the analyzed text");
}

}  // namespace
}  // namespace qadist::ir
