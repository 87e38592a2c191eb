#include "ir/persist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "corpus/generator.hpp"
#include "ir/binary_io.hpp"
#include "ir/inverted_index.hpp"
#include "ir/retrieval.hpp"

namespace qadist::ir {
namespace {

TEST(BinaryIoTest, VarintRoundTrips) {
  std::stringstream s;
  BinaryWriter w(s);
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  300,  16383, 16384,     1u << 20,
                                  ~0ull >> 1,  ~0ull};
  for (auto v : values) w.write_varint(v);
  BinaryReader r(s);
  for (auto v : values) EXPECT_EQ(r.read_varint(), v);
}

TEST(BinaryIoTest, VarintIsCompactForSmallValues) {
  std::stringstream s;
  BinaryWriter w(s);
  for (int i = 0; i < 100; ++i) w.write_varint(5);
  EXPECT_EQ(s.str().size(), 100u);  // one byte each
}

TEST(PersistTest, VarintIndexIsSmallerThanFixedWidth) {
  const auto corpus = [] {
    corpus::CorpusConfig cfg;
    cfg.seed = 10;
    cfg.num_documents = 40;
    cfg.vocabulary_size = 600;
    return corpus::generate_corpus(cfg);
  }();
  Analyzer analyzer;
  const corpus::SubCollection sub(
      &corpus.collection, 0,
      static_cast<corpus::DocId>(corpus.collection.size()));
  const auto index = InvertedIndex::build(sub, analyzer);
  std::stringstream s;
  index.save(s);
  // v1 stored 12 bytes per posting; the delta-varint layout should cut
  // posting storage by well over half.
  const std::size_t fixed_width_posting_bytes = index.posting_count() * 12;
  EXPECT_LT(s.str().size(), fixed_width_posting_bytes);
}

TEST(BinaryIoTest, RoundTripsPrimitives) {
  std::stringstream s;
  BinaryWriter w(s);
  w.write_u8(7);
  w.write_u32(0xdeadbeef);
  w.write_u64(0x0123456789abcdefULL);
  w.write_string("hello world");
  w.write_string("");

  BinaryReader r(s);
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_string(), "");
}

corpus::GeneratedCorpus small_corpus() {
  corpus::CorpusConfig cfg;
  cfg.seed = 10;
  cfg.num_documents = 40;
  cfg.vocabulary_size = 600;
  return corpus::generate_corpus(cfg);
}

TEST(PersistTest, CollectionRoundTrip) {
  const auto corpus = small_corpus();
  std::stringstream s;
  save_collection(corpus.collection, s);
  const auto loaded = load_collection(s);
  ASSERT_EQ(loaded.size(), corpus.collection.size());
  ASSERT_EQ(loaded.total_paragraphs(), corpus.collection.total_paragraphs());
  for (corpus::DocId id = 0; id < loaded.size(); ++id) {
    EXPECT_EQ(loaded.document(id).title, corpus.collection.document(id).title);
    EXPECT_EQ(loaded.document(id).paragraphs,
              corpus.collection.document(id).paragraphs);
  }
}

TEST(PersistTest, IndexRoundTripPreservesQueries) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const corpus::SubCollection sub(
      &corpus.collection, 0, static_cast<corpus::DocId>(corpus.collection.size()));
  const auto index = InvertedIndex::build(sub, analyzer);

  std::stringstream s;
  index.save(s);
  const auto loaded = InvertedIndex::load(s);

  EXPECT_EQ(loaded.term_count(), index.term_count());
  EXPECT_EQ(loaded.posting_count(), index.posting_count());
  EXPECT_EQ(loaded.paragraph_count(), index.paragraph_count());

  // Spot-check the postings of the fact subjects' terms.
  for (std::size_t f = 0; f < std::min<std::size_t>(corpus.facts.size(), 10); ++f) {
    for (const auto& term : analyzer.index_terms(corpus.facts[f].subject)) {
      const auto a = index.postings(term);
      const auto b = loaded.postings(term);
      ASSERT_FALSE(a.empty()) << term;
      ASSERT_FALSE(b.empty()) << term;
      EXPECT_TRUE(std::ranges::equal(a, b)) << term;
    }
  }
}

TEST(PersistTest, IndexFileIsDeterministic) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const corpus::SubCollection sub(
      &corpus.collection, 0, static_cast<corpus::DocId>(corpus.collection.size()));
  const auto index = InvertedIndex::build(sub, analyzer);
  std::stringstream s1, s2;
  index.save(s1);
  index.save(s2);
  EXPECT_EQ(s1.str(), s2.str());
}

TEST(PersistTest, FileRoundTrip) {
  const auto corpus = small_corpus();
  const std::string path = ::testing::TempDir() + "/qadist_collection.bin";
  save_collection_file(corpus.collection, path);
  const auto loaded = load_collection_file(path);
  EXPECT_EQ(loaded.size(), corpus.collection.size());
  std::remove(path.c_str());
}

/// Retrieval queries drawn from the corpus ground truth (fact subjects
/// analyze to terms that actually occur).
std::vector<std::vector<std::string>> sample_queries(
    const corpus::GeneratedCorpus& corpus, const Analyzer& analyzer) {
  std::vector<std::vector<std::string>> queries;
  for (std::size_t f = 0; f < std::min<std::size_t>(corpus.facts.size(), 10);
       ++f) {
    auto terms = analyzer.index_terms(corpus.facts[f].subject);
    if (!terms.empty()) queries.push_back(std::move(terms));
  }
  return queries;
}

TEST(PersistTest, LoadedIndexAnswersQueriesIdentically) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const corpus::SubCollection sub(
      &corpus.collection, 0,
      static_cast<corpus::DocId>(corpus.collection.size()));
  const auto index = InvertedIndex::build(sub, analyzer);
  std::stringstream s;
  index.save(s);
  const auto loaded = InvertedIndex::load(s);
  for (const auto& terms : sample_queries(corpus, analyzer)) {
    EXPECT_EQ(retrieve(loaded, terms, 5), retrieve(index, terms, 5));
    EXPECT_EQ(intersect_all(loaded, terms), intersect_all(index, terms));
  }
}

TEST(PersistDeathTest, LoadRejectsACorruptMagic) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const corpus::SubCollection sub(
      &corpus.collection, 0,
      static_cast<corpus::DocId>(corpus.collection.size()));
  std::stringstream s;
  InvertedIndex::build(sub, analyzer).save(s);
  std::string bytes = s.str();
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  std::istringstream corrupt(bytes);
  EXPECT_DEATH((void)InvertedIndex::load(corrupt), "not a qadist index file");
}

TEST(PersistDeathTest, LoadRejectsAnUnsupportedVersion) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const corpus::SubCollection sub(
      &corpus.collection, 0,
      static_cast<corpus::DocId>(corpus.collection.size()));
  std::stringstream s;
  InvertedIndex::build(sub, analyzer).save(s);
  std::string bytes = s.str();
  bytes[4] = 0x7F;  // version word follows the 4-byte magic
  std::istringstream corrupt(bytes);
  EXPECT_DEATH((void)InvertedIndex::load(corrupt),
               "unsupported index version");
}

TEST(PersistDeathTest, LoadPanicsOnATruncatedStream) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const corpus::SubCollection sub(
      &corpus.collection, 0,
      static_cast<corpus::DocId>(corpus.collection.size()));
  std::stringstream s;
  InvertedIndex::build(sub, analyzer).save(s);
  const std::string bytes = s.str();
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_DEATH((void)InvertedIndex::load(truncated), "");
}

TEST(PersistTest, ShardIndexesPartitionTheCollection) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const auto shards = build_shard_indexes(corpus.collection, 4, analyzer);
  ASSERT_EQ(shards.size(), 4u);
  std::size_t paragraphs = 0;
  for (const auto& shard : shards) paragraphs += shard.paragraph_count();
  EXPECT_EQ(paragraphs, corpus.collection.total_paragraphs());
  // One shard is just the whole-collection index.
  const auto whole = build_shard_indexes(corpus.collection, 1, analyzer);
  ASSERT_EQ(whole.size(), 1u);
  const corpus::SubCollection sub(
      &corpus.collection, 0,
      static_cast<corpus::DocId>(corpus.collection.size()));
  EXPECT_EQ(whole[0].posting_count(),
            InvertedIndex::build(sub, analyzer).posting_count());
}

TEST(PersistTest, ShardSetRoundTripPreservesEveryShard) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const auto shards = build_shard_indexes(corpus.collection, 4, analyzer);
  std::stringstream s;
  save_index_shards(shards, s);
  const auto loaded = load_index_shards(s);
  ASSERT_EQ(loaded.size(), shards.size());
  const auto queries = sample_queries(corpus, analyzer);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(loaded[i].term_count(), shards[i].term_count());
    EXPECT_EQ(loaded[i].posting_count(), shards[i].posting_count());
    EXPECT_EQ(loaded[i].paragraph_count(), shards[i].paragraph_count());
    for (const auto& terms : queries) {
      EXPECT_EQ(retrieve(loaded[i], terms, 5), retrieve(shards[i], terms, 5));
    }
  }
}

TEST(PersistTest, ShardSetSupportsSeekingToASingleShard) {
  // The replica-holder path: load shard 2 without reading shards 0/1/3.
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const auto shards = build_shard_indexes(corpus.collection, 4, analyzer);
  std::stringstream s;
  save_index_shards(shards, s);
  const auto info = read_shard_set_info(s);
  ASSERT_EQ(info.num_shards, 4u);
  ASSERT_EQ(info.shard_bytes.size(), 4u);
  ASSERT_EQ(info.shard_offsets.size(), 4u);
  const auto one = load_index_shard(s, info, 2);
  EXPECT_EQ(one.posting_count(), shards[2].posting_count());
  EXPECT_EQ(one.paragraph_count(), shards[2].paragraph_count());
  // Out-of-order access works too — offsets are absolute.
  const auto zero = load_index_shard(s, info, 0);
  EXPECT_EQ(zero.posting_count(), shards[0].posting_count());
}

TEST(PersistTest, ShardSetFileRoundTrip) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const auto shards = build_shard_indexes(corpus.collection, 3, analyzer);
  const std::string path = ::testing::TempDir() + "/qadist_shards.bin";
  save_index_shards_file(shards, path);
  const auto loaded = load_index_shards_file(path);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded[i].posting_count(), shards[i].posting_count());
  }
  std::remove(path.c_str());
}

TEST(PersistDeathTest, ShardSetRejectsCorruptInput) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const auto shards = build_shard_indexes(corpus.collection, 2, analyzer);
  std::stringstream s;
  save_index_shards(shards, s);
  const std::string bytes = s.str();

  std::string bad_magic = bytes;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xFF);
  std::istringstream m(bad_magic);
  EXPECT_DEATH((void)read_shard_set_info(m), "not a qadist shard-set file");

  std::string bad_version = bytes;
  bad_version[4] = 0x7F;
  std::istringstream v(bad_version);
  EXPECT_DEATH((void)read_shard_set_info(v), "unsupported shard-set version");

  std::string zero_shards = bytes;
  zero_shards[8] = zero_shards[9] = zero_shards[10] = zero_shards[11] = 0;
  std::istringstream z(zero_shards);
  EXPECT_DEATH((void)read_shard_set_info(z), "zero shards");

  std::istringstream truncated(bytes.substr(0, bytes.size() - 16));
  EXPECT_DEATH((void)load_index_shards(truncated), "");
}

TEST(PersistDeathTest, ShardIndexOutOfRangePanics) {
  const auto corpus = small_corpus();
  Analyzer analyzer;
  const auto shards = build_shard_indexes(corpus.collection, 2, analyzer);
  std::stringstream s;
  save_index_shards(shards, s);
  const auto info = read_shard_set_info(s);
  EXPECT_DEATH((void)load_index_shard(s, info, 2), "");
}

}  // namespace
}  // namespace qadist::ir
