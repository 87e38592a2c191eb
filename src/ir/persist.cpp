#include "ir/persist.hpp"

#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "ir/binary_io.hpp"

namespace qadist::ir {

namespace {
constexpr std::uint32_t kCollectionMagic = 0x5141434c;  // "QACL"
constexpr std::uint32_t kCollectionVersion = 1;
constexpr std::uint32_t kWorldMagic = 0x51415744;  // "QAWD"
constexpr std::uint32_t kWorldVersion = 1;
constexpr std::uint32_t kShardSetMagic = 0x51415353;  // "QASS"
// v1: header + index blobs. v2 adds a collection-selection statistics
// section (per-shard term df + size summaries) between header and blobs,
// so brokers can score shards without touching any postings. v1 files
// still load (stats stay empty).
constexpr std::uint32_t kShardSetVersionV1 = 1;
constexpr std::uint32_t kShardSetVersion = 2;
}  // namespace

void save_collection(const corpus::Collection& collection, std::ostream& out) {
  BinaryWriter w(out);
  w.write_u32(kCollectionMagic);
  w.write_u32(kCollectionVersion);
  w.write_u32(static_cast<std::uint32_t>(collection.size()));
  for (const auto& doc : collection.documents()) {
    w.write_u32(doc.id);
    w.write_string(doc.title);
    w.write_u32(static_cast<std::uint32_t>(doc.paragraphs.size()));
    for (const auto& p : doc.paragraphs) w.write_string(p);
  }
}

corpus::Collection load_collection(std::istream& in) {
  BinaryReader r(in);
  QADIST_CHECK(r.read_u32() == kCollectionMagic,
               << "not a qadist collection file");
  const auto version = r.read_u32();
  QADIST_CHECK(version == kCollectionVersion,
               << "unsupported collection version " << version);
  corpus::Collection collection;
  const std::uint32_t docs = r.read_u32();
  for (std::uint32_t i = 0; i < docs; ++i) {
    corpus::Document doc;
    doc.id = r.read_u32();
    doc.title = r.read_string();
    const std::uint32_t paragraphs = r.read_u32();
    doc.paragraphs.reserve(paragraphs);
    for (std::uint32_t p = 0; p < paragraphs; ++p)
      doc.paragraphs.push_back(r.read_string());
    collection.add(std::move(doc));
  }
  return collection;
}

void save_collection_file(const corpus::Collection& collection,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  QADIST_CHECK(out.good(), << "cannot open " << path << " for writing");
  save_collection(collection, out);
  QADIST_CHECK(out.good(), << "write failed for " << path);
}

corpus::Collection load_collection_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QADIST_CHECK(in.good(), << "cannot open " << path);
  return load_collection(in);
}

void save_world(const corpus::GeneratedCorpus& world, std::ostream& out) {
  BinaryWriter w(out);
  w.write_u32(kWorldMagic);
  w.write_u32(kWorldVersion);
  save_collection(world.collection, out);

  const auto entries = world.gazetteer.entries();
  w.write_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [surface, type] : entries) {
    w.write_string(surface);
    w.write_u8(static_cast<std::uint8_t>(type));
  }

  w.write_u32(static_cast<std::uint32_t>(world.facts.size()));
  for (const auto& fact : world.facts) {
    w.write_string(fact.subject);
    w.write_u8(static_cast<std::uint8_t>(fact.relation));
    w.write_string(fact.object);
    w.write_u32(fact.doc);
    w.write_u32(fact.paragraph);
  }
}

corpus::GeneratedCorpus load_world(std::istream& in) {
  BinaryReader r(in);
  QADIST_CHECK(r.read_u32() == kWorldMagic, << "not a qadist world file");
  const auto version = r.read_u32();
  QADIST_CHECK(version == kWorldVersion,
               << "unsupported world version " << version);
  corpus::GeneratedCorpus world;
  world.collection = load_collection(in);

  const std::uint32_t entities = r.read_u32();
  for (std::uint32_t i = 0; i < entities; ++i) {
    std::string surface = r.read_string();
    const auto type = static_cast<corpus::EntityType>(r.read_u8());
    QADIST_CHECK(static_cast<int>(type) < corpus::kEntityTypeCount,
                 << "corrupt entity type");
    world.gazetteer.add(surface, type);
  }

  const std::uint32_t facts = r.read_u32();
  world.facts.reserve(facts);
  for (std::uint32_t i = 0; i < facts; ++i) {
    corpus::Fact fact;
    fact.subject = r.read_string();
    const auto relation = r.read_u8();
    QADIST_CHECK(relation < corpus::kRelationCount, << "corrupt relation");
    fact.relation = static_cast<corpus::Relation>(relation);
    fact.object = r.read_string();
    fact.doc = r.read_u32();
    fact.paragraph = r.read_u32();
    world.facts.push_back(std::move(fact));
  }
  return world;
}

void save_world_file(const corpus::GeneratedCorpus& world,
                     const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  QADIST_CHECK(out.good(), << "cannot open " << path << " for writing");
  save_world(world, out);
  QADIST_CHECK(out.good(), << "write failed for " << path);
}

corpus::GeneratedCorpus load_world_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QADIST_CHECK(in.good(), << "cannot open " << path);
  return load_world(in);
}

std::vector<InvertedIndex> build_shard_indexes(
    const corpus::Collection& collection, std::size_t num_shards,
    const Analyzer& analyzer) {
  QADIST_CHECK(num_shards > 0, << "cannot build zero index shards");
  const CollectionAnalysis analysis(
      corpus::SubCollection(&collection, 0,
                            static_cast<corpus::DocId>(collection.size())),
      analyzer);
  std::vector<InvertedIndex> shards;
  shards.reserve(num_shards);
  for (const auto& sub : corpus::split_collection(collection, num_shards)) {
    shards.push_back(InvertedIndex::build(sub, analysis));
  }
  return shards;
}

void save_index_shards(std::span<const InvertedIndex> shards,
                       std::ostream& out) {
  QADIST_CHECK(!shards.empty(), << "cannot save an empty shard set");
  // Serialize each shard first: the header records the blob sizes so a
  // loader can seek straight to any one shard.
  std::vector<std::string> blobs;
  blobs.reserve(shards.size());
  for (const auto& shard : shards) {
    std::ostringstream buf(std::ios::binary);
    shard.save(buf);
    blobs.push_back(std::move(buf).str());
  }
  // The stats section, serialized separately so the header can carry its
  // byte size — a loader that only wants the indexes can skip it in one
  // seek, and a stats-only loader (the broker) never reads a posting.
  std::ostringstream stats_buf(std::ios::binary);
  for (const auto& shard : shards) {
    save_term_stats(extract_term_stats(shard), stats_buf);
  }
  const std::string stats_blob = std::move(stats_buf).str();
  BinaryWriter w(out);
  w.write_u32(kShardSetMagic);
  w.write_u32(kShardSetVersion);
  w.write_u32(static_cast<std::uint32_t>(blobs.size()));
  for (const auto& blob : blobs) w.write_u64(blob.size());
  w.write_u64(stats_blob.size());
  out.write(stats_blob.data(), static_cast<std::streamsize>(stats_blob.size()));
  for (const auto& blob : blobs) {
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
}

ShardSetInfo read_shard_set_info(std::istream& in) {
  BinaryReader r(in);
  QADIST_CHECK(r.read_u32() == kShardSetMagic,
               << "not a qadist shard-set file");
  const auto version = r.read_u32();
  QADIST_CHECK(version == kShardSetVersionV1 || version == kShardSetVersion,
               << "unsupported shard-set version " << version);
  ShardSetInfo info;
  info.version = version;
  info.num_shards = r.read_u32();
  QADIST_CHECK(info.num_shards > 0, << "corrupt shard set: zero shards");
  info.shard_bytes.reserve(info.num_shards);
  for (std::uint32_t s = 0; s < info.num_shards; ++s) {
    info.shard_bytes.push_back(r.read_u64());
  }
  if (version >= 2) {
    const std::uint64_t stats_bytes = r.read_u64();
    const auto stats_start = static_cast<std::uint64_t>(in.tellg());
    info.stats.reserve(info.num_shards);
    for (std::uint32_t s = 0; s < info.num_shards; ++s) {
      info.stats.push_back(load_term_stats(in));
    }
    const auto consumed = static_cast<std::uint64_t>(in.tellg()) - stats_start;
    QADIST_CHECK(consumed == stats_bytes,
                 << "corrupt shard set: stats section is " << consumed
                 << " bytes, header says " << stats_bytes);
  }
  // Blobs start right where the header (and stats section) ends; offsets
  // are prefix sums.
  std::uint64_t offset = static_cast<std::uint64_t>(in.tellg());
  info.shard_offsets.reserve(info.num_shards);
  for (std::uint32_t s = 0; s < info.num_shards; ++s) {
    info.shard_offsets.push_back(offset);
    offset += info.shard_bytes[s];
  }
  return info;
}

InvertedIndex load_index_shard(std::istream& in, const ShardSetInfo& info,
                               std::size_t shard) {
  QADIST_CHECK(shard < info.num_shards,
               << "shard " << shard << " out of range ("
               << info.num_shards << " shards)");
  in.seekg(static_cast<std::streamoff>(info.shard_offsets[shard]));
  QADIST_CHECK(in.good(), << "seek failed loading shard " << shard);
  return InvertedIndex::load(in);
}

std::vector<InvertedIndex> load_index_shards(std::istream& in) {
  const ShardSetInfo info = read_shard_set_info(in);
  std::vector<InvertedIndex> shards;
  shards.reserve(info.num_shards);
  for (std::uint32_t s = 0; s < info.num_shards; ++s) {
    shards.push_back(load_index_shard(in, info, s));
  }
  return shards;
}

void save_index_shards_file(std::span<const InvertedIndex> shards,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  QADIST_CHECK(out.good(), << "cannot open " << path << " for writing");
  save_index_shards(shards, out);
  QADIST_CHECK(out.good(), << "write failed for " << path);
}

std::vector<InvertedIndex> load_index_shards_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QADIST_CHECK(in.good(), << "cannot open " << path);
  return load_index_shards(in);
}

}  // namespace qadist::ir
