#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "corpus/collection.hpp"
#include "corpus/generator.hpp"
#include "ir/analyzer.hpp"
#include "ir/inverted_index.hpp"
#include "ir/shard_stats.hpp"

namespace qadist::ir {

/// Binary serialization of a document collection. Each cluster node keeps a
/// copy of the collection on its local disk in the paper's deployment;
/// these routines make that a real on-disk artifact for host-mode runs
/// (examples persist the corpus, PR loads sub-collections back).
void save_collection(const corpus::Collection& collection, std::ostream& out);
[[nodiscard]] corpus::Collection load_collection(std::istream& in);

/// File-path convenience wrappers (fail via QADIST_CHECK on I/O errors).
void save_collection_file(const corpus::Collection& collection,
                          const std::string& path);
[[nodiscard]] corpus::Collection load_collection_file(const std::string& path);

/// Serialization of the complete generated world — collection, gazetteer
/// and ground-truth facts — so a deployment (or a later benchmark run) can
/// reload exactly the corpus it was built against without re-generating.
void save_world(const corpus::GeneratedCorpus& world, std::ostream& out);
[[nodiscard]] corpus::GeneratedCorpus load_world(std::istream& in);
void save_world_file(const corpus::GeneratedCorpus& world,
                     const std::string& path);
[[nodiscard]] corpus::GeneratedCorpus load_world_file(const std::string& path);

/// Document-partitioned index shards: the collection is split into
/// `num_shards` contiguous sub-collections (the paper's TREC-9 split into
/// eight) and each is indexed separately. Shard s indexes sub-collection s,
/// so the shard striping of PR iterative units (unit % num_shards) lines up
/// with which index can answer them. The collection is analyzed once and
/// every shard is built from that analysis.
[[nodiscard]] std::vector<InvertedIndex> build_shard_indexes(
    const corpus::Collection& collection, std::size_t num_shards,
    const Analyzer& analyzer);

/// Header of a serialized shard set — enough to seek to and load any single
/// shard without reading the others, which is the point: a replica holder
/// only pays I/O for the shards placed on it.
struct ShardSetInfo {
  std::uint32_t version = 0;
  std::uint32_t num_shards = 0;
  std::vector<std::uint64_t> shard_bytes;    ///< serialized size per shard
  std::vector<std::uint64_t> shard_offsets;  ///< absolute stream offsets
  /// Per-shard term statistics for collection selection (QASS v2 files;
  /// empty when loading a v1 artifact, which predates selective search).
  std::vector<ShardTermStats> stats;
};

/// Writes all shards as one artifact (QASS format v2): magic/version
/// header, per-shard byte sizes, a collection-selection statistics section
/// (per-shard term df + size summaries, extracted here at save time), then
/// each shard's own (magic-checked) index serialization. v1 files (no
/// stats section) still load.
void save_index_shards(std::span<const InvertedIndex> shards,
                       std::ostream& out);

/// Reads and validates the shard-set header, leaving the stream positioned
/// at the first shard blob. Fails via QADIST_CHECK on corrupt input.
[[nodiscard]] ShardSetInfo read_shard_set_info(std::istream& in);

/// Loads one shard by seeking to its offset (stream must be seekable).
[[nodiscard]] InvertedIndex load_index_shard(std::istream& in,
                                             const ShardSetInfo& info,
                                             std::size_t shard);

/// Loads every shard of the set (full replication / tooling path).
[[nodiscard]] std::vector<InvertedIndex> load_index_shards(std::istream& in);

void save_index_shards_file(std::span<const InvertedIndex> shards,
                            const std::string& path);
[[nodiscard]] std::vector<InvertedIndex> load_index_shards_file(
    const std::string& path);

}  // namespace qadist::ir
