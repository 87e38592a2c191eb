#pragma once

// Internal to the cluster library: what each node's answer and paragraph
// caches hold.

#include "cluster/system.hpp"

namespace qadist::cluster {

/// Answer-cache resident: what a hit must reproduce is the final answer
/// payload; everything else about the question is recomputable from it.
struct CachedAnswer {
  std::size_t answer_bytes = 0;
};

/// Paragraph-cache resident: presence is the value — a hit means the
/// accepted, scored paragraphs are already on this node's disk, so the
/// PR stage (and its fused scoring) is skipped.
struct CachedParagraphs {};

/// Per-node cache shards. One pair per node, like the CPUs and disks: a
/// question probes the caches of the node it landed on, which is what the
/// affinity dispatch exists to make the right node.
struct System::NodeCaches {
  cache::LruTtlCache<CachedAnswer> answers;
  cache::LruTtlCache<CachedParagraphs> paragraphs;

  explicit NodeCaches(const cache::CacheConfig& config)
      : answers(config.answers), paragraphs(config.paragraphs) {}

  /// Drops every entry (counted as invalidations, not evictions).
  void clear() {
    answers.clear();
    paragraphs.clear();
  }
};

}  // namespace qadist::cluster
