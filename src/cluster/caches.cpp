// Per-node answer/paragraph caches: the public cache API, affinity
// targets, and the end-of-run cache statistics.

#include "cache/affinity.hpp"
#include "cache/question_key.hpp"
#include "cluster/node_caches.hpp"
#include "common/check.hpp"

namespace qadist::cluster {

using sched::NodeId;

namespace {

/// Byte footprint an answer occupies in the cache (key + payload).
std::size_t answer_footprint(const std::string& key, const QuestionPlan& plan) {
  return key.size() + plan.answer_bytes;
}

/// Byte footprint of the cached paragraph set: the scored paragraph text
/// every PR unit would ship to the host.
std::size_t paragraph_footprint(const std::string& key,
                                const QuestionPlan& plan) {
  std::size_t bytes = key.size();
  for (const auto& unit : plan.pr_units) bytes += unit.bytes_out;
  return bytes;
}

}  // namespace

void System::prewarm(const QuestionPlan& plan) {
  QADIST_CHECK(!started_, << "prewarm after run()");
  if (caches_.empty()) return;
  const std::string key = cache::normalize_question(plan.source.text);
  if (const auto preferred = preferred_node(plan)) {
    remember(*preferred, key, plan);
  }
}

void System::remember(NodeId node, const std::string& key,
                      const QuestionPlan& plan) {
  NodeCaches& shard = *caches_[node];
  shard.answers.insert(key, CachedAnswer{plan.answer_bytes},
                       answer_footprint(key, plan), sim_.now());
  shard.paragraphs.insert(key, CachedParagraphs{},
                          paragraph_footprint(key, plan), sim_.now());
}

std::optional<NodeId> System::preferred_node(const QuestionPlan& plan) const {
  if (caches_.empty()) return std::nullopt;
  const std::uint64_t signature =
      cache::question_signature(cache::normalize_question(plan.source.text));
  std::vector<std::uint32_t> pool;
  pool.reserve(nodes_.size());
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (node_crashed_[n] == 0) pool.push_back(n);
  }
  return cache::rendezvous_pick(signature, pool);
}

bool System::answer_cached(NodeId node, const QuestionPlan& plan) const {
  if (caches_.empty()) return false;
  return caches_.at(node)->answers.contains(
      cache::normalize_question(plan.source.text), sim_.now());
}

cache::CacheStats System::answer_cache_stats(NodeId node) const {
  if (caches_.empty()) return {};
  return caches_.at(node)->answers.stats();
}

cache::CacheStats System::paragraph_cache_stats(NodeId node) const {
  if (caches_.empty()) return {};
  return caches_.at(node)->paragraphs.stats();
}

std::optional<NodeId> System::affinity_target(std::uint64_t signature) const {
  std::vector<std::uint32_t> live;
  live.reserve(table_.members().size());
  for (NodeId m : table_.members()) {
    if (schedulable(m)) live.push_back(m);
  }
  return cache::rendezvous_pick(signature, live);
}

void System::publish_cache_stats() {
  if (caches_.empty()) return;
  cache::CacheStats answers_total;
  cache::CacheStats paragraphs_total;
  const auto fold = [](cache::CacheStats& total,
                       const cache::CacheStats& s) {
    total.evictions_entries += s.evictions_entries;
    total.evictions_bytes += s.evictions_bytes;
    total.expirations += s.expirations;
    total.rejected_oversize += s.rejected_oversize;
    total.invalidations += s.invalidations;
    total.insertions += s.insertions;
    total.updates += s.updates;
  };
  for (NodeId n = 0; n < caches_.size(); ++n) {
    const NodeCaches& shard = *caches_[n];
    fold(answers_total, shard.answers.stats());
    fold(paragraphs_total, shard.paragraphs.stats());
    const obs::Labels node_label{{"node", std::to_string(n)}};
    const auto with_cache = [&](const char* cache_name) {
      obs::Labels labels = node_label;
      labels.emplace_back("cache", cache_name);
      return labels;
    };
    registry_.gauge("cache_entries", with_cache("answers"))
        .set(static_cast<double>(shard.answers.size()));
    registry_.gauge("cache_bytes", with_cache("answers"))
        .set(static_cast<double>(shard.answers.bytes()));
    registry_.gauge("cache_entries", with_cache("paragraphs"))
        .set(static_cast<double>(shard.paragraphs.size()));
    registry_.gauge("cache_bytes", with_cache("paragraphs"))
        .set(static_cast<double>(shard.paragraphs.bytes()));
  }
  const auto publish = [&](const char* cache_name,
                           const cache::CacheStats& s) {
    const obs::Labels labels{{"cache", cache_name}};
    registry_.counter("cache_insertions", labels)
        .inc(static_cast<double>(s.insertions));
    registry_.counter("cache_updates", labels)
        .inc(static_cast<double>(s.updates));
    registry_.counter("cache_evictions", labels)
        .inc(static_cast<double>(s.evictions()));
    registry_.counter("cache_expirations", labels)
        .inc(static_cast<double>(s.expirations));
    registry_.counter("cache_invalidations", labels)
        .inc(static_cast<double>(s.invalidations));
    registry_.counter("cache_rejected_oversize", labels)
        .inc(static_cast<double>(s.rejected_oversize));
  };
  publish("answers", answers_total);
  publish("paragraphs", paragraphs_total);
}

}  // namespace qadist::cluster
