#include "sched/load_table.hpp"

#include "common/check.hpp"

namespace qadist::sched {

LoadTable::Entry& LoadTable::entry(NodeId node) {
  if (node >= entries_.size()) entries_.resize(node + 1);
  return entries_[node];
}

const LoadTable::Entry* LoadTable::find(NodeId node) const {
  if (node >= entries_.size() || !entries_[node].alive) return nullptr;
  return &entries_[node];
}

LoadTable::LoadTable(FailureDetectorConfig detector) : detector_(detector) {}

PeerState LoadTable::update(NodeId node, const ResourceLoad& load, Seconds now,
                            double reservation_keep) {
  QADIST_CHECK(reservation_keep >= 0.0 && reservation_keep <= 1.0);
  Entry& e = entry(node);
  e.alive = true;
  e.broadcast = load;
  e.reserved.cpu *= reservation_keep;
  e.reserved.disk *= reservation_keep;
  return detector_.heartbeat(node, now);
}

void LoadTable::reserve(NodeId node, const ResourceLoad& delta) {
  const Entry* e = find(node);
  QADIST_CHECK(e != nullptr, << "reserve on non-member node " << node);
  Entry& mutable_entry = entries_[node];
  mutable_entry.reserved.cpu += delta.cpu;
  mutable_entry.reserved.disk += delta.disk;
}

void LoadTable::suspect_hint(NodeId node, Seconds now) {
  detector_.suspect_hint(node, now);
}

std::vector<DetectorTransition> LoadTable::sweep(Seconds now) {
  auto fired = detector_.sweep(now);
  for (const DetectorTransition& t : fired) {
    if (t.to == PeerState::kDead) remove(t.node);
  }
  return fired;
}

void LoadTable::remove(NodeId node) {
  if (node < entries_.size()) entries_[node].alive = false;
}

bool LoadTable::is_stale(NodeId node) const {
  return find(node) != nullptr &&
         detector_.state(node) == PeerState::kSuspect;
}

std::vector<NodeId> LoadTable::members() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < entries_.size(); ++id) {
    if (entries_[id].alive) out.push_back(id);
  }
  return out;
}

bool LoadTable::is_member(NodeId node) const { return find(node) != nullptr; }

ResourceLoad LoadTable::load_of(NodeId node) const {
  const Entry* e = find(node);
  QADIST_CHECK(e != nullptr, << "load_of non-member node " << node);
  return ResourceLoad{e->broadcast.cpu + e->reserved.cpu,
                      e->broadcast.disk + e->reserved.disk};
}

std::optional<NodeId> LoadTable::least_loaded(const LoadWeights& weights) const {
  // Fresh entries first; fall back to stale ones only when every member is
  // stale (placing work on a suspect beats placing it nowhere).
  for (const bool allow_stale : {false, true}) {
    std::optional<NodeId> best;
    double best_load = 0.0;
    for (NodeId id = 0; id < entries_.size(); ++id) {
      if (!entries_[id].alive) continue;
      if (!allow_stale && is_stale(id)) continue;
      const double l = load_function(load_of(id), weights);
      if (!best || l < best_load) {
        best = id;
        best_load = l;
      }
    }
    if (best) return best;
  }
  return std::nullopt;
}

std::size_t LoadTable::size() const {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (e.alive) ++n;
  }
  return n;
}

double mean_pool_load(const LoadTable& table, const LoadWeights& weights) {
  const auto members = table.members();
  if (members.empty()) return 0.0;
  double total = 0.0;
  for (const NodeId node : members) {
    total += load_function(table.load_of(node), weights);
  }
  return total / static_cast<double>(members.size());
}

}  // namespace qadist::sched
