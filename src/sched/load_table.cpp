#include "sched/load_table.hpp"

#include <algorithm>

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

void LoadTable::update(NodeId node, const ResourceLoad& load, Seconds now,
                       double reservation_keep) {
  QADIST_CHECK(reservation_keep >= 0.0 && reservation_keep <= 1.0);
  Entry& e = entry(node);
  e.alive = true;
  e.stale = false;  // a fresh broadcast is trustworthy again
  e.broadcast = load;
  e.reserved.cpu *= reservation_keep;
  e.reserved.disk *= reservation_keep;
  e.last_update = now;
  update_floor_ = std::min(update_floor_, now);
}

void LoadTable::reserve(NodeId node, const ResourceLoad& delta) {
  const Entry* e = find(node);
  QADIST_CHECK(e != nullptr, << "reserve on non-member node " << node);
  Entry& mutable_entry = entries_[node];
  mutable_entry.reserved.cpu += delta.cpu;
  mutable_entry.reserved.disk += delta.disk;
}

void LoadTable::remove(NodeId node) {
  if (node < entries_.size()) entries_[node].alive = false;
}

void LoadTable::mark_stale(NodeId node, bool stale) {
  if (node < entries_.size() && entries_[node].alive) {
    entries_[node].stale = stale;
  }
}

bool LoadTable::is_stale(NodeId node) const {
  const Entry* e = find(node);
  return e != nullptr && e->stale;
}

void LoadTable::expire(Seconds now, Seconds timeout) {
  // Every member updated no earlier than the floor, and subtraction is
  // monotone: unless the floor has aged past the timeout, no member has.
  if (!(now - update_floor_ > timeout)) return;
  update_floor_ = std::numeric_limits<Seconds>::infinity();
  for (auto& e : entries_) {
    if (e.alive && now - e.last_update > timeout) e.alive = false;
    if (e.alive) update_floor_ = std::min(update_floor_, e.last_update);
  }
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
      if (entries_[id].stale && !allow_stale) continue;
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
