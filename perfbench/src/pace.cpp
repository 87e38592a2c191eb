#include "pace.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <utility>

namespace perfbench {

namespace {

constexpr std::size_t kWords = 8192;
constexpr std::size_t kKeys = 16384;
constexpr std::size_t kProbes = 20000;
constexpr std::uint32_t kNodes = 8000;
constexpr std::size_t kEvents = 40000;

/// A node record of the kernel's event loop.
struct Node {
  double busy = 0.0;
  std::uint64_t served = 0;
  std::vector<std::uint32_t> recent;
};

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

HostPace::HostPace() {
  std::uint64_t state = 42;
  words_.reserve(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    std::string word;
    const std::size_t length = 4 + splitmix(state) % 9;
    for (std::size_t k = 0; k < length; ++k) {
      word += static_cast<char>('a' + splitmix(state) % 26);
    }
    table_.emplace(word, static_cast<std::uint32_t>(i));
    words_.push_back(std::move(word));
  }
  keys_.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys_.push_back(splitmix(state));
  run_kernel();
}

std::uint64_t HostPace::run_kernel() {
  std::uint64_t state = 7;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kProbes; ++i) {
    const auto it = table_.find(words_[splitmix(state) % words_.size()]);
    acc += it->second;
  }
  std::vector<std::uint64_t> sorted = keys_;
  std::sort(sorted.begin(), sorted.end());
  acc += sorted[sorted.size() / 2];
  // A discrete-event loop: a time-ordered heap of events over a table of
  // heap-allocated node records, as in the simulator.
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<std::uint32_t, std::unique_ptr<Node>> nodes;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    nodes.emplace(i, std::make_unique<Node>());
    events.emplace(static_cast<double>(splitmix(state) % 1000000), i);
  }
  for (std::size_t k = 0; k < kEvents; ++k) {
    const auto [now, id] = events.top();
    events.pop();
    Node& node = *nodes[id];
    node.busy += 1.0;
    acc += ++node.served;
    node.recent.push_back(static_cast<std::uint32_t>(k));
    if (node.recent.size() > 8) node.recent.erase(node.recent.begin());
    events.emplace(now + static_cast<double>(splitmix(state) % 1000),
                   static_cast<std::uint32_t>(splitmix(state) % kNodes));
  }
  return acc;
}

double HostPace::sample() {
  const double t0 = process_cpu_seconds();
  volatile std::uint64_t sink = run_kernel();
  (void)sink;
  const double seconds = process_cpu_seconds() - t0;
  samples_.push_back(seconds);
  return seconds;
}

double HostPace::scale(double before, double after) {
  return kNominalSeconds / (0.5 * (before + after));
}

PacedSamples::PacedSamples(HostPace& pace, std::size_t block_size)
    : pace_(pace), block_size_(block_size), before_(pace.sample()) {}

void PacedSamples::add(double time) {
  open_.push_back(time);
  if (open_.size() >= block_size_) close_block();
}

std::vector<double> PacedSamples::take() {
  close_block();
  return std::exchange(paced_, {});
}

void PacedSamples::close_block() {
  if (open_.empty()) return;
  const double after = pace_.sample();
  const double scale = HostPace::scale(before_, after);
  for (const double x : open_) paced_.push_back(x * scale);
  open_.clear();
  before_ = after;
}

}  // namespace perfbench
