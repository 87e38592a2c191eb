#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>

#include "common/check.hpp"

namespace perfbench {

double quantile_sorted(std::span<const double> sorted, double q) {
  QADIST_CHECK(!sorted.empty(), << "quantile of an empty sample");
  QADIST_CHECK(q >= 0.0 && q <= 1.0, << "quantile " << q << " outside [0,1]");
  const std::size_t n = sorted.size();
  const std::size_t rank = n - samples_beyond(n, q);
  return sorted[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

std::vector<double> quietest_passes(const std::vector<double>& samples,
                                    const std::vector<std::size_t>& pass_starts,
                                    std::size_t min_samples) {
  struct Pass {
    std::size_t begin;
    std::size_t end;
    double mean;
  };
  std::vector<Pass> passes;
  for (std::size_t i = 0; i < pass_starts.size(); ++i) {
    const std::size_t end =
        i + 1 < pass_starts.size() ? pass_starts[i + 1] : samples.size();
    QADIST_CHECK(pass_starts[i] <= end && end <= samples.size());
    if (pass_starts[i] == end) continue;
    double total = 0.0;
    for (std::size_t k = pass_starts[i]; k < end; ++k) total += samples[k];
    passes.push_back(
        {pass_starts[i], end, total / static_cast<double>(end - pass_starts[i])});
  }
  std::stable_sort(passes.begin(), passes.end(),
                   [](const Pass& a, const Pass& b) { return a.mean < b.mean; });
  std::vector<double> out;
  for (const Pass& p : passes) {
    if (out.size() >= min_samples) break;
    out.insert(out.end(), samples.begin() + static_cast<std::ptrdiff_t>(p.begin),
               samples.begin() + static_cast<std::ptrdiff_t>(p.end));
  }
  return out;
}

void append_sorted_samples(const qadist::Samples& samples,
                           std::vector<double>& out) {
  qadist::Samples sorted = samples;
  sorted.sort();
  const std::size_t n = sorted.count();
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(sorted.quantile(
        n == 1 ? 0.0 : static_cast<double>(k) / static_cast<double>(n - 1)));
  }
}

double FailureCount::fraction() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

std::size_t lost_questions(const qadist::cluster::Metrics& m) {
  return m.questions_degraded + m.questions_rejected + m.questions_shed;
}

bool sim_drained(const qadist::cluster::Metrics& m) {
  return m.completed + m.questions_rejected + m.questions_shed ==
             m.submitted &&
         m.latencies.count() == m.completed;
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 1099511628211ull;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(std::uint64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  add(std::string_view(bytes, sizeof bytes));
}

std::uint64_t answers_digest(std::span<const qadist::qa::Answer> answers) {
  Digest d;
  d.add(static_cast<std::uint64_t>(answers.size()));
  for (const auto& a : answers) {
    d.add(a.candidate);
    d.add(a.score);
  }
  return d.value();
}

std::uint64_t sim_digest(const qadist::cluster::Metrics& m) {
  Digest d;
  for (const std::size_t v :
       {m.submitted, m.completed, m.questions_degraded, m.questions_rejected,
        m.questions_shed, m.migrations_qa, m.migrations_pr, m.migrations_ap,
        m.cache_hits, m.pr_cache_hits, m.hedges_issued, m.net_retries}) {
    d.add(static_cast<std::uint64_t>(v));
  }
  d.add(m.first_submit);
  d.add(m.makespan);
  d.add(static_cast<std::uint64_t>(m.latencies.count()));
  if (m.latencies.count() > 0) {
    qadist::Samples sorted = m.latencies;
    sorted.sort();
    for (int k = 0; k <= 200; ++k) d.add(sorted.quantile(k / 200.0));
  }
  return d.value();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
