#pragma once

// Small, separately tested helpers behind the benchmark's numbers:
// percentiles, failure accounting, answer digests and resident memory.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cluster/metrics.hpp"
#include "common/stats.hpp"
#include "qa/question.hpp"

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of ascending `sorted`; the sample at
/// 1-based rank ceil(q * n), or the minimum for q == 0. Panics when empty.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// Median (nearest rank) of unsorted values.
[[nodiscard]] double median(std::vector<double> values);

/// Samples strictly past the nearest-rank q-quantile of n samples:
/// n - ceil(q * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The samples of the quietest passes. `pass_starts` gives where each pass
/// begins in `samples` (ascending; a pass ends where the next begins).
/// Passes are ranked by their mean, fastest first, and pooled until at
/// least `min_samples` are in (all passes when there are not enough).
/// Every pass answers the same questions, so the differences between
/// passes are the machine's — other tenants, clock — not the program's.
[[nodiscard]] std::vector<double> quietest_passes(
    const std::vector<double>& samples,
    const std::vector<std::size_t>& pass_starts, std::size_t min_samples);


/// Appends the samples of `samples` to `out` in ascending order (read back
/// through Samples' interpolating quantile at each order statistic).
void append_sorted_samples(const qadist::Samples& samples,
                           std::vector<double>& out);

/// Outcome tally of a real-pipeline workload. A question fails when it
/// threw, returned no answer, or returned answers that differ from the
/// reference (the sequential pipeline's, or the first pass's).
struct FailureCount {
  std::size_t attempted = 0;
  std::size_t threw = 0;
  std::size_t empty = 0;
  std::size_t mismatched = 0;

  [[nodiscard]] std::size_t failed() const { return threw + empty + mismatched; }
  [[nodiscard]] double fraction() const;
};

/// Simulated questions not answered in full: degraded + rejected + shed.
/// failed_fraction is this over submitted.
[[nodiscard]] std::size_t lost_questions(const qadist::cluster::Metrics& m);

/// Simulated runs lose no question: completed + rejected + shed ==
/// submitted, and one latency sample per completion.
[[nodiscard]] bool sim_drained(const qadist::cluster::Metrics& m);

/// FNV-1a, folded over successive byte ranges.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(double value);
  void add(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 14695981039346656037ull;
};

/// Digest of an answer list: candidates and scores (bitwise), in rank order
/// — what the library guarantees identical between the sequential and the
/// host-parallel pipeline. (Supporting paragraph and window are not: an
/// answer found with equal scores in two paragraphs keeps whichever a worker
/// merged first.)
[[nodiscard]] std::uint64_t answers_digest(
    std::span<const qadist::qa::Answer> answers);

/// Digest of a simulated run's deterministic outputs (counts, makespan and
/// the latency distribution at 201 quantiles, bitwise) — equal digests mean
/// bit-identical sim metrics.
[[nodiscard]] std::uint64_t sim_digest(const qadist::cluster::Metrics& m);

/// CPU seconds this process has run, all threads (CLOCK_PROCESS_CPUTIME_ID).
/// Unlike wall time it leaves out the time the process sat waiting — for
/// another tenant's work, or for a hypervisor that took the virtual CPU away
/// (steal) — so identical single-threaded work reads the same on a busy and
/// on an idle host.
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of this process, in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
