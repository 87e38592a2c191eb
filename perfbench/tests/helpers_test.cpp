// Tests for the benchmark's own helpers: the percentile rule, quiet-pass
// selection, host-speed pacing, failure accounting, span self time with overlapping children,
// and seed plumbing through a real (small) simulated run. Exits non-zero on
// any failure.
//
//   .bench_build/perfbench_tests

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/metrics.hpp"
#include "pace.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_rule() {
  using perfbench::samples_beyond;
  check(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  check(samples_beyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  check(samples_beyond(100, 0.5) == 50, "100 samples: 50 beyond p50");
  check(samples_beyond(7, 1.0) == 0, "nothing beyond the maximum");

  check(samples_beyond(1000, 0.99) >= 10 && samples_beyond(999, 0.99) < 10,
        "p99 is reportable from 1000 samples on");
  check(perfbench::quantile_sorted(one_to(1000), 0.99) == 990.0,
        "nearest-rank p99 of 1..1000 is 990");
  check(perfbench::quantile_sorted(std::vector<double>{1, 2, 3, 4}, 0.0) == 1,
        "q=0 is the minimum");
  check(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.0,
        "nearest-rank median of four is the second");

  // Pooling simulated latencies: each run's samples come back in order.
  qadist::Samples s;
  for (const double x : {0.3, 0.1, 0.7, 0.2, 0.5}) s.add(x);
  std::vector<double> pooled{9.0};
  perfbench::append_sorted_samples(s, pooled);
  check(pooled == std::vector<double>{9.0, 0.1, 0.2, 0.3, 0.5, 0.7},
        "samples appended in ascending order");
}

void test_quietest_passes() {
  using perfbench::quietest_passes;
  // Three passes of two samples; means 5, 1 and 3.
  const std::vector<double> samples{4, 6, 1, 1, 2, 4};
  const std::vector<std::size_t> starts{0, 2, 4};
  check(quietest_passes(samples, starts, 2) == std::vector<double>{1, 1},
        "the fastest pass alone when it has enough samples");
  check(quietest_passes(samples, starts, 3) ==
            std::vector<double>{1, 1, 2, 4},
        "whole passes, fastest first, until enough samples");
  check(quietest_passes(samples, starts, 100).size() == 6,
        "every pass when there are not enough samples");
  check(quietest_passes(samples, {0, 2, 2, 4}, 2) == std::vector<double>{1, 1},
        "an empty pass is skipped");
}

void test_host_pace() {
  using perfbench::HostPace;
  const double n = HostPace::kNominalSeconds;
  check(near(HostPace::scale(n, n), 1.0), "a host at nominal speed: scale 1");
  check(near(HostPace::scale(2 * n, 2 * n), 0.5),
        "a host at half speed: times halved");
  check(near(HostPace::scale(n, 3 * n), 0.5),
        "the kernel samples on either side are averaged");
  HostPace pace;
  const double paced = perfbench::paced_cpu_seconds(pace, [] {
    volatile double x = 0;
    for (int i = 0; i < 1000000; ++i) x = x + 1;
  });
  check(paced > 0.0 && pace.samples().size() == 2,
        "a paced block takes a kernel sample on either side");

  perfbench::PacedSamples stream(pace, 2);
  for (const double x : {1.0, 2.0, 3.0}) stream.add(x);
  const auto out = stream.take();
  check(out.size() == 3 && pace.samples().size() == 5,
        "one kernel sample opens the stream and one closes each block");
  const auto& k = pace.samples();
  check(near(out[0], HostPace::scale(k[2], k[3])) &&
            near(out[2], 3.0 * HostPace::scale(k[3], k[4])),
        "each block is scaled by the samples on either side of it");
  check(stream.take().empty(), "take() clears");
}

void test_failure_accounting() {
  perfbench::FailureCount f;
  check(f.fraction() == 0.0, "no attempts, no failures");
  f.attempted = 200;
  f.threw = 1;
  f.empty = 2;
  f.mismatched = 3;
  check(f.failed() == 6, "failed = threw + empty + mismatched");
  check(near(f.fraction(), 0.03), "fraction over attempted");

  qadist::cluster::Metrics m;
  m.submitted = 10;
  m.completed = 8;
  m.questions_degraded = 1;  // degraded ones still complete
  m.questions_rejected = 1;
  m.questions_shed = 1;
  m.latencies.add(1.0);
  check(perfbench::lost_questions(m) == 3,
        "lost = degraded + rejected + shed");
  check(!perfbench::sim_drained(m), "8 + 1 + 1 = 10 but 1 sample != 8");
  for (int i = 0; i < 7; ++i) m.latencies.add(2.0);
  check(perfbench::sim_drained(m), "drained once samples == completions");
  m.completed = 7;
  check(!perfbench::sim_drained(m), "a lost question breaks the drain");
}

void test_self_time() {
  using perfbench::self_time;
  check(near(self_time(0, 10, {}), 10), "no children: all self");
  check(near(self_time(0, 10, {{1, 3}, {5, 6}}), 7), "disjoint children");
  // Host-parallel legs overlap: [1,5] and [2,6] cover [1,6] once.
  check(near(self_time(0, 10, {{2, 6}, {1, 5}}), 5), "overlapping children");
  check(near(self_time(0, 10, {{1, 9}, {2, 3}}), 2), "nested children");
  check(near(self_time(2, 4, {{0, 3}, {3.5, 8}}), 0.5),
        "children clipped to the span");

  // A tree through the log: the self times of non-overlapping children
  // plus the root's own sum to the root's duration.
  perfbench::SpanLog log;
  log.reset(7);
  const auto root = log.begin("question");
  const auto a = log.begin("a", root);
  log.end(a);
  const auto b = log.begin("b", root);
  log.end(b);
  log.end(root);
  check(log.question() == 7, "spans share the question id");
  perfbench::LayerTotals totals;
  check(totals.add(log) < 1e-12, "self times sum to the root duration");
  check(totals.calls_of("a") == 1 && totals.calls_of("missing") == 0,
        "per-name call counts");
}

void test_seed_plumbing() {
  // sim-paper is the cheapest simulated workload: one set-up, one pass of
  // its streams.
  const auto run = [](std::uint64_t seed) {
    perfbench::Options o;
    o.workload = "sim-paper";
    o.seed = seed;
    o.seconds = 0.1;
    o.setups = 1;
    return perfbench::run_workload(o);
  };
  const auto value = [](const perfbench::Report& r, const std::string& n) {
    for (const auto& m : r.end_to_end) {
      if (m.name == n) return m.value;
    }
    return std::nan("");
  };
  const auto a = run(3);
  const auto b = run(3);
  const auto c = run(4);
  check(a.violations.empty() && c.violations.empty(), "runs are correct");
  for (const char* name :
       {"latency_p50_ms", "latency_p99_ms", "throughput_qpm", "answer_mrr"}) {
    check(value(a, name) == value(b, name),
          std::string("same seed, identical ") + name);
  }
  check(value(a, "latency_p99_ms") != value(c, "latency_p99_ms") &&
            value(a, "throughput_qpm") != value(c, "throughput_qpm"),
        "a different seed gives a different stream");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_quietest_passes();
  test_host_pace();
  test_failure_accounting();
  test_self_time();
  test_seed_plumbing();
  if (failures == 0) std::printf("perfbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
