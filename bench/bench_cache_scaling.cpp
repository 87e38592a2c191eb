// Answer/paragraph cache scaling study (extension beyond the paper): the
// FALCON pipeline the paper measures recomputes every question from
// scratch, but production question streams repeat — a handful of popular
// questions dominate. This bench measures what a per-node answer cache
// with cache-affinity dispatch buys on top of the paper's DQA policy.
//
// Three experiments:
//   1. hit rate vs Zipf skew vs cluster size (warm caches, DQA+affinity);
//   2. throughput of cached DQA vs the uncached DNS / INTER / DQA
//      baselines at 4x overload and skew 1.0 (the acceptance bar is
//      cached DQA >= 2x uncached DQA);
//   3. a mid-run crash that invalidates one node's shard: the run must
//      still drain, and the surviving shards keep serving hits.
//
// Emits results/BENCH_cache_scaling.json.

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "support/bench_cli.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

namespace {

using namespace qadist;
using cluster::Policy;

/// The cached configuration under study: both caches on, generously sized
/// (the study varies the stream, not the budget — eviction behaviour has
/// its own unit tests).
cluster::SystemConfig cached_config(std::size_t nodes, std::uint64_t seed,
                                    const bench::BenchWorld& world) {
  cluster::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.dispatch.policy = Policy::kDqa;
  cfg.partition.ap_chunk = bench::scaled_chunk(world);
  cfg.cache.answers.max_entries = 256;
  cfg.cache.paragraphs.max_entries = 128;
  return cfg;
}

cluster::SystemConfig uncached_config(std::size_t nodes, std::uint64_t seed,
                                      Policy policy,
                                      const bench::BenchWorld& world) {
  cluster::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.dispatch.policy = policy;
  cfg.partition.ap_chunk = bench::scaled_chunk(world);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  [[maybe_unused]] const auto cli = qadist::bench::BenchCli::parse(argc, argv);
  const auto& world = bench::bench_world();
  const std::uint64_t seed = 1000;

  const std::vector<std::size_t> node_counts{4, 8, 12};
  const std::size_t distinct = 30;
  const double overload_factor = 4.0;

  bench::BenchReport report("cache_scaling");
  report.config("seed", static_cast<std::int64_t>(seed));
  report.config("distinct_questions", static_cast<std::int64_t>(distinct));
  report.config("overload_factor", overload_factor);

  // ---- 1. Hit rate vs Zipf skew vs cluster size (warm caches) ----------
  const double skews[] = {0.0, 0.5, 1.0};
  TextTable hit_table({"", "skew 0.0", "skew 0.5", "skew 1.0"});
  for (const std::size_t nodes : node_counts) {
    std::vector<std::string> cells{std::to_string(nodes) + " nodes"};
    for (const double skew : skews) {
      cluster::OverloadWorkload load;
      load.seed = seed;
      load.overload_factor = overload_factor;
      load.repeat_exponent = skew;
      load.distinct_questions = distinct;
      // Cold caches: the hit rate is earned by repetition in the stream,
      // so it traces the Zipf skew (a prewarmed run would be ~100%
      // everywhere — that regime is experiment 2's).
      const auto m = bench::run_zipf_load(
          world, cached_config(nodes, seed, world), load, /*prewarm=*/false);
      const double rate = m.answer_cache_hit_rate();
      cells.push_back(cell(100.0 * rate, 1) + " %");
      report.metric("answer_hit_rate",
                    {{"nodes", std::to_string(nodes)},
                     {"repeat_exponent", format_double(skew, 1)}},
                    rate);
      report.metric("affinity_routes",
                    {{"nodes", std::to_string(nodes)},
                     {"repeat_exponent", format_double(skew, 1)}},
                    static_cast<double>(m.affinity_routes));
    }
    hit_table.add_row(cells);
  }
  std::printf(
      "Cache scaling — cold-start answer-cache hit rate (DQA + affinity, "
      "%zu distinct questions, %.0fx overload)\n%s",
      distinct, overload_factor, hit_table.render().c_str());
  std::printf(
      "Expected shape: hit rate grows with skew; affinity keeps it "
      "roughly flat as nodes scale.\n\n");

  // ---- 2. Throughput vs the uncached policy baselines at skew 1.0 ------
  TextTable tp_table({"", "DNS", "INTER", "DQA", "DQA+cache", "speedup"});
  for (const std::size_t nodes : node_counts) {
    cluster::OverloadWorkload load;
    load.seed = seed;
    load.overload_factor = overload_factor;
    load.repeat_exponent = 1.0;
    load.distinct_questions = distinct;

    std::vector<std::string> cells{std::to_string(nodes) + " nodes"};
    double dqa_baseline = 0.0;
    for (Policy policy : {Policy::kDns, Policy::kInter, Policy::kDqa}) {
      const auto m = bench::run_zipf_load(
          world, uncached_config(nodes, seed, policy, world), load,
          /*prewarm=*/false);
      const double qpm = m.throughput_qpm();
      if (policy == Policy::kDqa) dqa_baseline = qpm;
      cells.push_back(cell(qpm, 2));
      report.metric("throughput_qpm",
                    {{"nodes", std::to_string(nodes)},
                     {"config", std::string(cluster::to_string(policy))}},
                    qpm);
    }
    const auto cached = bench::run_zipf_load(
        world, cached_config(nodes, seed, world), load, /*prewarm=*/true);
    const double cached_qpm = cached.throughput_qpm();
    const double speedup =
        dqa_baseline > 0.0 ? cached_qpm / dqa_baseline : 0.0;
    cells.push_back(cell(cached_qpm, 2));
    cells.push_back(cell(speedup, 2) + "x");
    tp_table.add_row(cells);
    report.metric("throughput_qpm",
                  {{"nodes", std::to_string(nodes)}, {"config", "DQA+cache"}},
                  cached_qpm);
    report.metric("cache_speedup_vs_dqa", {{"nodes", std::to_string(nodes)}},
                  speedup);
  }
  std::printf(
      "Cache scaling — throughput (questions/minute) at skew 1.0, "
      "%.0fx overload\n%s",
      overload_factor, tp_table.render().c_str());
  std::printf(
      "Acceptance bar: DQA+cache >= 2.00x the uncached DQA column.\n\n");

  // ---- 3. Crash invalidation: one shard lost mid-run ------------------
  {
    const std::size_t nodes = node_counts.front();
    cluster::OverloadWorkload load;
    load.seed = seed;
    load.overload_factor = overload_factor;
    load.repeat_exponent = 1.0;
    load.distinct_questions = distinct;

    auto cfg = cached_config(nodes, seed, world);
    cfg.faults.crashes.push_back(cluster::FaultEvent{1, 30.0});
    // run() checks submitted == completed, so reaching this line at all
    // means the run drained despite the invalidated shard.
    const auto m = bench::run_zipf_load(world, cfg, load, /*prewarm=*/true);
    std::printf(
        "Crash invalidation (%zu nodes, node 1 lost at t=30s): drained "
        "%zu/%zu questions, hit rate %.1f %%, %zu entries invalidated\n\n",
        nodes, m.completed, m.submitted, 100.0 * m.answer_cache_hit_rate(),
        m.cache_invalidations);
    report.metric("crash_drained_questions",
                  {{"nodes", std::to_string(nodes)}},
                  static_cast<double>(m.completed));
    report.metric("crash_hit_rate", {{"nodes", std::to_string(nodes)}},
                  m.answer_cache_hit_rate());
    report.metric("crash_invalidated_entries",
                  {{"nodes", std::to_string(nodes)}},
                  static_cast<double>(m.cache_invalidations));
  }

  report.write();
  return 0;
}
