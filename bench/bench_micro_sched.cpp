// Micro-benchmarks of the scheduling substrate: meta-scheduler cost vs
// pool size, load-table operations, and the partitioners — the per-question
// overheads Eq. 15 models as linear scans — plus the simulator's other
// per-question and per-tick decisions: the hedge trigger's running
// quantile, CORI shard scoring, and the load monitors' detector sweeps.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "broker/cori.hpp"
#include "broker/stats.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "parallel/partition.hpp"
#include "sched/dispatcher.hpp"
#include "sched/meta_scheduler.hpp"

namespace {

using namespace qadist;

sched::LoadTable make_table(std::size_t nodes, std::uint64_t seed) {
  sched::LoadTable table;
  Rng rng(seed);
  for (sched::NodeId id = 0; id < nodes; ++id) {
    table.update(id,
                 sched::ResourceLoad{rng.uniform(0.0, 4.0),
                                     rng.uniform(0.0, 4.0)},
                 0.0);
  }
  return table;
}

void BM_MetaSchedule(benchmark::State& state) {
  const auto table = make_table(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::meta_schedule(table, sched::kApWeights, 2.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetaSchedule)->Arg(4)->Arg(16)->Arg(128)->Arg(1024);

void BM_DecideMigration(benchmark::State& state) {
  const auto table = make_table(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::decide_migration(table, 0, sched::kQaWeights, 0.668));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecideMigration)->Arg(4)->Arg(128)->Arg(1024);

void BM_LoadTableUpdate(benchmark::State& state) {
  auto table = make_table(64, 3);
  double t = 1.0;
  for (auto _ : state) {
    table.update(17, sched::ResourceLoad{1.0, 2.0}, t, 0.9);
    t += 1.0;
  }
}
BENCHMARK(BM_LoadTableUpdate);

void BM_PartitionSend(benchmark::State& state) {
  const std::vector<double> weights(12, 1.0);
  const auto items = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::partition_send(items, weights));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionSend)->Arg(100)->Arg(1000)->Arg(10000);

void BM_PartitionIsend(benchmark::State& state) {
  const std::vector<double> weights(12, 1.0);
  const auto items = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::partition_isend(items, weights));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionIsend)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MakeChunks(benchmark::State& state) {
  const auto items = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::make_chunks(items, 40));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MakeChunks)->Arg(1000)->Arg(100000);

// The hedge trigger's lifetime cost over a run of n completed legs: every
// wall is added, and the p95 is read after each one (a supervision round
// reads it before it waits).
void BM_HedgeQuantile(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<double> walls(n);
  for (auto& w : walls) w = rng.lognormal(0.0, 0.5);
  for (auto _ : state) {
    RunningQuantile p95(0.95);
    double sum = 0.0;
    for (const double w : walls) {
      p95.add(w);
      sum += p95.value();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HedgeQuantile)->Arg(10000)->Arg(100000);

// CORI scores for a 3-keyword question over synthetic shard statistics: a
// 4,000-term vocabulary whose term t sits in a shard with probability
// ~1/(t+1), the spread a Zipf corpus gives.
void BM_CoriScoreShards(benchmark::State& state) {
  const auto num_shards = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::string> vocabulary;
  for (int t = 0; t < 4000; ++t) {
    vocabulary.push_back("term" + std::to_string(t));
  }
  std::vector<ir::ShardTermStats> shards(num_shards);
  for (auto& shard : shards) {
    for (std::size_t t = 0; t < vocabulary.size(); ++t) {
      if (rng.uniform01() < 1.0 / static_cast<double>(t + 1)) {
        shard.df[vocabulary[t]] =
            static_cast<std::uint32_t>(1 + rng.below(200));
      }
    }
    shard.words = 20000 + rng.below(20000);
  }
  const auto stats =
      broker::CollectionStats::from_shard_stats(std::move(shards));
  const std::vector<std::string> keywords = {"term3", "term40", "term700"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker::score_shards(stats, keywords));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoriScoreShards)->Arg(128);

// One monitor period of an N-node pool: each node's monitor, at its own
// instant, delivers its load broadcast (its heartbeat) and sweeps the load
// table's failure detector (one shared table, as in the simulated
// cluster).
void BM_MonitorSweep(benchmark::State& state) {
  const auto nodes = static_cast<sched::NodeId>(state.range(0));
  sched::LoadTable table(sched::FailureDetectorConfig{1.0, 2.0, 3.0});
  const double step = 1.0 / static_cast<double>(nodes);
  double t = 0.0;
  for (auto _ : state) {
    for (sched::NodeId id = 0; id < nodes; ++id) {
      t += step;
      table.update(id, sched::ResourceLoad{1.0, 1.0}, t, 0.9);
      benchmark::DoNotOptimize(table.sweep(t));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonitorSweep)->Arg(128);

}  // namespace
