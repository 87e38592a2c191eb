// Supervision goldens: one exact pin per supervised scatter-gather path.
//
// Every PR/AP/broker fan-out runs through the same supervision protocol —
// reply timeouts, liveness sweeps, unreachable legs, deadline degrade,
// hedging, tied cancels — with a per-stage recovery policy. Each case below
// drives one path and pins its whole event schedule: makespan, latency
// summary, the span digest (count and start/end sums), an FNV-1a hash of
// every instant event's node and text, and the recovery, hedge and broker
// counters. The golden strings print doubles with 17 significant digits,
// so string equality is bit equality: a single re-ordered spawn, counter
// or trace line anywhere in the run fails the pin.
//
// Each case also asserts that the path it names actually fired, so no pin
// can pass vacuously. The crash cases also assert that the failure
// detector's sweep fired: its transitions drive placement in every run.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "cluster/system.hpp"
#include "obs/span.hpp"
#include "support/test_world.hpp"
#include "workload/driver.hpp"

namespace qadist::cluster {
namespace {

using parallel::Strategy;
using qadist::testing::test_world;

const std::vector<QuestionPlan>& plans() {
  static const std::vector<QuestionPlan> p = [] {
    const auto& world = test_world();
    const auto cost = CostModel::calibrate(
        *world.engine,
        std::span<const corpus::Question>(world.questions).subspan(0, 8));
    std::vector<QuestionPlan> out;
    for (std::size_t i = 0; i < 16; ++i) {
      out.push_back(make_plan(*world.engine, cost, world.questions[i]));
    }
    return out;
  }();
  return p;
}

struct GoldenRun {
  Metrics metrics;
  std::string digest;
  std::size_t instants_containing(std::string_view needle) const {
    std::size_t n = 0;
    for (const auto& text : instant_texts) {
      if (text.find(needle) != std::string::npos) ++n;
    }
    return n;
  }
  double counter(std::string_view name) const {
    for (const auto& [key, value] : counters) {
      if (key == name) return value;
    }
    return 0.0;
  }
  std::vector<std::string> instant_texts;
  std::vector<std::pair<std::string, double>> counters;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// FNV-1a 64 over every instant's node and text, in recording order.
std::uint64_t instant_hash(const obs::Tracer& tracer) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& e : tracer.instants()) {
    mix(std::string("N").append(std::to_string(e.node + 1)).append(" "));
    mix(e.text);
    mix("\n");
  }
  return h;
}

/// Builds the system, lets `drive` submit its workload, runs, and digests.
template <typename Drive>
GoldenRun run_golden(const SystemConfig& cfg, Drive&& drive) {
  simnet::Simulation sim;
  System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  drive(system);
  GoldenRun out;
  out.metrics = system.run();
  const Metrics& m = out.metrics;
  Samples lat = m.latencies;
  lat.sort();
  double span_start = 0.0;
  double span_end = 0.0;
  for (const auto& s : tracer.spans()) {
    span_start += s.start;
    span_end += s.end;
  }
  for (const auto& e : tracer.instants()) out.instant_texts.push_back(e.text);
  for (const char* name :
       {"legs_spawned", "legs_lost", "items_recovered", "recovery_legs",
        "question_restarts", "legs_unreachable", "questions_degraded",
        "degraded_units_dropped", "shard_units_unserved", "hedges_issued",
        "hedge_wins", "hedge_losses", "legs_cancelled", "straggler_avoidances",
        "broker_legs", "broker_reroutes", "broker_unreachable"}) {
    const auto* c = system.registry().find_counter(name);
    out.counters.emplace_back(name, c != nullptr ? c->value() : 0.0);
  }
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, instant_hash(tracer));
  out.digest = "makespan=" + fmt(m.makespan) +
               " n=" + std::to_string(lat.count()) +
               " mean=" + fmt(lat.mean()) +
               " p95=" + fmt(lat.quantile(0.95)) + " max=" + fmt(lat.max()) +
               " spans=" + std::to_string(tracer.spans().size()) +
               " start=" + fmt(span_start) + " end=" + fmt(span_end) +
               " instants=" + std::to_string(tracer.instants().size()) +
               " fnv=" + hash;
  for (const auto& [name, value] : out.counters) {
    out.digest += " " + name + "=" + fmt(value);
  }
  out.digest += " pr_migrations=" + std::to_string(m.migrations_pr) +
                " ap_migrations=" + std::to_string(m.migrations_ap);
  return out;
}

SystemConfig base_config(std::size_t nodes) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = 42;
  cfg.dispatch.policy = Policy::kDqa;
  cfg.partition.ap_chunk = 8;
  return cfg;
}

/// Evenly spaced arrivals over the plan set.
auto spaced(std::size_t count, Seconds gap, Seconds first = 0.0) {
  return [count, gap, first](System& system) {
    Seconds at = first;
    for (std::size_t i = 0; i < count; ++i) {
      system.submit(plans()[i % plans().size()], at);
      at += gap;
    }
  };
}

/// The paper's high-load protocol through workload::Driver.
auto overload(std::size_t count, double factor) {
  return [count, factor](System& system) {
    workload::RunSpec spec;
    spec.shape = workload::WorkloadShape::kOverload;
    spec.overload.count = count;
    spec.overload.overload_factor = factor;
    spec.overload.seed = 5;
    workload::Driver(system, plans()).submit(spec);
  };
}

#define EXPECT_GOLDEN(run, golden) \
  EXPECT_EQ((run).digest, std::string(golden)) << "actual:\n" << (run).digest

// --- Fault-free partitioning paths ----------------------------------------

TEST(SupervisionGoldenTest, PrSendApSend) {
  SystemConfig cfg = base_config(6);
  cfg.partition.pr_strategy = Strategy::kSend;
  cfg.partition.ap_strategy = Strategy::kSend;
  const GoldenRun run = run_golden(cfg, spaced(10, 8.0));
  EXPECT_GT(run.metrics.migrations_pr, 0u);
  EXPECT_GT(run.metrics.migrations_ap, 0u);
  EXPECT_GOLDEN(run,
      "makespan=466.71635937986139 n=10 mean=202.32729326428898 "
      "p95=398.4124708517769 max=418.71635937986139 spans=218 "
      "start=9625.8949279588633 end=17122.783000545522 instants=138 "
      "fnv=d88b0f4d6befd918 legs_spawned=88 legs_lost=0 "
      "items_recovered=0 recovery_legs=0 question_restarts=0 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=0 hedge_wins=0 hedge_losses=0 legs_cancelled=0 "
      "straggler_avoidances=0 broker_legs=0 broker_reroutes=0 "
      "broker_unreachable=0 pr_migrations=10 ap_migrations=10");
}

TEST(SupervisionGoldenTest, ApIsend) {
  SystemConfig cfg = base_config(6);
  cfg.partition.ap_strategy = Strategy::kIsend;
  const GoldenRun run = run_golden(cfg, spaced(10, 8.0));
  EXPECT_GT(run.metrics.migrations_ap, 0u);
  EXPECT_GOLDEN(run,
      "makespan=289.38711087985786 n=10 mean=158.46164151054384 "
      "p95=246.8817439865575 max=264.46826198294815 spans=219 "
      "start=9424.2072392673235 end=15808.581333129427 instants=139 "
      "fnv=c3ad9b1a1e5ffe48 legs_spawned=89 legs_lost=0 "
      "items_recovered=0 recovery_legs=0 question_restarts=0 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=0 hedge_wins=0 hedge_losses=0 legs_cancelled=0 "
      "straggler_avoidances=0 broker_legs=0 broker_reroutes=0 "
      "broker_unreachable=0 pr_migrations=10 ap_migrations=10");
}

// --- Worker crashes mid-PR and mid-AP -------------------------------------

GoldenRun worker_crash_run(Strategy strategy) {
  SystemConfig cfg = base_config(4);
  cfg.partition.ap_strategy = strategy;
  if (strategy == Strategy::kSend) cfg.partition.pr_strategy = Strategy::kSend;
  cfg.faults.crashes.push_back(FaultEvent{1, 5.0});
  cfg.faults.crashes.push_back(FaultEvent{2, 45.0});
  return run_golden(cfg, spaced(12, 20.0));
}

TEST(SupervisionGoldenTest, WorkerCrashUnderRecv) {
  const GoldenRun run = worker_crash_run(Strategy::kRecv);
  EXPECT_GT(run.metrics.legs_lost, 0u);
  EXPECT_GT(run.metrics.items_recovered, 0u);
  EXPECT_GT(run.instants_containing("during PR"), 0u);
  EXPECT_GT(run.instants_containing("during AP"), 0u);
  EXPECT_GT(run.instants_containing("peer suspect"), 0u);
  EXPECT_GOLDEN(run,
      "makespan=858.96004789388473 n=12 mean=526.56098935450734 "
      "p95=701.9577001891696 max=738.96004789388473 spans=213 "
      "start=30330.766037344234 end=50141.832387383532 instants=178 "
      "fnv=809bae95a8198dbc legs_spawned=39 legs_lost=4 "
      "items_recovered=9 recovery_legs=0 question_restarts=2 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=0 hedge_wins=0 hedge_losses=0 legs_cancelled=0 "
      "straggler_avoidances=0 broker_legs=0 broker_reroutes=0 "
      "broker_unreachable=0 pr_migrations=11 ap_migrations=8");
}

TEST(SupervisionGoldenTest, WorkerCrashUnderSend) {
  const GoldenRun run = worker_crash_run(Strategy::kSend);
  EXPECT_GT(run.metrics.legs_lost, 0u);
  EXPECT_GT(run.metrics.recovery_legs, 0u);
  EXPECT_GT(run.instants_containing("during PR"), 0u);
  EXPECT_GT(run.instants_containing("during AP"), 0u);
  EXPECT_GT(run.instants_containing("peer suspect"), 0u);
  EXPECT_GOLDEN(run,
      "makespan=863.83306644515164 n=12 mean=533.57802733655433 "
      "p95=731.48532012409657 max=803.83306644515164 spans=206 "
      "start=27569.471777202114 end=47241.606766539255 instants=169 "
      "fnv=6345b666635be8f7 legs_spawned=42 legs_lost=4 "
      "items_recovered=24 recovery_legs=5 question_restarts=1 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=0 hedge_wins=0 hedge_losses=0 legs_cancelled=0 "
      "straggler_avoidances=0 broker_legs=0 broker_reroutes=0 "
      "broker_unreachable=0 pr_migrations=9 ap_migrations=6");
}

// --- Host crash and restart ------------------------------------------------

TEST(SupervisionGoldenTest, HostCrashAndRestart) {
  SystemConfig cfg = base_config(3);
  cfg.dispatch.policy = Policy::kDns;
  cfg.faults.crashes.push_back(FaultEvent{0, 5.0, /*restart_after=*/20.0});
  const GoldenRun run = run_golden(cfg, spaced(6, 15.0));
  EXPECT_GT(run.metrics.question_restarts, 0u);
  EXPECT_EQ(run.instants_containing("restarted"), 1u);
  EXPECT_GT(run.instants_containing("peer suspect"), 0u);
  EXPECT_GOLDEN(run,
      "makespan=402.79420174569225 n=6 mean=284.8705780708645 "
      "p95=356.47233703758047 max=361.03171546820994 spans=94 "
      "start=6220.9182453538333 end=11357.851649600203 instants=81 "
      "fnv=813eb8d79a81ad1c legs_spawned=13 legs_lost=1 "
      "items_recovered=0 recovery_legs=0 question_restarts=1 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=0 hedge_wins=0 hedge_losses=0 legs_cancelled=0 "
      "straggler_avoidances=0 broker_legs=0 broker_reroutes=0 "
      "broker_unreachable=0 pr_migrations=0 ap_migrations=0");
}

// --- Lossy link + deadline: unreachable legs, then degrade ----------------

TEST(SupervisionGoldenTest, LossyLinkThenDeadlineDegrade) {
  SystemConfig cfg = base_config(4);
  cfg.net.faults.drop_probability = 0.5;
  cfg.net.reliability.question_deadline = 5.0;
  const GoldenRun run = run_golden(cfg, spaced(8, 30.0));
  EXPECT_GT(run.metrics.legs_unreachable, 0u);
  EXPECT_GT(run.metrics.items_recovered, 0u);
  EXPECT_GT(run.metrics.questions_degraded, 0u);
  EXPECT_GT(run.metrics.degraded_units_dropped, 0u);
  EXPECT_GOLDEN(run,
      "makespan=264.87048651232146 n=8 mean=74.403394105943235 "
      "p95=143.49297744443851 max=146.28875442958761 spans=143 "
      "start=17491.239799158295 end=19615.546242727112 instants=606 "
      "fnv=0758d5b051bea8b2 legs_spawned=45 legs_lost=0 "
      "items_recovered=3 recovery_legs=0 question_restarts=0 "
      "legs_unreachable=29 questions_degraded=8 "
      "degraded_units_dropped=147 shard_units_unserved=0 "
      "hedges_issued=0 hedge_wins=0 hedge_losses=0 legs_cancelled=0 "
      "straggler_avoidances=0 broker_legs=0 broker_reroutes=0 "
      "broker_unreachable=0 pr_migrations=8 ap_migrations=8");
}

// --- Hedge + tied + latency-aware around a gray node ----------------------

GoldenRun hedged_run(bool sharded) {
  SystemConfig cfg = base_config(12);
  if (sharded) {
    cfg.shard.num_shards = 8;
    cfg.shard.replication = 2;
  }
  cfg.tail.hedge = true;
  cfg.tail.tied = true;
  cfg.tail.latency_aware = true;
  simnet::GrayFaultEvent ev;
  ev.node = 2;
  ev.at = 50.0;
  ev.cpu_factor = 10.0;
  ev.disk_factor = 10.0;
  cfg.gray.events.push_back(ev);
  return run_golden(cfg, overload(48, 0.6));
}

TEST(SupervisionGoldenTest, HedgeTiedLatencyAwareFlat) {
  const GoldenRun run = hedged_run(/*sharded=*/false);
  EXPECT_GT(run.metrics.hedges_issued, 0u);
  EXPECT_GT(run.metrics.hedge_wins + run.metrics.hedge_losses, 0u);
  EXPECT_GT(run.metrics.legs_cancelled, 0u);
  EXPECT_GT(run.metrics.straggler_avoidances, 0u);
  EXPECT_GOLDEN(run,
      "makespan=1236.2260772369798 n=48 mean=78.747806272820682 "
      "p95=107.62203133550322 max=143.30574527881822 spans=1848 "
      "start=1142147.0602935047 end=1163307.0054717218 instants=949 "
      "fnv=d0c28af79b0a98c4 legs_spawned=1117 legs_lost=0 "
      "items_recovered=0 recovery_legs=0 question_restarts=0 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=107 hedge_wins=73 hedge_losses=34 "
      "legs_cancelled=106 straggler_avoidances=7 broker_legs=0 "
      "broker_reroutes=0 broker_unreachable=0 pr_migrations=48 "
      "ap_migrations=48");
}

TEST(SupervisionGoldenTest, HedgeTiedLatencyAwareSharded) {
  const GoldenRun run = hedged_run(/*sharded=*/true);
  EXPECT_GT(run.metrics.hedges_issued, 0u);
  EXPECT_GT(run.metrics.hedge_wins + run.metrics.hedge_losses, 0u);
  EXPECT_GT(run.metrics.legs_cancelled, 0u);
  EXPECT_GOLDEN(run,
      "makespan=1277.0634377614656 n=48 mean=76.882959199225894 "
      "p95=104.80842200716005 max=114.38618774690048 spans=1560 "
      "start=959107.61889483314 end=979233.32594160642 instants=912 "
      "fnv=5ce8898e6c54432b legs_spawned=862 legs_lost=0 "
      "items_recovered=0 recovery_legs=0 question_restarts=0 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=74 hedge_wins=45 hedge_losses=29 "
      "legs_cancelled=74 straggler_avoidances=46 broker_legs=0 "
      "broker_reroutes=0 broker_unreachable=0 pr_migrations=48 "
      "ap_migrations=48");
}

// --- Sharded R=2 holder crash ---------------------------------------------

TEST(SupervisionGoldenTest, ShardedHolderCrash) {
  SystemConfig cfg = base_config(6);
  cfg.shard.num_shards = 8;
  cfg.shard.replication = 2;
  const GoldenRun run = run_golden(cfg, [](System& system) {
    // A holder of shard 0 dies mid-PR/AP and reboots a minute later.
    const auto victim = *system.shard_map()->ready_source(0);
    system.schedule_crash(static_cast<sched::NodeId>(victim), 23.0, 60.0);
    spaced(10, 10.0)(system);
  });
  EXPECT_GT(run.metrics.legs_lost, 0u);
  EXPECT_GT(run.metrics.items_recovered, 0u);
  EXPECT_GT(run.metrics.shard_failovers, 0u);
  EXPECT_GT(run.instants_containing("during PR"), 0u);
  EXPECT_GT(run.instants_containing("peer suspect"), 0u);
  EXPECT_GOLDEN(run,
      "makespan=691.97162115705589 n=10 mean=313.9061815101885 "
      "p95=616.8948853334914 max=661.97162115705589 spans=206 "
      "start=12540.361136965239 end=23498.175526517323 instants=158 "
      "fnv=f9d689f9791216db legs_spawned=76 legs_lost=3 "
      "items_recovered=12 recovery_legs=4 question_restarts=0 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=0 hedge_wins=0 hedge_losses=0 legs_cancelled=0 "
      "straggler_avoidances=0 broker_legs=0 broker_reroutes=0 "
      "broker_unreachable=0 pr_migrations=10 ap_migrations=9");
}

// --- Brokers + selection with a broker crash and an in-group worker crash -

TEST(SupervisionGoldenTest, BrokersWithBrokerAndWorkerCrash) {
  SystemConfig cfg = base_config(9);
  cfg.shard.num_shards = 12;
  cfg.shard.replication = 2;
  cfg.broker.brokers = 3;
  cfg.broker.selectivity = 0.25;
  // Node 3 fronts group 1 ({3,4,5}); node 8 is a worker in group 2.
  cfg.faults.crashes.push_back(FaultEvent{3, 12.0});
  cfg.faults.crashes.push_back(FaultEvent{8, 20.0});
  const GoldenRun run = run_golden(cfg, spaced(12, 5.0));
  EXPECT_GT(run.counter("broker_legs"), 0.0);
  EXPECT_GT(run.counter("broker_reroutes"), 0.0);
  EXPECT_GT(run.instants_containing("during brokered PR"), 0u);
  EXPECT_GT(run.instants_containing("lost contact with broker"), 0u);
  EXPECT_GT(run.instants_containing("peer suspect"), 0u);
  EXPECT_GT(run.metrics.legs_lost, 0u);
  EXPECT_GOLDEN(run,
      "makespan=234.85485874237776 n=12 mean=122.51765067243524 "
      "p95=188.3435691605082 max=192.60754856044545 spans=227 "
      "start=9474.7787274039529 end=16011.282377949261 instants=127 "
      "fnv=d9527e393d5c6350 legs_spawned=131 legs_lost=3 "
      "items_recovered=3 recovery_legs=3 question_restarts=0 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=0 hedge_wins=0 hedge_losses=0 legs_cancelled=0 "
      "straggler_avoidances=0 broker_legs=31 broker_reroutes=9 "
      "broker_unreachable=0 pr_migrations=12 ap_migrations=12");
}

// --- Paragraph-cache hit ----------------------------------------------------

TEST(SupervisionGoldenTest, ParagraphCacheHit) {
  SystemConfig cfg = base_config(4);
  cfg.cache.paragraphs.max_entries = 64;
  const GoldenRun run = run_golden(cfg, [](System& system) {
    Seconds at = 0.0;
    for (std::size_t i = 0; i < 8; ++i) {
      system.submit(plans()[i % 3], at);
      at += 25.0;
    }
  });
  EXPECT_GT(run.metrics.pr_cache_hits, 0u);
  EXPECT_GOLDEN(run,
      "makespan=280.14358729039634 n=8 mean=91.913945052859049 "
      "p95=138.12382146185604 max=142.42087063110358 spans=115 "
      "start=8810.2189149114511 end=11971.463268351094 instants=86 "
      "fnv=ff377b5c2c25f349 legs_spawned=39 legs_lost=0 "
      "items_recovered=0 recovery_legs=0 question_restarts=0 "
      "legs_unreachable=0 questions_degraded=0 "
      "degraded_units_dropped=0 shard_units_unserved=0 "
      "hedges_issued=0 hedge_wins=0 hedge_losses=0 legs_cancelled=0 "
      "straggler_avoidances=0 broker_legs=0 broker_reroutes=0 "
      "broker_unreachable=0 pr_migrations=4 ap_migrations=8");
}

}  // namespace
}  // namespace qadist::cluster
