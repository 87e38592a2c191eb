// Open-loop capacity study (extension beyond the paper): the paper's
// experiments are closed-loop — 8N questions paced against the system's own
// service rate — so the cluster can never be pushed past saturation. This
// bench drives open-loop arrival processes instead and answers the two
// questions that regime raises:
//
//   1. What does admission control buy under sustained overload? A 2x
//      Poisson stream on 12 nodes, uncontrolled vs each admission policy.
//      The acceptance bar is that every policy keeps the p95 response time
//      of ADMITTED questions below the uncontrolled p95 (the backlog no
//      longer leaks into every answer).
//   2. Can the analytical model, inverted, size a cluster? The
//      CapacityPlanner turns (target qps, arrival shape, latency SLO) into
//      a minimum node count; the sweep below compares that prediction to
//      the simulated minimum across arrival rate x process shape. The
//      acceptance bar is |predicted - simulated| <= 1 node in every cell.
//
// Emits results/BENCH_capacity_planning.json.

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "model/capacity.hpp"
#include "support/bench_cli.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

namespace {

using namespace qadist;
using workload::ArrivalProcessConfig;
using workload::ArrivalShape;

cluster::SystemConfig base_config(std::size_t nodes, std::uint64_t seed,
                                  const bench::BenchWorld& world) {
  cluster::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.dispatch.policy = cluster::Policy::kDqa;
  cfg.partition.ap_chunk = bench::scaled_chunk(world);
  return cfg;
}

/// The service-time figures the planner needs, measured the same way the
/// validation runs measure response time: the identical arrival stream at
/// a near-zero rate on one node, so nothing ever queues.
struct ServiceCalibration {
  double mean = 0.0;
  double cv2 = 0.0;
  double p95 = 0.0;
};

ServiceCalibration calibrate_service(const bench::BenchWorld& world,
                                     std::uint64_t seed, std::size_t count) {
  ArrivalProcessConfig idle;
  idle.shape = ArrivalShape::kPoisson;
  idle.rate_qps = 1e-4;  // hours between questions: unloaded responses
  idle.count = count;
  idle.seed = seed;
  auto m = bench::run_open_loop(world, base_config(1, seed, world), idle);
  ServiceCalibration cal;
  cal.mean = m.latencies.mean();
  const double sd = m.latencies.stddev();
  cal.cv2 = (sd * sd) / (cal.mean * cal.mean);
  cal.p95 = m.latencies.quantile(0.95);
  return cal;
}

}  // namespace

int main(int argc, char** argv) {
  [[maybe_unused]] const auto cli = qadist::bench::BenchCli::parse(argc, argv);
  const auto& world = bench::bench_world();
  const std::uint64_t seed = 2000;

  bench::BenchReport report("capacity_planning");
  report.config("seed", static_cast<std::int64_t>(seed));

  // ---- 1. Admission control under sustained 2x overload ----------------
  const std::size_t overload_nodes = 12;
  const double service = world.mean_service_seconds();
  {
    ArrivalProcessConfig stream;
    stream.shape = ArrivalShape::kPoisson;
    stream.rate_qps = 2.0 * static_cast<double>(overload_nodes) / service;
    stream.count = 12 * overload_nodes;
    stream.seed = seed;

    struct Row {
      std::string name;
      cluster::AdmissionConfig admission;
    };
    std::vector<Row> rows{{"uncontrolled", {}}};
    for (const auto policy :
         {cluster::AdmissionPolicy::kReject,
          cluster::AdmissionPolicy::kShedOldest,
          cluster::AdmissionPolicy::kDegrade}) {
      cluster::AdmissionConfig admission;
      admission.max_concurrent = overload_nodes;
      admission.queue_capacity = overload_nodes;
      admission.policy = policy;
      rows.push_back({std::string(cluster::to_string(policy)), admission});
    }

    TextTable table({"config", "answered", "shed %", "p95 (s)",
                     "max wait (s)", "q/min"});
    double uncontrolled_p95 = 0.0;
    bool all_bounded = true;
    for (const Row& row : rows) {
      auto cfg = base_config(overload_nodes, seed, world);
      cfg.admission = row.admission;
      const auto m = bench::run_open_loop(world, cfg, stream);
      const double p95 = m.latencies.quantile(0.95);
      if (row.name == "uncontrolled") uncontrolled_p95 = p95;
      else all_bounded = all_bounded && p95 < uncontrolled_p95;
      table.add_row({row.name, std::to_string(m.completed),
                     cell(100.0 * m.shed_fraction(), 1),
                     cell(p95, 1), cell(m.admission_wait.max(), 1),
                     cell(m.throughput_qpm(), 2)});
      report.metric("admitted_p95_seconds", {{"config", row.name}}, p95);
      report.metric("shed_fraction", {{"config", row.name}},
                    m.shed_fraction());
      report.metric("throughput_qpm", {{"config", row.name}},
                    m.throughput_qpm());
    }
    std::printf(
        "Admission control — 2x open-loop Poisson overload on %zu nodes "
        "(%zu questions, max_concurrent = queue = %zu)\n%s",
        overload_nodes, stream.count, overload_nodes,
        table.render().c_str());
    std::printf(
        "Acceptance bar: every policy's admitted p95 below the "
        "uncontrolled p95 — %s\n\n", all_bounded ? "MET" : "NOT MET");
    report.metric("admission_p95_bounded", {},
                  all_bounded ? 1.0 : 0.0);
  }

  // ---- 2. Planner prediction vs simulated minimum ----------------------
  const std::size_t cal_count = 64;
  const auto cal = calibrate_service(world, seed, cal_count);
  const double slo = 2.5 * cal.p95;
  const std::size_t max_nodes = 12;
  report.config("calibrated_mean_service_seconds", cal.mean);
  report.config("calibrated_service_p95_seconds", cal.p95);
  report.config("slo_p95_seconds", slo);

  struct Shape {
    std::string name;
    ArrivalProcessConfig config;  // rate_qps/count/seed filled per cell
  };
  std::vector<Shape> shapes;
  {
    ArrivalProcessConfig poisson;
    poisson.shape = ArrivalShape::kPoisson;
    shapes.push_back({"poisson", poisson});
    ArrivalProcessConfig mmpp;
    mmpp.shape = ArrivalShape::kMmpp;
    mmpp.burst_rate_multiplier = 3.0;
    mmpp.mean_burst_seconds = 8.0 * cal.mean;
    mmpp.mean_calm_seconds = 24.0 * cal.mean;
    shapes.push_back({"mmpp", mmpp});
    ArrivalProcessConfig diurnal;
    diurnal.shape = ArrivalShape::kDiurnal;
    diurnal.diurnal_amplitude = 0.6;
    diurnal.diurnal_period = 40.0 * cal.mean;
    shapes.push_back({"diurnal", diurnal});
  }
  const std::vector<double> erlangs{1.2, 2.4};

  TextTable sweep({"shape", "erlangs", "planned N", "simulated N", "delta",
                   "sim p95 @ N (s)"});
  bool all_within_one = true;
  for (const Shape& shape : shapes) {
    for (const double a : erlangs) {
      ArrivalProcessConfig arrivals = shape.config;
      arrivals.rate_qps = a / cal.mean;
      arrivals.count = 96;
      arrivals.seed = seed;

      model::CapacityPlanParams params;
      params.target_qps = arrivals.rate_qps;
      params.mean_service_seconds = cal.mean;
      params.service_cv2 = cal.cv2;
      params.service_p95_seconds = cal.p95;
      params.slo_p95_seconds = slo;
      params.peak_to_mean = workload::peak_to_mean(arrivals);
      params.interarrival_cv2 = workload::interarrival_cv2(arrivals);
      params.max_nodes = max_nodes;
      params.overhead.T = cal.mean;
      const model::CapacityPlanner planner(params);
      const auto planned = planner.min_nodes();

      // The ground truth the planner is judged against: the smallest
      // cluster whose simulated p95 under this exact stream meets the SLO.
      std::optional<std::size_t> simulated;
      double sim_p95_at_min = 0.0;
      for (std::size_t n = 1; n <= max_nodes; ++n) {
        const auto m =
            bench::run_open_loop(world, base_config(n, seed, world), arrivals);
        const double p95 = m.latencies.quantile(0.95);
        if (p95 <= slo) {
          simulated = n;
          sim_p95_at_min = p95;
          break;
        }
      }

      const bool both = planned.has_value() && simulated.has_value();
      const double delta =
          both ? static_cast<double>(*planned) - static_cast<double>(*simulated)
               : 0.0;
      all_within_one = all_within_one && both && std::abs(delta) <= 1.0;
      sweep.add_row({shape.name, cell(a, 1),
                     planned ? std::to_string(*planned) : "none",
                     simulated ? std::to_string(*simulated) : "none",
                     both ? cell(delta, 0) : "-",
                     simulated ? cell(sim_p95_at_min, 1) : "-"});
      report.metric(
          "planned_min_nodes",
          {{"shape", shape.name}, {"erlangs", format_double(a, 1)}},
          planned ? static_cast<double>(*planned) : -1.0);
      report.metric(
          "simulated_min_nodes",
          {{"shape", shape.name}, {"erlangs", format_double(a, 1)}},
          simulated ? static_cast<double>(*simulated) : -1.0);
    }
  }
  std::printf(
      "Capacity planner — predicted vs simulated minimum nodes "
      "(SLO: p95 <= %.0f s, service %.0f s mean / %.0f s p95)\n%s",
      slo, cal.mean, cal.p95, sweep.render().c_str());
  std::printf("Acceptance bar: |planned - simulated| <= 1 node — %s\n",
              all_within_one ? "MET" : "NOT MET");
  report.metric("planner_within_one_node", {}, all_within_one ? 1.0 : 0.0);

  report.write();
  return 0;
}
