#include "workload/driver.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace qadist::workload {

std::string_view to_string(WorkloadShape shape) {
  switch (shape) {
    case WorkloadShape::kOverload:
      return "overload";
    case WorkloadShape::kSerial:
      return "serial";
    case WorkloadShape::kOpenLoop:
      return "open-loop";
  }
  QADIST_UNREACHABLE("bad WorkloadShape");
}

namespace {

/// Result of one spec submission: how many questions went in and when the
/// last one arrives (the stream horizon the fault-schedule check needs).
struct Submitted {
  std::size_t count = 0;
  Seconds last_arrival = 0.0;
};

bool finite_positive(double value) {
  return std::isfinite(value) && value > 0.0;
}

/// High-load protocol (paper Sec. 6.1): gaps uniform in [0, 2g] from
/// Rng(seed), picks from overload_pick_sequence.
Submitted submit_overload_spec(cluster::System& system,
                               std::span<const cluster::QuestionPlan> plans,
                               const cluster::OverloadWorkload& workload) {
  QADIST_CHECK(!plans.empty());
  QADIST_CHECK(finite_positive(workload.overload_factor),
               << "overload workload: overload_factor must be finite and "
                  "positive, got "
               << workload.overload_factor);
  QADIST_CHECK(std::isfinite(workload.repeat_exponent) &&
                   workload.repeat_exponent >= 0.0,
               << "overload workload: repeat_exponent must be finite and "
                  ">= 0, got "
               << workload.repeat_exponent);
  const std::size_t nodes = system.config().nodes;
  const std::size_t count =
      workload.count != 0 ? workload.count : 8 * nodes;
  const double mean_service =
      cluster::mean_service_seconds(plans, workload.reference_disk);
  // An all-zero-work plan set would make max_gap 0 and silently submit
  // every question at t=0 — an infinite overload factor, not the protocol
  // the caller asked for.
  QADIST_CHECK(mean_service > 0.0,
               << "overload workload: plan set has zero mean service time; "
                  "arrival gaps would all collapse to t=0");
  // Mean gap g = service / (overload · N)  =>  gaps uniform in [0, 2g].
  const double max_gap = 2.0 * mean_service /
                         (workload.overload_factor *
                          static_cast<double>(nodes));
  Rng arrivals(workload.seed);
  Seconds at = 0.0;
  Submitted out;
  for (const std::size_t pick :
       cluster::overload_pick_sequence(workload, plans.size(), count)) {
    system.submit(plans[pick], at);
    out.last_arrival = at;
    at += arrivals.uniform(0.0, max_gap);
  }
  out.count = count;
  return out;
}

/// Low-load protocol (paper Sec. 6.2): long fixed gaps, strided picks.
Submitted submit_serial_spec(cluster::System& system,
                             std::span<const cluster::QuestionPlan> plans,
                             const cluster::SerialWorkload& workload) {
  QADIST_CHECK(!plans.empty());
  QADIST_CHECK(workload.count >= 1,
               << "serial workload: count must be >= 1 — a zero-length run "
                  "submits nothing and measures nothing");
  QADIST_CHECK(workload.stride >= 1);
  const double gap =
      10.0 * cluster::mean_service_seconds(plans, workload.reference_disk);
  Seconds at = 0.0;
  Submitted out;
  for (std::size_t i = 0; i < workload.count; ++i) {
    const std::size_t pick =
        (workload.offset + i * workload.stride) % plans.size();
    system.submit(plans[pick], at);
    out.last_arrival = at;
    at += gap;
  }
  out.count = workload.count;
  return out;
}

/// Open-loop arrival process. arrival_times() enforces its own parameter
/// invariants, but with `> 0` comparisons that a NaN fails without saying
/// why — name the rejected value here so mutated specs die legibly.
Submitted submit_open_loop_spec(cluster::System& system,
                                std::span<const cluster::QuestionPlan> plans,
                                const ArrivalProcessConfig& config) {
  QADIST_CHECK(finite_positive(config.rate_qps),
               << "open-loop workload: rate_qps must be finite and "
                  "positive, got "
               << config.rate_qps);
  QADIST_CHECK(config.count >= 1,
               << "open-loop workload: count must be >= 1 — a zero-length "
                  "run submits nothing and measures nothing");
  QADIST_CHECK(std::isfinite(config.repeat_exponent) &&
                   config.repeat_exponent >= 0.0,
               << "open-loop workload: repeat_exponent must be finite and "
                  ">= 0, got "
               << config.repeat_exponent);
  const auto stream = arrival_stream(config, plans.size());
  submit_stream(system, plans, stream);
  Submitted out;
  out.count = stream.size();
  out.last_arrival = stream.empty() ? 0.0 : stream.back().at;
  return out;
}

/// Every scripted fault in the system's config must be able to influence
/// the run: an event starting past the stream horizon plus the drain
/// allowance would fire on an idle, fully drained cluster — always a spec
/// bug (typically a mutated schedule that outlived a shortened workload),
/// never an experiment.
void check_fault_horizon(const cluster::System& system, Seconds last_arrival) {
  const Seconds limit = last_arrival + Driver::drain_allowance(last_arrival);
  const cluster::SystemConfig& config = system.config();
  for (const cluster::FaultEvent& crash : config.faults.crashes) {
    QADIST_CHECK(crash.at <= limit,
                 << "scripted crash of node " << crash.node << " at t="
                 << crash.at << "s starts after the stream horizon ("
                 << last_arrival << "s) plus drain allowance — it can never "
                 << "affect this run");
  }
  for (const simnet::GrayFaultEvent& event : config.gray.events) {
    QADIST_CHECK(event.at <= limit,
                 << "gray window on node " << event.node << " at t="
                 << event.at << "s starts after the stream horizon ("
                 << last_arrival << "s) plus drain allowance — it can never "
                 << "affect this run");
  }
  for (const simnet::PartitionWindow& window : config.net.faults.partitions) {
    QADIST_CHECK(window.from <= limit,
                 << "partition window at t=" << window.from
                 << "s starts after the stream horizon (" << last_arrival
                 << "s) plus drain allowance — it can never affect this run");
  }
}

}  // namespace

std::size_t Driver::submit(const RunSpec& spec) {
  Submitted out;
  switch (spec.shape) {
    case WorkloadShape::kOverload:
      out = submit_overload_spec(system_, plans_, spec.overload);
      break;
    case WorkloadShape::kSerial:
      out = submit_serial_spec(system_, plans_, spec.serial);
      break;
    case WorkloadShape::kOpenLoop:
      out = submit_open_loop_spec(system_, plans_, spec.open_loop);
      break;
  }
  check_fault_horizon(system_, out.last_arrival);
  return out.count;
}

RunResult Driver::run(const RunSpec& spec) {
  RunResult out;
  out.submitted = submit(spec);
  out.metrics = system_.run();
  return out;
}

}  // namespace qadist::workload
