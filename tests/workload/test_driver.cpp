// workload::Driver — the unified run/driver API. Driving an open-loop
// spec must match submitting its arrival stream directly (same pick
// sequence, same arrival instants, same metrics), and every spec is
// validated before anything is submitted.

#include "workload/driver.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "cluster/workload.hpp"
#include "support/test_world.hpp"

namespace qadist::workload {
namespace {

using qadist::testing::test_world;

const std::vector<cluster::QuestionPlan>& plans() {
  static const std::vector<cluster::QuestionPlan> p = [] {
    const auto& world = test_world();
    const auto cost = cluster::CostModel::calibrate(
        *world.engine,
        std::span<const corpus::Question>(world.questions).subspan(0, 8));
    std::vector<cluster::QuestionPlan> out;
    for (std::size_t i = 0; i < 10; ++i) {
      out.push_back(
          cluster::make_plan(*world.engine, cost, world.questions[i]));
    }
    return out;
  }();
  return p;
}

cluster::SystemConfig config() {
  cluster::SystemConfig cfg;
  cfg.nodes = 4;
  cfg.seed = 11;
  cfg.partition.ap_chunk = 8;
  return cfg;
}

void expect_identical(const cluster::Metrics& a, const cluster::Metrics& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.latencies.mean(), b.latencies.mean());
  EXPECT_DOUBLE_EQ(a.latencies.quantile(0.95), b.latencies.quantile(0.95));
  EXPECT_EQ(a.migrations_qa, b.migrations_qa);
  EXPECT_EQ(a.migrations_pr, b.migrations_pr);
  EXPECT_EQ(a.migrations_ap, b.migrations_ap);
}

TEST(DriverTest, OpenLoopShapeMatchesArrivalStreamSubmit) {
  ArrivalProcessConfig arrivals;
  arrivals.shape = ArrivalShape::kPoisson;
  arrivals.rate_qps = 0.05;
  arrivals.count = 12;
  arrivals.seed = 21;

  simnet::Simulation sim_legacy;
  cluster::System legacy(sim_legacy, config());
  const auto stream = arrival_stream(arrivals, plans().size());
  submit_stream(legacy, plans(), stream);
  const cluster::Metrics via_legacy = legacy.run();

  simnet::Simulation sim_driver;
  cluster::System driven(sim_driver, config());
  RunSpec spec;
  spec.shape = WorkloadShape::kOpenLoop;
  spec.open_loop = arrivals;
  const RunResult result = Driver(driven, plans()).run(spec);

  EXPECT_EQ(result.submitted, stream.size());
  expect_identical(result.metrics, via_legacy);
}

TEST(DriverTest, SubmitAloneLeavesRunToTheCaller) {
  simnet::Simulation sim;
  cluster::System system(sim, config());
  RunSpec spec;
  spec.shape = WorkloadShape::kOverload;
  spec.overload.count = 8;
  const std::size_t submitted = Driver(system, plans()).submit(spec);
  EXPECT_EQ(submitted, 8u);
  const cluster::Metrics m = system.run();
  EXPECT_EQ(m.completed, 8u);
}

TEST(DriverTest, ShapeNamesRoundTrip) {
  EXPECT_EQ(to_string(WorkloadShape::kOverload), "overload");
  EXPECT_EQ(to_string(WorkloadShape::kSerial), "serial");
  EXPECT_EQ(to_string(WorkloadShape::kOpenLoop), "open-loop");
}

// ---- RunSpec validation: malformed workloads must fail loudly at submit
// time, not produce an empty or meaningless run.

TEST(DriverDeathTest, RejectsZeroLengthSerialRun) {
  simnet::Simulation sim;
  cluster::System system(sim, config());
  RunSpec spec;
  spec.shape = WorkloadShape::kSerial;
  spec.serial.count = 0;
  EXPECT_DEATH(Driver(system, plans()).submit(spec), "count must be >= 1");
}

TEST(DriverDeathTest, RejectsZeroLengthOpenLoopRun) {
  simnet::Simulation sim;
  cluster::System system(sim, config());
  RunSpec spec;
  spec.shape = WorkloadShape::kOpenLoop;
  spec.open_loop.rate_qps = 1.0;
  spec.open_loop.count = 0;
  EXPECT_DEATH(Driver(system, plans()).submit(spec), "count must be >= 1");
}

TEST(DriverDeathTest, RejectsNonFiniteOpenLoopRate) {
  simnet::Simulation sim;
  cluster::System system(sim, config());
  RunSpec spec;
  spec.shape = WorkloadShape::kOpenLoop;
  spec.open_loop.count = 4;
  spec.open_loop.rate_qps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(Driver(system, plans()).submit(spec),
               "rate_qps must be finite and positive");
}

TEST(DriverDeathTest, RejectsNegativeOpenLoopRate) {
  simnet::Simulation sim;
  cluster::System system(sim, config());
  RunSpec spec;
  spec.shape = WorkloadShape::kOpenLoop;
  spec.open_loop.count = 4;
  spec.open_loop.rate_qps = -0.5;
  EXPECT_DEATH(Driver(system, plans()).submit(spec),
               "rate_qps must be finite and positive");
}

TEST(DriverDeathTest, RejectsNonFiniteOverloadFactor) {
  simnet::Simulation sim;
  cluster::System system(sim, config());
  RunSpec spec;
  spec.shape = WorkloadShape::kOverload;
  spec.overload.count = 4;
  spec.overload.overload_factor = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(Driver(system, plans()).submit(spec),
               "overload_factor must be finite and positive");
}

TEST(DriverDeathTest, RejectsNegativeRepeatExponent) {
  simnet::Simulation sim;
  cluster::System system(sim, config());
  RunSpec spec;
  spec.shape = WorkloadShape::kOpenLoop;
  spec.open_loop.count = 4;
  spec.open_loop.rate_qps = 1.0;
  spec.open_loop.repeat_exponent = -1.0;
  EXPECT_DEATH(Driver(system, plans()).submit(spec),
               "repeat_exponent must be finite");
}

// ---- Fault-horizon validation: a scripted fault that can only fire after
// the stream (plus drain allowance) has ended silently never happens —
// the Driver treats it as a configuration error.

TEST(DriverDeathTest, RejectsCrashScheduledPastTheRunHorizon) {
  cluster::SystemConfig cfg = config();
  cfg.faults.crashes.push_back({1, 1.0e7, -1.0});
  simnet::Simulation sim;
  cluster::System system(sim, cfg);
  RunSpec spec;
  spec.shape = WorkloadShape::kOpenLoop;
  spec.open_loop.count = 4;
  spec.open_loop.rate_qps = 1.0;
  EXPECT_DEATH(Driver(system, plans()).submit(spec),
               "starts after the stream horizon");
}

TEST(DriverDeathTest, RejectsGrayWindowScheduledPastTheRunHorizon) {
  cluster::SystemConfig cfg = config();
  simnet::GrayFaultEvent event;
  event.node = 0;
  event.at = 1.0e7;
  event.cpu_factor = 4.0;
  cfg.gray.events.push_back(event);
  simnet::Simulation sim;
  cluster::System system(sim, cfg);
  RunSpec spec;
  spec.shape = WorkloadShape::kOpenLoop;
  spec.open_loop.count = 4;
  spec.open_loop.rate_qps = 1.0;
  EXPECT_DEATH(Driver(system, plans()).submit(spec),
               "starts after the stream horizon");
}

TEST(DriverDeathTest, RejectsPartitionScheduledPastTheRunHorizon) {
  cluster::SystemConfig cfg = config();
  simnet::PartitionWindow window;
  window.from = 1.0e7;
  window.until = 1.0e7 + 60.0;
  window.isolated = {0};
  cfg.net.faults.partitions.push_back(window);
  simnet::Simulation sim;
  cluster::System system(sim, cfg);
  RunSpec spec;
  spec.shape = WorkloadShape::kOpenLoop;
  spec.open_loop.count = 4;
  spec.open_loop.rate_qps = 1.0;
  EXPECT_DEATH(Driver(system, plans()).submit(spec),
               "starts after the stream horizon");
}

TEST(DriverTest, AcceptsFaultsInsideTheDrainAllowance) {
  // A crash shortly after the last arrival is still meaningful: questions
  // drain for a while. drain_allowance() sets the grace window.
  cluster::SystemConfig cfg = config();
  cfg.faults.crashes.push_back({1, 30.0, -1.0});
  simnet::Simulation sim;
  cluster::System system(sim, cfg);
  RunSpec spec;
  spec.shape = WorkloadShape::kOpenLoop;
  spec.open_loop.count = 4;
  spec.open_loop.rate_qps = 1.0;
  EXPECT_GT(Driver(system, plans()).submit(spec), 0u);
}

TEST(DriverTest, DrainAllowanceScalesWithTheStream) {
  EXPECT_DOUBLE_EQ(Driver::drain_allowance(10.0), 60.0);
  EXPECT_DOUBLE_EQ(Driver::drain_allowance(600.0), 600.0);
}

}  // namespace
}  // namespace qadist::workload
