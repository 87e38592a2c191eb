#include "simnet/fair_share.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simnet/process.hpp"

namespace qadist::simnet {
namespace {

SimProcess consume_at(Simulation& sim, FairShareServer& server, Seconds start,
                      double work, std::vector<double>& finish_times,
                      std::size_t slot) {
  co_await Delay(sim, start);
  co_await server.consume(work);
  finish_times[slot] = sim.now();
}

TEST(FairShareTest, SingleCustomerRunsAtMaxRate) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", /*total_rate=*/2.0, /*max_rate=*/1.0);
  std::vector<double> t(1, -1);
  consume_at(sim, cpu, 0.0, 3.0, t, 0);
  sim.run();
  // One task can't exceed one core: 3 cpu-seconds take 3 seconds.
  EXPECT_NEAR(t[0], 3.0, 1e-9);
}

TEST(FairShareTest, TwoCustomersUseBothCores) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 2.0, 1.0);
  std::vector<double> t(2, -1);
  consume_at(sim, cpu, 0.0, 3.0, t, 0);
  consume_at(sim, cpu, 0.0, 3.0, t, 1);
  sim.run();
  EXPECT_NEAR(t[0], 3.0, 1e-9);
  EXPECT_NEAR(t[1], 3.0, 1e-9);
}

TEST(FairShareTest, OverloadTimeshares) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  std::vector<double> t(2, -1);
  consume_at(sim, cpu, 0.0, 1.0, t, 0);
  consume_at(sim, cpu, 0.0, 1.0, t, 1);
  sim.run();
  // Two 1-second jobs on one core in fair share both finish at t=2.
  EXPECT_NEAR(t[0], 2.0, 1e-9);
  EXPECT_NEAR(t[1], 2.0, 1e-9);
}

TEST(FairShareTest, LateArrivalSlowsEarlierFlow) {
  Simulation sim;
  FairShareServer link(sim, "net", 100.0, 100.0);  // bytes/sec
  std::vector<double> t(2, -1);
  consume_at(sim, link, 0.0, 100.0, t, 0);  // alone it would finish at 1.0
  consume_at(sim, link, 0.5, 100.0, t, 1);
  sim.run();
  // Flow 0: 50 bytes in [0,0.5] alone, then shares 50/50. Remaining 50
  // bytes at 50 B/s -> finishes at 1.5.
  EXPECT_NEAR(t[0], 1.5, 1e-9);
  // Flow 1: 50 B/s in [0.5,1.5] = 50 bytes, then alone: 50 bytes at 100 B/s
  // -> finishes at 2.0.
  EXPECT_NEAR(t[1], 2.0, 1e-9);
}

TEST(FairShareTest, DepartureSpeedsUpRemainingFlow) {
  Simulation sim;
  FairShareServer link(sim, "net", 100.0, 100.0);
  std::vector<double> t(2, -1);
  consume_at(sim, link, 0.0, 50.0, t, 0);
  consume_at(sim, link, 0.0, 150.0, t, 1);
  sim.run();
  // Both share until flow 0 completes its 50 bytes at t=1.0; flow 1 then
  // has 100 bytes left at full rate -> t=2.0.
  EXPECT_NEAR(t[0], 1.0, 1e-9);
  EXPECT_NEAR(t[1], 2.0, 1e-9);
}

TEST(FairShareTest, ZeroWorkCompletesImmediately) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  std::vector<double> t(1, -1);
  consume_at(sim, cpu, 0.0, 0.0, t, 0);
  sim.run();
  EXPECT_NEAR(t[0], 0.0, 1e-12);
}

TEST(FairShareTest, LoadIntegralTracksCustomerSeconds) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  std::vector<double> t(2, -1);
  consume_at(sim, cpu, 0.0, 1.0, t, 0);
  consume_at(sim, cpu, 0.0, 1.0, t, 1);
  sim.run();
  // 2 customers for 2 seconds = 4 customer-seconds.
  EXPECT_NEAR(cpu.load_integral(), 4.0, 1e-9);
  // Saturation: busy the whole 2 seconds.
  EXPECT_NEAR(cpu.busy_integral(), 2.0, 1e-9);
  EXPECT_NEAR(cpu.work_served(), 2.0, 1e-9);
}

TEST(FairShareTest, BusyIntegralBelowOneWhenUnderParallelism) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 4.0, 1.0);  // 4 cores
  std::vector<double> t(1, -1);
  consume_at(sim, cpu, 0.0, 2.0, t, 0);
  sim.run();
  // One task on 4 cores: utilization 1/4 for 2 seconds.
  EXPECT_NEAR(cpu.busy_integral(), 0.5, 1e-9);
  EXPECT_NEAR(cpu.load_integral(), 2.0, 1e-9);
}

TEST(FairShareTest, ManyFlowsAllComplete) {
  Simulation sim;
  FairShareServer disk(sim, "disk", 10.0, 10.0);
  const int n = 50;
  std::vector<double> t(n, -1);
  for (int i = 0; i < n; ++i) {
    consume_at(sim, disk, 0.1 * i, 1.0 + 0.01 * i, t, static_cast<std::size_t>(i));
  }
  sim.run();
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(t[static_cast<std::size_t>(i)], 0.0) << "flow " << i << " never finished";
  }
  EXPECT_EQ(disk.active(), 0);
}

TEST(UtilizationProbeTest, SamplesBusyFractionPerWindow) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  UtilizationProbe probe(cpu);
  std::vector<double> t(1, -1);
  // Busy for [0, 2], idle afterwards.
  consume_at(sim, cpu, 0.0, 2.0, t, 0);
  sim.run();
  // Whole busy interval in one window.
  EXPECT_NEAR(probe.sample(2.0), 1.0, 1e-9);
  // Next window [2, 4] is pure idle.
  EXPECT_NEAR(probe.sample(4.0), 0.0, 1e-9);
  // Zero-length window reports 0 instead of dividing by zero.
  EXPECT_DOUBLE_EQ(probe.sample(4.0), 0.0);
}

TEST(UtilizationProbeTest, PartialWindowIsFractional) {
  Simulation sim;
  FairShareServer cpu(sim, "cpu", 1.0, 1.0);
  UtilizationProbe probe(cpu);
  std::vector<double> t(1, -1);
  consume_at(sim, cpu, 0.0, 1.0, t, 0);  // busy [0, 1] only
  sim.run();
  // Window [0, 4] saw 1 busy second -> 25% utilization.
  EXPECT_NEAR(probe.sample(4.0), 0.25, 1e-9);
}

// Property: total work served equals total work submitted, for any mix.
class FairShareConservation : public ::testing::TestWithParam<int> {};

TEST_P(FairShareConservation, WorkIsConserved) {
  const int n = GetParam();
  Simulation sim;
  FairShareServer server(sim, "srv", 3.0, 1.5);
  std::vector<double> t(static_cast<std::size_t>(n), -1);
  double submitted = 0.0;
  for (int i = 0; i < n; ++i) {
    const double work = 0.5 + 0.37 * i;
    submitted += work;
    consume_at(sim, server, 0.2 * (i % 7), work, t, static_cast<std::size_t>(i));
  }
  sim.run();
  EXPECT_NEAR(server.work_served(), submitted, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FairShareConservation,
                         ::testing::Values(1, 2, 5, 13, 40));

// The generation-counter server that FairShareServer replaced: every
// change schedules a fresh completion event, and a counter turns the
// superseded ones into no-ops when they fire. Same arithmetic, statement
// for statement; kept as the reference for the random test below.
class GenerationFairShareServer {
 public:
  GenerationFairShareServer(Simulation& sim, const std::string& /*name*/,
                            double total_rate, double max_rate)
      : sim_(sim), total_rate_(total_rate), max_rate_(max_rate) {}

  void enqueue(double work, std::coroutine_handle<> h) {
    if (work <= 0.0 || halted_) {
      sim_.schedule(0.0, [h] { h.resume(); });
      return;
    }
    advance();
    flows_.push_back(Flow{work, work, h});
    reschedule();
  }
  void halt() {
    if (halted_) return;
    advance();
    halted_ = true;
    ++generation_;
    std::vector<Flow> orphans = std::move(flows_);
    flows_.clear();
    for (const auto& flow : orphans) {
      sim_.schedule(0.0, [h = flow.handle] { h.resume(); });
    }
  }
  void restart() {
    if (!halted_) return;
    advance();
    halted_ = false;
  }
  bool cancel(std::coroutine_handle<> h) {
    advance();
    const auto it = std::find_if(flows_.begin(), flows_.end(),
                                 [h](const Flow& f) { return f.handle == h; });
    if (it == flows_.end()) return false;
    flows_.erase(it);
    reschedule();
    sim_.schedule(0.0, [h] { h.resume(); });
    return true;
  }
  double load_integral() {
    advance();
    reschedule();
    return load_integral_;
  }
  double busy_integral() {
    advance();
    reschedule();
    return busy_integral_;
  }
  [[nodiscard]] double work_served() const { return work_served_; }
  [[nodiscard]] int active() const { return static_cast<int>(flows_.size()); }

 private:
  struct Flow {
    double remaining;
    double total;
    std::coroutine_handle<> handle;
  };
  double per_flow_rate() const {
    if (flows_.empty()) return 0.0;
    return std::min(max_rate_,
                    total_rate_ / static_cast<double>(flows_.size()));
  }
  void advance() {
    const Seconds now = sim_.now();
    const Seconds dt = now - last_update_;
    if (dt > 0.0 && !flows_.empty()) {
      const double rate = per_flow_rate();
      for (auto& flow : flows_) flow.remaining -= rate * dt;
      const auto f = static_cast<double>(flows_.size());
      load_integral_ += f * dt;
      busy_integral_ += std::min(1.0, f / (total_rate_ / max_rate_)) * dt;
    }
    last_update_ = now;
  }
  void reschedule() {
    ++generation_;
    if (flows_.empty()) return;
    const double rate = per_flow_rate();
    double min_remaining = std::numeric_limits<double>::infinity();
    for (const auto& flow : flows_)
      min_remaining = std::min(min_remaining, flow.remaining);
    const Seconds eta = std::max(0.0, min_remaining) / rate;
    const std::uint64_t gen = generation_;
    sim_.schedule(eta, [this, gen] { on_completion(gen); });
  }
  void on_completion(std::uint64_t generation) {
    if (generation != generation_) return;  // superseded by a later change
    advance();
    const double rate = per_flow_rate();
    std::vector<std::coroutine_handle<>> finished;
    for (auto it = flows_.begin(); it != flows_.end();) {
      const double tolerance =
          std::max(1e-9 * std::max(1.0, it->total), 1e-7 * rate);
      if (it->remaining <= tolerance) {
        work_served_ += it->total;
        finished.push_back(it->handle);
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    ASSERT_FALSE(finished.empty());
    reschedule();
    for (auto h : finished) sim_.schedule(0.0, [h] { h.resume(); });
  }

  Simulation& sim_;
  double total_rate_;
  double max_rate_;
  std::vector<Flow> flows_;
  Seconds last_update_ = 0.0;
  double load_integral_ = 0.0;
  double busy_integral_ = 0.0;
  double work_served_ = 0.0;
  std::uint64_t generation_ = 0;
  bool halted_ = false;
};

// One step of a random server workload, applied at simulated time `at`.
struct ServerOp {
  enum Kind { kEnqueue, kLoad, kBusy, kCancel, kHalt, kRestart } kind;
  Seconds at;
  double work;         // kEnqueue
  std::size_t target;  // kCancel: a customer index
};

// Everything a run makes observable, compared bit for bit.
struct ServerTrace {
  std::vector<double> finish;        // per customer, -1 until resumed
  std::vector<std::size_t> order;    // customers in resumption order
  std::vector<double> readings;      // load/busy integrals as returned
  std::vector<bool> cancels;         // cancel() answers
  std::vector<std::coroutine_handle<>> waiting;  // null once resumed
  double work_served = 0.0;
  std::uint64_t events = 0;
};

template <typename Server>
struct EnqueueAwaiter {
  Server& server;
  double work;
  std::coroutine_handle<>& out;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    out = h;
    server.enqueue(work, h);
  }
  void await_resume() const noexcept {}
};

template <typename Server>
SimProcess server_customer(Simulation& sim, Server& server, double work,
                           std::size_t k, ServerTrace& trace) {
  co_await EnqueueAwaiter<Server>{server, work, trace.waiting[k]};
  trace.waiting[k] = nullptr;
  trace.finish[k] = sim.now();
  trace.order.push_back(k);
}

template <typename Server>
ServerTrace run_server_script(const std::vector<ServerOp>& script,
                              std::size_t customers) {
  Simulation sim;
  Server server(sim, "srv", 3.0, 1.0);
  ServerTrace trace;
  trace.finish.assign(customers, -1.0);
  trace.waiting.assign(customers, nullptr);
  std::size_t next_customer = 0;
  for (const ServerOp& op : script) {
    switch (op.kind) {
      case ServerOp::kEnqueue: {
        const std::size_t k = next_customer++;
        sim.schedule_at(op.at, [&sim, &server, &trace, k, work = op.work] {
          server_customer(sim, server, work, k, trace);
        });
        break;
      }
      case ServerOp::kLoad:
        sim.schedule_at(op.at, [&] {
          trace.readings.push_back(server.load_integral());
        });
        break;
      case ServerOp::kBusy:
        sim.schedule_at(op.at, [&] {
          trace.readings.push_back(server.busy_integral());
        });
        break;
      case ServerOp::kCancel:
        // Only customers still suspended: a finished one's frame is gone.
        sim.schedule_at(op.at, [&, k = op.target] {
          if (trace.waiting[k]) {
            trace.cancels.push_back(server.cancel(trace.waiting[k]));
          }
        });
        break;
      case ServerOp::kHalt:
        sim.schedule_at(op.at, [&] { server.halt(); });
        break;
      case ServerOp::kRestart:
        sim.schedule_at(op.at, [&] { server.restart(); });
        break;
    }
  }
  sim.run();
  trace.work_served = server.work_served();
  trace.events = sim.executed_events();
  EXPECT_EQ(server.active(), 0);
  return trace;
}

TEST(FairShareTest, MatchesTheGenerationCounterServerBitForBit) {
  std::uint64_t events = 0;
  std::uint64_t ref_events = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<ServerOp> script;
    std::size_t customers = 0;
    for (int i = 0; i < 400; ++i) {
      // Half the instants on a coarse grid, so ops coincide with each
      // other and with completions that land on it.
      const Seconds at = rng.below(2) == 0
                             ? 0.125 * static_cast<double>(rng.below(160))
                             : 20.0 * rng.uniform01();
      const auto roll = rng.below(100);
      ServerOp op{ServerOp::kEnqueue, at, 0.0, 0};
      if (roll < 45) {
        op.work = rng.below(4) == 0 ? 0.25 * static_cast<double>(rng.below(4))
                                    : 3.0 * rng.uniform01();
        ++customers;
      } else if (roll < 60) {
        op.kind = ServerOp::kLoad;
      } else if (roll < 70) {
        op.kind = ServerOp::kBusy;
      } else if (roll < 88) {
        if (customers == 0) continue;
        op.kind = ServerOp::kCancel;
        op.target = rng.below(customers);
      } else if (roll < 94) {
        op.kind = ServerOp::kHalt;
      } else {
        op.kind = ServerOp::kRestart;
      }
      script.push_back(op);
    }
    const ServerTrace got =
        run_server_script<FairShareServer>(script, customers);
    const ServerTrace want =
        run_server_script<GenerationFairShareServer>(script, customers);
    ASSERT_EQ(got.finish, want.finish) << "seed " << seed;
    ASSERT_EQ(got.order, want.order) << "seed " << seed;
    ASSERT_EQ(got.readings, want.readings) << "seed " << seed;
    ASSERT_EQ(got.cancels, want.cancels) << "seed " << seed;
    ASSERT_EQ(got.work_served, want.work_served) << "seed " << seed;
    EXPECT_LE(got.events, want.events);
    events += got.events;
    ref_events += want.events;
  }
  // The reference fires superseded completions as no-ops; the server
  // under test withdraws them.
  EXPECT_LT(events, ref_events);
}

}  // namespace
}  // namespace qadist::simnet
