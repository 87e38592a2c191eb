#pragma once

#include <coroutine>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "simnet/simulation.hpp"

namespace qadist::simnet {

/// Fluid-flow fair-sharing server: the single resource primitive behind all
/// three contended resources in the simulated cluster.
///
/// Customers `co_await server.consume(work)`, where `work` is in resource
/// units (CPU-seconds for a processor, bytes for a disk or network link).
/// While F customers are active, each progresses at
///
///     rate = min(max_rate_per_customer, total_rate / F)
///
/// which models:
///   * a CPU with c cores:  max_rate = 1 cpu-sec/sec, total_rate = c
///     (a lone task can't use two cores; c tasks run at full speed; more
///     than c tasks timeshare — exactly the paper's ">4 simultaneous
///     questions slow down" behaviour),
///   * a disk:              max_rate = total_rate = bandwidth,
///   * a shared Ethernet:   max_rate = total_rate = link bandwidth
///     (fluid-flow TCP fairness across concurrent transfers).
///
/// The implementation is event-driven: whenever the customer set changes,
/// remaining work is advanced at the old rate, the per-customer rate is
/// recomputed, and the server's one pending completion event is retimed
/// (or cancelled when no customer is left). Cost: O(F) per
/// arrival/departure — fine for cluster-scale F.
///
/// Load accounting for the schedulers: the server integrates both the
/// customer count (`load_integral`, the simulated /proc loadavg) and the
/// saturation fraction (`busy_integral`, utilization in [0,1]) over time;
/// LoadMonitor differentiates these per broadcast period.
class FairShareServer {
 public:
  FairShareServer(Simulation& sim, std::string name, double total_rate,
                  double max_rate_per_customer);
  FairShareServer(const FairShareServer&) = delete;
  FairShareServer& operator=(const FairShareServer&) = delete;

  class [[nodiscard]] ConsumeAwaiter {
   public:
    ConsumeAwaiter(FairShareServer& server, double work)
        : server_(server), work_(work) {}
    bool await_ready() const noexcept { return work_ <= 0.0; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

   private:
    FairShareServer& server_;
    double work_;
  };

  /// Awaitable: completes once `work` resource-units have been served.
  ConsumeAwaiter consume(double work) { return ConsumeAwaiter(*this, work); }

  /// Fails the server (a node crash): every in-service customer is resumed
  /// immediately with its remaining work unserved, and later enqueues
  /// complete instantly without serving anything. The server cannot signal
  /// failure through the void-returning awaitable, so the contract is that
  /// every customer checks its node's crash flag right after each co_await
  /// and discards the partial result (see cluster::System's PR/AP legs).
  /// Work lost to a halt is not added to work_served().
  void halt();

  /// Returns a halted server to service (node reboot). Idempotent.
  void restart();

  /// Withdraws an in-service customer before completion (tied-request
  /// cancellation): the flow's remaining work is released immediately —
  /// returning its share of the rate to the other customers — and `h` is
  /// resumed on the next event tick without its work being credited to
  /// work_served(). The contract mirrors halt(): the resumed customer must
  /// check its abandonment flag right after the co_await and discard the
  /// partial result. Returns false when `h` is not currently in service
  /// (already completed, or waiting on a different resource).
  bool cancel(std::coroutine_handle<> h);

  [[nodiscard]] bool halted() const { return halted_; }

  /// Low-level entry used by composite awaitables (e.g. simnet::Link):
  /// registers `h` as a customer with `work` units remaining; `h` is
  /// resumed when the work completes. Equivalent to what awaiting
  /// consume(work) does on suspension.
  void enqueue(double work, std::coroutine_handle<> h);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double total_rate() const { return total_rate_; }
  [[nodiscard]] double max_rate_per_customer() const { return max_rate_; }

  /// Number of customers a full-speed server can host before slowdown.
  [[nodiscard]] double parallelism() const { return total_rate_ / max_rate_; }

  /// Customers currently in service.
  [[nodiscard]] int active() const { return static_cast<int>(flows_.size()); }

  /// Time-integral of the active customer count since construction.
  [[nodiscard]] double load_integral();

  /// Time-integral of min(1, active/parallelism) since construction.
  [[nodiscard]] double busy_integral();

  /// Total work units served to completed customers.
  [[nodiscard]] double work_served() const { return work_served_; }

 private:
  friend class ConsumeAwaiter;

  struct Flow {
    double remaining;
    double total;
    std::coroutine_handle<> handle;
  };

  [[nodiscard]] double per_flow_rate() const;
  void advance();      // settle work/integrals up to sim_.now()
  void reschedule();   // retime, schedule or cancel `completion_`
  void on_completion();

  Simulation& sim_;
  std::string name_;
  double total_rate_;
  double max_rate_;
  std::vector<Flow> flows_;
  Seconds last_advance_ = 0.0;
  double load_integral_ = 0.0;
  double busy_integral_ = 0.0;
  double work_served_ = 0.0;
  EventId completion_;  // the next completion; stale while none is planned
  std::vector<std::coroutine_handle<>> finished_;  // on_completion scratch
  bool halted_ = false;
};

/// Differentiates a server's busy_integral into per-period utilization:
/// each sample(now) returns the busy fraction in [0, 1] over the window
/// since the previous sample (or since construction). One probe per
/// server — the observability layer keeps a CPU and a disk probe per node
/// to build the utilization timeline behind the Fig. 7 traces.
class UtilizationProbe {
 public:
  explicit UtilizationProbe(FairShareServer& server)
      : server_(&server), last_busy_(server.busy_integral()) {}

  double sample(Seconds now) {
    const double busy = server_->busy_integral();
    const double fraction =
        now > last_time_ ? (busy - last_busy_) / (now - last_time_) : 0.0;
    last_busy_ = busy;
    last_time_ = now;
    return fraction;
  }

  [[nodiscard]] const FairShareServer& server() const { return *server_; }

 private:
  FairShareServer* server_;
  double last_busy_;
  Seconds last_time_ = 0.0;
};

}  // namespace qadist::simnet
