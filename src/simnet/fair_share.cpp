#include "simnet/fair_share.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace qadist::simnet {

namespace {
// Tolerance for declaring a flow complete after floating-point advancement.
// Each advance() subtracts rate·dt from every flow, so the accumulated
// error scales with the *service magnitudes*, not with the flow's own work
// (a 64-byte packet sharing a 12 MB/s link drifts by link-scale ulps).
// A flow is done when less than 0.1 µs of service remains at the current
// per-flow rate — far below anything an experiment can observe, far above
// any realistic drift.
double done_tolerance(double total_work, double per_flow_rate) {
  return std::max(1e-9 * std::max(1.0, total_work), 1e-7 * per_flow_rate);
}
}  // namespace

FairShareServer::FairShareServer(Simulation& sim, std::string name,
                                 double total_rate,
                                 double max_rate_per_customer)
    : sim_(sim),
      name_(std::move(name)),
      total_rate_(total_rate),
      max_rate_(max_rate_per_customer),
      last_advance_(sim.now()) {
  QADIST_CHECK(total_rate_ > 0.0, << name_ << ": total_rate must be positive");
  QADIST_CHECK(max_rate_ > 0.0, << name_ << ": max_rate must be positive");
}

double FairShareServer::per_flow_rate() const {
  if (flows_.empty()) return 0.0;
  return std::min(max_rate_, total_rate_ / static_cast<double>(flows_.size()));
}

void FairShareServer::advance() {
  const Seconds now = sim_.now();
  const Seconds dt = now - last_advance_;
  if (dt > 0.0 && !flows_.empty()) {
    const double rate = per_flow_rate();
    for (auto& flow : flows_) flow.remaining -= rate * dt;
    const auto f = static_cast<double>(flows_.size());
    load_integral_ += f * dt;
    busy_integral_ += std::min(1.0, f / parallelism()) * dt;
  }
  last_advance_ = now;
}

void FairShareServer::reschedule() {
  if (flows_.empty()) {
    sim_.cancel(completion_);
    return;
  }
  const double rate = per_flow_rate();
  QADIST_CHECK(rate > 0.0);
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const auto& flow : flows_)
    min_remaining = std::min(min_remaining, flow.remaining);
  const Seconds eta = std::max(0.0, min_remaining) / rate;
  if (!sim_.retime(completion_, eta)) {
    completion_ = sim_.schedule(eta, [this] { on_completion(); });
  }
}

void FairShareServer::on_completion() {
  advance();
  const double rate = per_flow_rate();
  finished_.clear();
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->remaining <= done_tolerance(it->total, rate)) {
      work_served_ += it->total;
      finished_.push_back(it->handle);
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  QADIST_CHECK(!finished_.empty(),
               << name_ << ": completion event found no finished flow");
  reschedule();
  for (auto h : finished_) {
    sim_.schedule(0.0, [h] { h.resume(); });
  }
}

void FairShareServer::enqueue(double work, std::coroutine_handle<> h) {
  if (work <= 0.0 || halted_) {
    // Halted: resume without serving; the customer's post-await crash
    // check observes the dead node and abandons the work.
    sim_.schedule(0.0, [h] { h.resume(); });
    return;
  }
  advance();
  flows_.push_back(Flow{work, work, h});
  reschedule();
}

void FairShareServer::halt() {
  if (halted_) return;
  advance();
  halted_ = true;
  sim_.cancel(completion_);
  std::vector<Flow> orphans = std::move(flows_);
  flows_.clear();
  for (const auto& flow : orphans) {
    sim_.schedule(0.0, [h = flow.handle] { h.resume(); });
  }
}

void FairShareServer::restart() {
  if (!halted_) return;
  advance();  // settle integrals over the (flow-free) downtime
  halted_ = false;
}

bool FairShareServer::cancel(std::coroutine_handle<> h) {
  advance();
  const auto it = std::find_if(flows_.begin(), flows_.end(),
                               [h](const Flow& f) { return f.handle == h; });
  if (it == flows_.end()) return false;
  flows_.erase(it);  // no work_served_ credit: the work was abandoned
  reschedule();
  sim_.schedule(0.0, [h] { h.resume(); });
  return true;
}

void FairShareServer::ConsumeAwaiter::await_suspend(std::coroutine_handle<> h) {
  server_.enqueue(work_, h);
}

double FairShareServer::load_integral() {
  advance();
  reschedule();  // advance() consumed elapsed time; replan next completion
  return load_integral_;
}

double FairShareServer::busy_integral() {
  advance();
  reschedule();
  return busy_integral_;
}

}  // namespace qadist::simnet
