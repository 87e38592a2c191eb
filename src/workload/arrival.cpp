#include "workload/arrival.hpp"

#include <cmath>

#include "cluster/workload.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace qadist::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586476925287;

/// Instantaneous rate lambda(t) of the time-varying shapes.
double instantaneous_rate(const ArrivalProcessConfig& c, Seconds t) {
  switch (c.shape) {
    case ArrivalShape::kDiurnal:
      return c.rate_qps * (1.0 + c.diurnal_amplitude *
                                     std::sin(kTwoPi * t / c.diurnal_period));
    case ArrivalShape::kFlashCrowd:
      return (t >= c.flash_at && t < c.flash_at + c.flash_duration)
                 ? c.rate_qps * c.flash_multiplier
                 : c.rate_qps;
    case ArrivalShape::kPoisson:
    case ArrivalShape::kMmpp:
      return c.rate_qps;
  }
  QADIST_UNREACHABLE("bad ArrivalShape");
}

/// Lewis-Shedler thinning: candidates from a homogeneous Poisson process
/// at the shape's peak rate, each kept with probability lambda(t)/peak.
/// Exact for any bounded lambda(t), and deterministic in the seed.
std::vector<Seconds> thinned_times(const ArrivalProcessConfig& c,
                                   double peak_rate) {
  Rng rng(c.seed);
  std::vector<Seconds> out;
  out.reserve(c.count);
  Seconds t = 0.0;
  while (out.size() < c.count) {
    t += rng.exponential(peak_rate);
    if (rng.uniform01() * peak_rate <= instantaneous_rate(c, t)) {
      out.push_back(t);
    }
  }
  return out;
}

/// 2-state MMPP: exponential dwell in each state, Poisson arrivals at the
/// state's rate. The calm rate is solved so the long-run mean is rate_qps:
/// with burst fraction f = E[burst]/(E[burst]+E[calm]) and multiplier m,
/// mean = calm·(1-f) + m·calm·f  =>  calm = rate_qps / (1 - f + m·f).
std::vector<Seconds> mmpp_times(const ArrivalProcessConfig& c) {
  const double f =
      c.mean_burst_seconds / (c.mean_burst_seconds + c.mean_calm_seconds);
  const double calm_rate =
      c.rate_qps / (1.0 - f + c.burst_rate_multiplier * f);
  const double burst_rate = calm_rate * c.burst_rate_multiplier;
  Rng rng(c.seed);
  std::vector<Seconds> out;
  out.reserve(c.count);
  Seconds t = 0.0;
  bool burst = false;  // the stream opens calm
  Seconds switch_at = rng.exponential(1.0 / c.mean_calm_seconds);
  while (out.size() < c.count) {
    const Seconds gap =
        rng.exponential(burst ? burst_rate : calm_rate);
    if (t + gap < switch_at) {
      t += gap;
      out.push_back(t);
      continue;
    }
    // The pending arrival draw is memoryless, so it restarts cleanly in
    // the new state at the switch instant.
    t = switch_at;
    burst = !burst;
    switch_at =
        t + rng.exponential(1.0 / (burst ? c.mean_burst_seconds
                                         : c.mean_calm_seconds));
  }
  return out;
}

void validate(const ArrivalProcessConfig& c) {
  QADIST_CHECK(c.rate_qps > 0.0, << "arrival rate must be positive");
  QADIST_CHECK(c.count > 0, << "arrival stream must have at least one event");
  switch (c.shape) {
    case ArrivalShape::kMmpp:
      QADIST_CHECK(c.burst_rate_multiplier >= 1.0);
      QADIST_CHECK(c.mean_burst_seconds > 0.0 && c.mean_calm_seconds > 0.0);
      break;
    case ArrivalShape::kDiurnal:
      QADIST_CHECK(c.diurnal_amplitude >= 0.0 && c.diurnal_amplitude < 1.0,
                   << "diurnal amplitude must stay in [0,1) so the rate "
                      "never goes negative");
      QADIST_CHECK(c.diurnal_period > 0.0);
      break;
    case ArrivalShape::kFlashCrowd:
      QADIST_CHECK(c.flash_multiplier >= 1.0);
      QADIST_CHECK(c.flash_at >= 0.0 && c.flash_duration > 0.0);
      break;
    case ArrivalShape::kPoisson:
      break;
  }
}

}  // namespace

std::string_view to_string(ArrivalShape shape) {
  switch (shape) {
    case ArrivalShape::kPoisson:
      return "poisson";
    case ArrivalShape::kMmpp:
      return "mmpp";
    case ArrivalShape::kDiurnal:
      return "diurnal";
    case ArrivalShape::kFlashCrowd:
      return "flash_crowd";
  }
  QADIST_UNREACHABLE("bad ArrivalShape");
}

std::vector<Seconds> arrival_times(const ArrivalProcessConfig& config) {
  validate(config);
  switch (config.shape) {
    case ArrivalShape::kPoisson:
      return thinned_times(config, config.rate_qps);
    case ArrivalShape::kMmpp:
      return mmpp_times(config);
    case ArrivalShape::kDiurnal:
      return thinned_times(config,
                           config.rate_qps * (1.0 + config.diurnal_amplitude));
    case ArrivalShape::kFlashCrowd:
      return thinned_times(config,
                           config.rate_qps * config.flash_multiplier);
  }
  QADIST_UNREACHABLE("bad ArrivalShape");
}

std::vector<Arrival> arrival_stream(const ArrivalProcessConfig& config,
                                    std::size_t plan_count) {
  QADIST_CHECK(plan_count > 0);
  const auto times = arrival_times(config);
  // Plan picks ride the overload generator so closed-loop and open-loop
  // experiments share one repetition model (and its decorrelation from
  // the timing stream).
  cluster::OverloadWorkload picker;
  picker.seed = config.seed;
  picker.repeat_exponent = config.repeat_exponent;
  picker.distinct_questions = config.distinct_questions;
  const auto picks =
      cluster::overload_pick_sequence(picker, plan_count, times.size());
  std::vector<Arrival> out;
  out.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    out.push_back(Arrival{picks[i], times[i]});
  }
  return out;
}

void submit_stream(cluster::System& system,
                   std::span<const cluster::QuestionPlan> plans,
                   std::span<const Arrival> stream) {
  for (const Arrival& a : stream) {
    QADIST_CHECK(a.plan_index < plans.size());
    system.submit(plans[a.plan_index], a.at);
  }
}

double peak_to_mean(const ArrivalProcessConfig& config) {
  validate(config);
  switch (config.shape) {
    case ArrivalShape::kPoisson:
      return 1.0;
    case ArrivalShape::kMmpp: {
      const double f = config.mean_burst_seconds /
                       (config.mean_burst_seconds + config.mean_calm_seconds);
      const double m = config.burst_rate_multiplier;
      return m / (1.0 - f + m * f);
    }
    case ArrivalShape::kDiurnal:
      return 1.0 + config.diurnal_amplitude;
    case ArrivalShape::kFlashCrowd:
      return config.flash_multiplier;
  }
  QADIST_UNREACHABLE("bad ArrivalShape");
}

double interarrival_cv2(const ArrivalProcessConfig& config) {
  if (config.shape == ArrivalShape::kPoisson) return 1.0;
  // Measured on a deterministic probe stream long enough that the estimate
  // is stable yet independent of the experiment's own count (a short
  // stream should not show the planner a different burstiness).
  ArrivalProcessConfig probe = config;
  probe.count = 4096;
  const auto times = arrival_times(probe);
  RunningStats gaps;
  Seconds prev = 0.0;
  for (const Seconds t : times) {
    gaps.add(t - prev);
    prev = t;
  }
  const double mean = gaps.mean();
  return mean > 0.0 ? gaps.variance() / (mean * mean) : 1.0;
}

}  // namespace qadist::workload
