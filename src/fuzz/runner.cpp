#include "fuzz/runner.hpp"

#include <cmath>
#include <iterator>
#include <sstream>

#include "common/check.hpp"
#include "obs/critical_path.hpp"
#include "obs/span.hpp"
#include "shard/config.hpp"
#include "simnet/simulation.hpp"
#include "workload/driver.hpp"

namespace qadist::fuzz {

namespace {

/// Coverage bits, in bit order: bit i is set when entry i's metric is
/// nonzero. Appending is fine; reordering is not (saved corpora key on the
/// signature).
using M = cluster::Metrics;
struct CoverageBit {
  const char* name;
  std::size_t (*value)(const M&);
};
constexpr CoverageBit kCoverage[] = {
    {"crashes", [](const M& m) { return m.crashes; }},
    {"crashes_skipped", [](const M& m) { return m.crashes_skipped; }},
    {"question_restarts", [](const M& m) { return m.question_restarts; }},
    {"recovery_legs", [](const M& m) { return m.recovery_legs; }},
    {"net_drops", [](const M& m) { return m.net_drops; }},
    {"net_partition_drops", [](const M& m) { return m.net_partition_drops; }},
    {"net_duplicates", [](const M& m) { return m.net_duplicates; }},
    {"net_retries", [](const M& m) { return m.net_retries; }},
    {"net_send_failures", [](const M& m) { return m.net_send_failures; }},
    {"legs_unreachable", [](const M& m) { return m.legs_unreachable; }},
    {"detector_suspicions", [](const M& m) { return m.detector_suspicions; }},
    {"detector_false_alarms",
     [](const M& m) { return m.detector_false_alarms; }},
    {"detector_deaths", [](const M& m) { return m.detector_deaths; }},
    {"detector_rejoins", [](const M& m) { return m.detector_rejoins; }},
    {"questions_degraded", [](const M& m) { return m.questions_degraded; }},
    {"degraded_units_dropped",
     [](const M& m) { return m.degraded_units_dropped; }},
    {"degraded_stale_served",
     [](const M& m) { return m.degraded_stale_served; }},
    {"shard_failovers", [](const M& m) { return m.shard_failovers; }},
    {"shard_rebuilds", [](const M& m) { return m.shard_rebuilds; }},
    {"shard_units_unserved", [](const M& m) { return m.shard_units_unserved; }},
    {"shard_revalidations", [](const M& m) { return m.shard_revalidations; }},
    {"questions_rejected", [](const M& m) { return m.questions_rejected; }},
    {"questions_shed", [](const M& m) { return m.questions_shed; }},
    {"admission_degraded", [](const M& m) { return m.admission_degraded; }},
    {"admission_queued", [](const M& m) { return m.admission_wait.count(); }},
    {"cache_hits", [](const M& m) { return m.cache_hits; }},
    {"pr_cache_hits", [](const M& m) { return m.pr_cache_hits; }},
    {"hedges_issued", [](const M& m) { return m.hedges_issued; }},
    {"hedge_wins", [](const M& m) { return m.hedge_wins; }},
    {"legs_cancelled", [](const M& m) { return m.legs_cancelled; }},
    {"straggler_avoidances", [](const M& m) { return m.straggler_avoidances; }},
    {"gray_onsets", [](const M& m) { return m.gray_onsets; }},
    {"migrations",
     [](const M& m) {
       return m.migrations_qa + m.migrations_pr + m.migrations_ap;
     }},
};
static_assert(std::size(kCoverage) <= 64, "the signature is one 64-bit word");

/// One simulation pass over the scenario. `trace` attaches a span tracer
/// (pure observation — attaching one never changes the event sequence, so
/// the replay pass can skip it and still digest identically).
Observation execute(std::span<const cluster::QuestionPlan> plans,
                    const Scenario& scenario, bool trace) {
  std::vector<cluster::QuestionPlan> subset;
  for (const std::size_t index : scenario.plan_subset(plans.size())) {
    subset.push_back(plans[index]);
  }

  simnet::Simulation sim;
  cluster::System system(sim, scenario.system_config());
  obs::Tracer tracer;
  if (trace) system.set_tracer(&tracer);
  workload::Driver driver(system, subset);
  const workload::RunResult result = driver.run(scenario.run_spec());

  Observation o;
  o.metrics = result.metrics;
  const cluster::Metrics& m = o.metrics;
  o.p50 = m.latencies.quantile_or(0.50, 0.0);
  o.p95 = m.latencies.quantile_or(0.95, 0.0);
  o.p99 = m.latencies.quantile_or(0.99, 0.0);
  o.max_latency = m.latencies.quantile_or(1.0, 0.0);
  o.degraded_fraction =
      m.completed == 0 ? 0.0
                       : static_cast<double>(m.questions_degraded) /
                             static_cast<double>(m.completed);
  o.shed_fraction = m.shed_fraction();
  o.hedge_overhead = m.hedge_overhead();
  o.coverage = coverage_signature(m);
  o.digest = digest_of(m);

  if (trace) {
    // Zombie spans: every span opened during the run must have closed by
    // the time the simulation drained.
    if (tracer.open_spans() != 0) {
      std::ostringstream msg;
      msg << "zombie spans: " << tracer.open_spans()
          << " spans still open after the run drained";
      o.violations.push_back(msg.str());
    }
    // Critical-path telescoping: each analyzed question's five latency
    // components must sum to its end-to-end total (exact decomposition up
    // to float round-off).
    for (const obs::QuestionBreakdown& q : obs::analyze_questions(tracer)) {
      const double err = std::fabs(q.component_sum() - q.total);
      if (err > 1e-6) {
        std::ostringstream msg;
        msg << "critical-path telescoping broke for question " << q.question
            << ": components sum to " << q.component_sum() << " but total is "
            << q.total << " (error " << err << ")";
        o.violations.push_back(msg.str());
      }
    }
  }
  return o;
}

void append(std::vector<std::string>& out, std::ostringstream& msg) {
  out.push_back(msg.str());
  msg.str({});
}

}  // namespace

RunDigest digest_of(const cluster::Metrics& m) {
  RunDigest d;
  d.makespan = m.makespan;
  d.latency_mean = m.latencies.mean();
  d.latency_p99 = m.latencies.quantile_or(0.99, 0.0);
  d.submitted = m.submitted;
  d.completed = m.completed;
  d.rejected = m.questions_rejected;
  d.shed = m.questions_shed;
  d.degraded = m.questions_degraded;
  d.crashes = m.crashes;
  d.net_drops = m.net_drops;
  d.net_retries = m.net_retries;
  d.hedges_issued = m.hedges_issued;
  d.legs_cancelled = m.legs_cancelled;
  d.gray_onsets = m.gray_onsets;
  return d;
}

std::string to_string(const RunDigest& d) {
  std::ostringstream out;
  out << "makespan=" << format_double(d.makespan)
      << " mean=" << format_double(d.latency_mean)
      << " p99=" << format_double(d.latency_p99) << " submitted=" << d.submitted
      << " completed=" << d.completed << " rejected=" << d.rejected
      << " shed=" << d.shed << " degraded=" << d.degraded
      << " crashes=" << d.crashes << " drops=" << d.net_drops
      << " retries=" << d.net_retries << " hedges=" << d.hedges_issued
      << " cancelled=" << d.legs_cancelled << " gray=" << d.gray_onsets;
  return out.str();
}

std::uint64_t coverage_signature(const cluster::Metrics& m) {
  std::uint64_t sig = 0;
  for (std::size_t b = 0; b < std::size(kCoverage); ++b) {
    if (kCoverage[b].value(m) > 0) sig |= std::uint64_t{1} << b;
  }
  return sig;
}

std::vector<std::string> coverage_names(std::uint64_t signature) {
  std::vector<std::string> names;
  for (std::size_t b = 0; b < std::size(kCoverage); ++b) {
    if ((signature & (std::uint64_t{1} << b)) != 0) {
      names.emplace_back(kCoverage[b].name);
    }
  }
  return names;
}

std::vector<std::string> counter_violations(const cluster::Metrics& m,
                                            const Scenario& s) {
  std::vector<std::string> out;
  std::ostringstream msg;

  // Drain accounting: every submitted question is completed, rejected, or
  // shed — nothing vanishes, nothing is double-counted.
  if (m.completed + m.questions_rejected + m.questions_shed != m.submitted) {
    msg << "drain accounting broke: completed " << m.completed
        << " + rejected " << m.questions_rejected << " + shed "
        << m.questions_shed << " != submitted " << m.submitted;
    append(out, msg);
  }
  if (m.latencies.count() != m.completed) {
    msg << "latency samples (" << m.latencies.count()
        << ") != completed questions (" << m.completed << ")";
    append(out, msg);
  }
  if (m.questions_degraded > m.completed) {
    msg << "degraded (" << m.questions_degraded << ") exceeds completed ("
        << m.completed << ")";
    append(out, msg);
  }

  // Fault-schedule accounting: every scripted event fires exactly once
  // (the simulation drains its whole queue, so scheduled != fired is a
  // scheduler bug, not a timing artifact).
  if (m.crashes + m.crashes_skipped != s.crashes.size()) {
    msg << "crash accounting broke: applied " << m.crashes << " + skipped "
        << m.crashes_skipped << " != scheduled " << s.crashes.size();
    append(out, msg);
  }
  if (m.gray_onsets != s.gray.size()) {
    msg << "gray onsets (" << m.gray_onsets << ") != scheduled windows ("
        << s.gray.size() << ")";
    append(out, msg);
  }
  std::size_t recovering = 0;
  for (const simnet::GrayFaultEvent& event : s.gray) {
    if (event.recover_after >= 0.0) ++recovering;
  }
  if (m.gray_recoveries != recovering) {
    msg << "gray recoveries (" << m.gray_recoveries
        << ") != windows with a recovery scheduled (" << recovering << ")";
    append(out, msg);
  }

  // Tail-tolerance accounting: settled hedge races never exceed issued
  // backups.
  if (m.hedge_wins + m.hedge_losses > m.hedges_issued) {
    msg << "hedge races settled (" << m.hedge_wins + m.hedge_losses
        << ") exceed hedges issued (" << m.hedges_issued << ")";
    append(out, msg);
  }
  // A settled race may cancel several loser legs (a group can hold more
  // than one outstanding member), so cancellations are bounded by spawned
  // legs, not by settled races — and they require tied requests.
  if (m.legs_cancelled > m.legs_spawned) {
    msg << "cancelled legs (" << m.legs_cancelled << ") exceed spawned legs ("
        << m.legs_spawned << ")";
    append(out, msg);
  }
  if (!s.tied && m.legs_cancelled > 0) {
    msg << "legs cancelled (" << m.legs_cancelled
        << ") with tied requests disabled";
    append(out, msg);
  }
  if (!s.hedge && m.hedges_issued > 0) {
    msg << "hedges issued (" << m.hedges_issued
        << ") with hedging disabled";
    append(out, msg);
  }

  // Detector accounting: every resolution consumed a suspicion.
  if (m.detector_deaths + m.detector_false_alarms > m.detector_suspicions) {
    msg << "detector resolutions ("
        << m.detector_deaths + m.detector_false_alarms
        << ") exceed suspicions (" << m.detector_suspicions << ")";
    append(out, msg);
  }

  // Shard accounting: completed rebuilds never exceed the failovers that
  // scheduled them, and each rebuild copied exactly one shard artifact.
  if (m.shard_rebuilds > m.shard_failovers) {
    msg << "shard rebuilds (" << m.shard_rebuilds << ") exceed failovers ("
        << m.shard_failovers << ")";
    append(out, msg);
  }
  if (m.shard_rebuild_bytes != m.shard_rebuilds * shard::kShardBytes) {
    msg << "shard rebuild bytes (" << m.shard_rebuild_bytes
        << ") != rebuilds (" << m.shard_rebuilds << ") x shard size ("
        << shard::kShardBytes << ")";
    append(out, msg);
  }

  // Admission accounting: nothing rejected or shed without admission
  // control configured.
  if (s.max_concurrent == 0 &&
      (m.questions_rejected > 0 || m.questions_shed > 0 ||
       m.admission_degraded > 0)) {
    msg << "admission counters fired (" << m.questions_rejected
        << " rejected, " << m.questions_shed << " shed, "
        << m.admission_degraded << " degraded) with admission disabled";
    append(out, msg);
  }
  return out;
}

Observation run_scenario(std::span<const cluster::QuestionPlan> plans,
                         const Scenario& scenario,
                         const RunOptions& options) {
  const auto issue = scenario.problem(plans.size());
  QADIST_CHECK(!issue.has_value(),
               << "run_scenario: invalid scenario \"" << scenario.name
               << "\": " << *issue);

  Observation o = execute(plans, scenario, options.check_invariants);
  if (options.check_invariants) {
    for (std::string& v : counter_violations(o.metrics, scenario)) {
      o.violations.push_back(std::move(v));
    }
  }
  if (options.check_replay) {
    // Bit-identical replay from the wire format: serialize, parse, re-run,
    // and require the exact same digest. This is the property that makes a
    // committed survivor a *reproducer* rather than an anecdote.
    const Scenario replayed = scenario_from_json(to_json(scenario));
    const Observation again =
        execute(plans, replayed, /*trace=*/false);
    if (!(again.digest == o.digest)) {
      o.violations.push_back(
          "replay from serialized scenario diverged:\n  first:  " +
          to_string(o.digest) + "\n  replay: " + to_string(again.digest));
    }
  }
  return o;
}

double fitness(const Observation& o, const Baseline& b) {
  const double p99_ratio = b.p99 > 0.0 ? o.p99 / b.p99 : 0.0;
  const double max_ratio =
      b.max_latency > 0.0 ? o.max_latency / b.max_latency : 0.0;
  // Weights: tail latency is the primary signal; a degraded or shed answer
  // is worse than a slow one (the paper's SLO is about *answers*), hedge
  // overhead is a mild pressure so "fixes" that hedge everything don't
  // look free.
  return p99_ratio + 0.5 * max_ratio + 8.0 * o.degraded_fraction +
         4.0 * o.shed_fraction + o.hedge_overhead;
}

bool pathological(const Observation& o, const Baseline& b, double ratio) {
  if (b.p99 > 0.0 && o.p99 >= ratio * b.p99) return true;
  const double degraded_floor =
      b.degraded_fraction > 0.0 ? ratio * b.degraded_fraction : 0.0;
  return o.degraded_fraction >= 0.15 &&
         o.degraded_fraction >= degraded_floor;
}

}  // namespace qadist::fuzz
