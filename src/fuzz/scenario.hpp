#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/system.hpp"
#include "workload/arrival.hpp"
#include "workload/driver.hpp"

namespace qadist::fuzz {

/// Pinned regression envelope of a committed survivor: what the scenario
/// measured when it was pinned, so bench_adversarial can fail the build if
/// a later change makes the same scenario meaningfully *worse* (or lets
/// the pathology silently vanish — see bench_adversarial).
struct Pin {
  bool present = false;
  double p99_seconds = 0.0;          ///< observed latency p99 at pin time
  double degraded_fraction = 0.0;    ///< observed degraded share at pin time
  double baseline_p99_seconds = 0.0; ///< the healthy reference p99 it beat
  /// Relative slack of the envelope: a replayed p99 up to
  /// (1 + slack) * p99_seconds still passes. Deterministic replay means
  /// drift only comes from real code changes, but unrelated changes to
  /// event ordering legitimately move tails a little.
  double slack = 0.25;
  /// fuzz::to_string(RunDigest) of the run at pin time: the exact
  /// fingerprint every replay must reproduce, so a behaviour change fails
  /// bench_adversarial even while the tail stays inside the envelope.
  std::string digest;
};

/// One fuzzable simulation scenario — the complete, serializable genome
/// the adversarial hunter mutates. Everything a run depends on is either
/// in here or pure in it (the plan set comes from the world the runner is
/// handed, skewed by plan_offset/plan_stride), so a scenario JSON replays
/// bit-identically: same arrivals, same faults, same knobs, same seed.
///
/// Canonical wire format: JSON, schema "qadist-scenario-v1", fixed field
/// order, doubles printed with enough digits to round-trip exactly (the
/// shortest of %.15g/%.16g/%.17g that strtod's back to the same bits).
/// Seeds use the full 64-bit range, which JSON numbers (doubles) cannot
/// carry — they travel as decimal strings.
struct Scenario {
  std::string name = "reference";
  std::uint64_t seed = 1;
  std::size_t nodes = 12;

  /// Open-loop traffic (arrival process + rate + Zipf skew + distinct
  /// question count). The fuzzer drives everything open-loop: it is the
  /// only shape that can push past saturation, which is where the
  /// pathologies live.
  workload::ArrivalProcessConfig traffic;

  /// Corpus skew: the runner's plan set is sub-sampled to indices
  /// offset, offset+stride, offset+2*stride, ... — a stride > 1 starves
  /// the question mix down to fewer, heavier plans.
  std::size_t plan_offset = 0;
  std::size_t plan_stride = 1;

  std::size_t ap_chunk = 40;

  /// Corpus sharding (0 shards = off, full replication semantics).
  std::size_t num_shards = 0;
  std::size_t replication = 0;

  /// Selective search + broker/mediator tier (both require sharding when
  /// non-default). 0 brokers = flat star; selectivity 1 with top_k 0 =
  /// exhaustive search. Selection in the fuzzer always uses the per-
  /// question work proxy (scenarios carry no term statistics).
  std::size_t brokers = 0;
  double selectivity = 1.0;
  std::size_t top_k = 0;

  /// Fault schedules: scripted node crashes, link-level faults, scripted
  /// partitions, gray-degradation windows. All deterministic given the
  /// scenario (no MTBF process — the genome must *be* the schedule).
  std::vector<cluster::FaultEvent> crashes;
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  Seconds jitter_min = 0.0;
  Seconds jitter_max = 0.0;
  std::vector<simnet::PartitionWindow> partitions;
  std::vector<simnet::GrayFaultEvent> gray;

  /// Admission-control knobs (max_concurrent 0 = off).
  std::size_t max_concurrent = 0;
  std::size_t queue_capacity = 0;
  cluster::AdmissionPolicy admission_policy = cluster::AdmissionPolicy::kReject;
  double load_threshold = 0.0;

  /// Tail-tolerance toggles.
  bool hedge = false;
  bool tied = false;
  bool latency_aware = false;
  double hedge_quantile = 0.95;

  /// Per-node caches (0 entries = off) with a shared TTL.
  std::size_t answer_cache_entries = 0;
  std::size_t paragraph_cache_entries = 0;
  Seconds cache_ttl = 0.0;

  /// Per-question deadline budget. Kept > 0 by validation so every
  /// scenario is live by construction: under arbitrary fault schedules a
  /// question may degrade, but it can never hang the run.
  Seconds question_deadline = 240.0;

  Pin pin;

  /// Validation: nullopt when the scenario is well-formed and runnable,
  /// otherwise the first problem found, in plain words. Mirrors (and is at
  /// least as strict as) the System + Driver QADIST_CHECKs, so a scenario
  /// that passes here never panics downstream. `plan_count` is the size of
  /// the plan set the runner will skew.
  [[nodiscard]] std::optional<std::string> problem(
      std::size_t plan_count) const;

  /// The plan indices this scenario's skew selects from a set of
  /// `plan_count` plans (ascending; non-empty for a valid scenario).
  [[nodiscard]] std::vector<std::size_t> plan_subset(
      std::size_t plan_count) const;

  /// Builders for the run: the cluster under test and the traffic spec.
  [[nodiscard]] cluster::SystemConfig system_config() const;
  [[nodiscard]] workload::RunSpec run_spec() const;

  /// Last arrival instant of the traffic stream (deterministic in the
  /// config). Only valid once traffic passes validation.
  [[nodiscard]] Seconds last_arrival() const;
};

/// Canonical JSON serialization (schema qadist-scenario-v1).
[[nodiscard]] std::string to_json(const Scenario& scenario);

/// Parses a canonical scenario JSON. Panics (QADIST_CHECK) with a clear
/// message on malformed/truncated input, a wrong schema tag, or missing /
/// mistyped fields — corrupt scenario files must fail loudly, mirroring
/// ir::persist. Structural validity only: call problem() before running.
[[nodiscard]] Scenario scenario_from_json(std::string_view text);

/// Exact round-trip double formatting: the shortest %g form that strtod's
/// back to the same bits (exposed for tests).
[[nodiscard]] std::string format_double(double value);

/// The healthy reference configuration the hunter mutates from and
/// baselines against: `nodes` nodes, open-loop Poisson at half the
/// aggregate service rate (`nodes / (2 * mean_service_seconds)` qps),
/// 8 questions per node, no faults, every knob at its default.
[[nodiscard]] Scenario reference_scenario(std::size_t nodes,
                                          double mean_service_seconds,
                                          std::uint64_t seed = 1);

}  // namespace qadist::fuzz
