#pragma once

#include <span>
#include <string_view>

#include "cluster/metrics.hpp"
#include "cluster/plan.hpp"
#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "workload/arrival.hpp"

namespace qadist::workload {

/// Which submit protocol a RunSpec drives.
enum class WorkloadShape {
  kOverload,  ///< closed-loop high-load protocol (paper Sec. 6.1)
  kSerial,    ///< one-at-a-time low-load protocol (paper Sec. 6.2)
  kOpenLoop,  ///< seeded open-loop arrival process (extension)
};

[[nodiscard]] std::string_view to_string(WorkloadShape shape);

/// One experiment, fully described: the workload shape plus the
/// shape-specific parameters (question counts, seeds, arrival process).
/// Exactly one of the three sub-configs is read, selected by `shape`; the
/// others keep their defaults and are ignored. Everything about the
/// cluster itself (nodes, policy, admission, faults, cfg.tail) stays in
/// cluster::SystemConfig — a RunSpec describes the *traffic*, not the
/// system under test.
struct RunSpec {
  WorkloadShape shape = WorkloadShape::kOverload;
  cluster::OverloadWorkload overload{};  ///< read when shape == kOverload
  cluster::SerialWorkload serial{};      ///< read when shape == kSerial
  ArrivalProcessConfig open_loop{};      ///< read when shape == kOpenLoop
};

/// What one driven run produced.
struct RunResult {
  std::size_t submitted = 0;  ///< questions handed to System::submit
  cluster::Metrics metrics;   ///< end-of-run registry snapshot
};

/// The front door for driving a System through a workload. The three
/// protocols — the paper's high-load and one-at-a-time runs, and an
/// open-loop arrival stream — are one API: build a Driver over the system
/// and its plan set, describe the traffic in a RunSpec, and run().
class Driver {
 public:
  Driver(cluster::System& system,
         std::span<const cluster::QuestionPlan> plans)
      : system_(system), plans_(plans) {}

  /// Submits the spec's question stream against the (not yet running)
  /// system and returns how many questions were submitted. Split from
  /// run() so callers can attach more simulation processes, prewarm
  /// caches, or drive several specs into one run.
  ///
  /// Validation (QADIST_CHECK, i.e. a panic with a clear message — mutated
  /// or hand-edited specs must fail loudly, not no-op):
  ///   * rates and factors must be finite and positive (NaN and infinity
  ///     are rejected, not just non-positive values);
  ///   * zero-length runs are rejected: a serial or open-loop spec must
  ///     submit at least one question;
  ///   * every scripted fault in the system's config — crash, gray window,
  ///     partition — must start within the submitted stream's horizon plus
  ///     a drain allowance (see drain_allowance); an event scheduled past
  ///     that can never influence the run it was scripted for.
  std::size_t submit(const RunSpec& spec);

  /// How long after the last arrival a scripted fault may still start and
  /// plausibly matter: generous (the larger of 60 s and the stream length
  /// itself, covering overloaded queues that drain long past the last
  /// arrival) but finite, so a fault at t=1e9 against a 600 s stream is an
  /// error instead of a silent no-op.
  [[nodiscard]] static Seconds drain_allowance(Seconds last_arrival) {
    return last_arrival > 60.0 ? last_arrival : 60.0;
  }

  /// submit() + System::run(): one whole experiment.
  RunResult run(const RunSpec& spec);

 private:
  cluster::System& system_;
  std::span<const cluster::QuestionPlan> plans_;
};

}  // namespace qadist::workload
