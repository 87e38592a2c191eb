#pragma once

// The four benchmark workloads. Each drives the library only through its
// public APIs — qa::Engine's stage API, parallel::answer_parallel and the
// parallel stage functions, workload::Driver over cluster::System, and
// obs::Tracer / obs::attribute_run — and times the calls from outside.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A 2x slowdown of one stage, applied from outside the library, for the
/// sensitivity self-test.
enum class Perturb {
  kNone,
  kScoreTwice,  ///< real pipeline: call Engine::score() twice per paragraph
  kPsDouble,    ///< simulator: double the PS demand of every generated plan
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement time after set-up
  bool trace = false;
  Perturb perturb = Perturb::kNone;
  std::size_t setups = 3;  ///< world builds; setup_s is their median
};

struct Report {
  /// Every end-to-end metric, each defined on every workload (the names
  /// BENCHMARK.json lists).
  std::vector<Metric> end_to_end;
  /// The same measurements under the per-workload names the docs use
  /// (question_ms_p50, sim_latency_p99_s, ...), plus layer details that
  /// are printed but not gated.
  std::vector<Metric> named;
  /// Every per-layer metric; 0 where the workload bypasses the layer.
  std::vector<Metric> per_layer;
  /// Correctness violations; empty means correct.
  std::vector<std::string> violations;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Run manifest: key and JSON-encoded value.
  std::vector<std::pair<std::string, std::string>> manifest;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// (name, unit) of every end-to-end and every per-layer metric, in output
/// order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_catalog();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalog();

/// Runs one workload. Panics on an unknown workload name.
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench
