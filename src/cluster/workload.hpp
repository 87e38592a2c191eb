#pragma once

#include <span>
#include <vector>

#include "cluster/system.hpp"

namespace qadist::cluster {

/// The paper's two experiment protocols (Sec. 6.1 / 6.2), packaged so
/// benches, tests and downstream users drive identical workloads.

/// Mean sequential service time of a plan set: total CPU plus disk bytes
/// at the given reference bandwidth, averaged per plan.
[[nodiscard]] double mean_service_seconds(std::span<const QuestionPlan> plans,
                                          Bandwidth reference_disk);

/// Makes the plan population bimodal in place, mirroring the paper's mixed
/// TREC-8/TREC-9 question set: every other plan is scaled to
/// `light_scale` of its work (TREC-8's 48 s average vs TREC-9's 94 s gives
/// the default 48/94).
void apply_bimodal_mix(std::span<QuestionPlan> plans,
                       double light_scale = 48.0 / 94.0);

/// High-load protocol (paper Sec. 6.1): submits `count` questions drawn
/// from `plans` (deterministically in `seed`) with inter-arrival gaps
/// uniform in [0, 2·g], where the mean gap g sustains arrivals at
/// `overload_factor` times the system's aggregate service rate. The same
/// seed produces the same question sequence and arrival times for every
/// policy — "the same questions and the same startup sequence for all
/// tests".
struct OverloadWorkload {
  std::size_t count = 0;                 ///< 0 = 8 x nodes (the paper's 8N)
  double overload_factor = 2.0;
  std::uint64_t seed = 1;
  Bandwidth reference_disk = Bandwidth::from_mbps(250);

  /// Question repetition (extension, off by default): with
  /// `repeat_exponent > 0` the submitted questions are drawn Zipf-skewed
  /// over a population of `distinct_questions` plans — rank k is picked
  /// with probability proportional to 1/(k+1)^s, the skew real question
  /// streams show (a handful of very popular questions, a long tail). At
  /// the default 0 the legacy deterministic scan over the plan set is
  /// used, bit-identical to before the field existed.
  double repeat_exponent = 0.0;
  std::size_t distinct_questions = 0;  ///< 0 = all plans are candidates
};

/// The plan indices an overload run (workload::Driver, RunSpec shape
/// kOverload) submits, in order — the pick sequence is pure in (workload,
/// plan_count, count), which is what makes cache-hit sequences
/// reproducible across runs and policies. Exposed for tests and benches
/// that need to know the question stream (e.g. to prewarm caches with
/// exactly the plans that will repeat).
[[nodiscard]] std::vector<std::size_t> overload_pick_sequence(
    const OverloadWorkload& workload, std::size_t plan_count,
    std::size_t count);

/// Low-load protocol (paper Sec. 6.2): `count` questions submitted one at
/// a time, with gaps long enough that the system fully drains between
/// them ("questions were executed one at a time"). `stride`/`offset`
/// select which plans are used (the benches use odd indices to stay on
/// the unscaled TREC-9-like population).
struct SerialWorkload {
  std::size_t count = 1;
  std::size_t stride = 1;
  std::size_t offset = 0;
  Bandwidth reference_disk = Bandwidth::from_mbps(250);
};

}  // namespace qadist::cluster
