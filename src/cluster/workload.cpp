#include "cluster/workload.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"

namespace qadist::cluster {

double mean_service_seconds(std::span<const QuestionPlan> plans,
                            Bandwidth reference_disk) {
  if (plans.empty()) return 0.0;
  double total = 0.0;
  for (const auto& p : plans) {
    total += p.total_cpu_seconds() +
             p.total_disk_bytes() / reference_disk.bytes_per_second;
  }
  return total / static_cast<double>(plans.size());
}

void apply_bimodal_mix(std::span<QuestionPlan> plans, double light_scale) {
  QADIST_CHECK(light_scale > 0.0);
  for (std::size_t i = 0; i < plans.size(); i += 2) {
    scale_plan(plans[i], light_scale);
  }
}

std::vector<std::size_t> overload_pick_sequence(
    const OverloadWorkload& workload, std::size_t plan_count,
    std::size_t count) {
  QADIST_CHECK(plan_count > 0);
  std::vector<std::size_t> picks;
  picks.reserve(count);
  if (workload.repeat_exponent <= 0.0) {
    // Legacy deterministic scan (the paper's "same questions and same
    // startup sequence for all tests").
    for (std::size_t i = 0; i < count; ++i) {
      picks.push_back((i * 7 + workload.seed * 13) % plan_count);
    }
    return picks;
  }
  const std::size_t distinct =
      workload.distinct_questions == 0
          ? plan_count
          : std::min(workload.distinct_questions, plan_count);
  const ZipfDistribution zipf(static_cast<std::uint32_t>(distinct),
                              workload.repeat_exponent);
  // Decorrelated from the arrival-gap stream so adding repetition does not
  // silently reshuffle arrival times.
  Rng ranks(workload.seed ^ 0xd1b54a32d192ed03ULL);
  for (std::size_t i = 0; i < count; ++i) {
    // rank -> plan via a seed-dependent rotation: injective over ranks, so
    // `distinct` stays exact, but which plans are "hot" varies with seed.
    const std::size_t rank = zipf(ranks);
    picks.push_back((rank + workload.seed * 13) % plan_count);
  }
  return picks;
}

}  // namespace qadist::cluster
