#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/check.hpp"
#include "fuzz/shrink.hpp"

namespace qadist::fuzz {

Fuzzer::Fuzzer(std::span<const cluster::QuestionPlan> plans,
               Scenario reference, FuzzConfig config)
    : plans_(plans),
      reference_(std::move(reference)),
      config_(config),
      mutator_(config.seed, config.mutation),
      pick_rng_(config.seed ^ 0x9e3779b97f4a7c15ULL) {
  const auto issue = reference_.problem(plans_.size());
  QADIST_CHECK(!issue.has_value(),
               << "fuzzer: reference scenario invalid: " << *issue);
}

Observation Fuzzer::observe(const Scenario& scenario,
                            bool check_replay) const {
  RunOptions options;
  options.check_invariants = true;
  options.check_replay = check_replay;
  return run_scenario(plans_, scenario, options);
}

void Fuzzer::run() {
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  const auto out_of_time = [&] {
    if (config_.seconds <= 0.0) return false;
    return std::chrono::duration<double>(Clock::now() - started).count() >=
           config_.seconds;
  };

  // Healthy reference run: the baseline every mutant is scored against.
  Observation reference_run = observe(reference_, config_.check_replay);
  ++stats_.runs;
  for (const std::string& violation : reference_run.violations) {
    stats_.violations.push_back("reference: " + violation);
  }
  baseline_.p99 = reference_run.p99;
  baseline_.max_latency = reference_run.max_latency;
  baseline_.degraded_fraction = reference_run.degraded_fraction;

  CorpusEntry seed_entry;
  seed_entry.scenario = reference_;
  seed_entry.fitness = fitness(reference_run, baseline_);
  seed_entry.coverage = reference_run.coverage;
  seed_entry.p99 = reference_run.p99;
  seed_entry.degraded_fraction = reference_run.degraded_fraction;
  corpus_.offer(std::move(seed_entry));

  while (stats_.runs < config_.runs && !out_of_time()) {
    const auto parent_index = corpus_.pick_parent(pick_rng_);
    QADIST_CHECK(parent_index.has_value());
    const Scenario parent = corpus_.entries()[*parent_index].scenario;
    Scenario child = mutator_.mutate(parent, plans_.size());

    Observation o = observe(child, config_.check_replay);
    ++stats_.runs;
    for (const std::string& violation : o.violations) {
      stats_.violations.push_back("run " + std::to_string(stats_.runs) +
                                  " (" + mutator_.last_ops() +
                                  "): " + violation);
    }
    if (pathological(o, baseline_, config_.pathological_ratio)) {
      ++stats_.pathological;
    }

    CorpusEntry entry;
    entry.scenario = std::move(child);
    entry.fitness = fitness(o, baseline_);
    entry.coverage = o.coverage;
    entry.p99 = o.p99;
    entry.degraded_fraction = o.degraded_fraction;
    entry.discovered_at = stats_.runs;
    if (corpus_.offer(std::move(entry))) ++stats_.admitted;
  }

  harvest_survivors();
}

void Fuzzer::harvest_survivors() {
  // Candidates: corpus entries past the pathology bar, fittest first.
  std::vector<const CorpusEntry*> candidates;
  for (const CorpusEntry& entry : corpus_.entries()) {
    candidates.push_back(&entry);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const CorpusEntry* a, const CorpusEntry* b) {
              if (a->fitness != b->fitness) return a->fitness > b->fitness;
              return a->coverage < b->coverage;  // deterministic tie-break
            });

  // Different corpus entries frequently shrink to the same minimal
  // reproducer — dedupe by the canonical JSON with identity fields
  // normalized out.
  std::vector<std::string> seen;
  const auto genome = [](const Scenario& s) {
    Scenario bare = s;
    bare.name = "x";
    bare.pin = Pin{};
    return to_json(bare);
  };

  std::size_t index = 0;
  for (const CorpusEntry* candidate : candidates) {
    if (survivors_.size() >= config_.max_survivors) break;
    Observation o = observe(candidate->scenario, /*check_replay=*/false);
    if (!o.violations.empty()) continue;  // already reported during the hunt
    if (!pathological(o, baseline_, config_.pathological_ratio)) continue;

    Scenario minimal = candidate->scenario;
    if (config_.shrink) {
      // A simplification must keep the run pathological, invariant-clean,
      // AND still fire every counter family the original fired — otherwise
      // shrinking collapses the whole corpus onto the one easiest pathology
      // (pure overload) and the per-signature variety is lost.
      const std::uint64_t want = o.coverage;
      const Predicate still_bad = [&](const Scenario& s) {
        Observation trial = observe(s, /*check_replay=*/false);
        return trial.violations.empty() &&
               (trial.coverage & want) == want &&
               pathological(trial, baseline_, config_.pathological_ratio);
      };
      ShrinkResult shrunk = shrink(minimal, plans_.size(), still_bad,
                                   config_.shrink_attempts);
      stats_.shrink_attempts += shrunk.attempts;
      minimal = std::move(shrunk.scenario);
    }

    const std::string key = genome(minimal);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);

    // Final measurement of the minimal reproducer, replay-checked, and the
    // pin that bench_adversarial will enforce.
    Observation final_run = observe(minimal, /*check_replay=*/true);
    for (const std::string& violation : final_run.violations) {
      stats_.violations.push_back("survivor " + minimal.name + ": " +
                                  violation);
    }
    if (!final_run.violations.empty()) continue;
    if (!pathological(final_run, baseline_, config_.pathological_ratio)) {
      continue;
    }

    char suffix[8];
    std::snprintf(suffix, sizeof(suffix), "%03zu", index);
    minimal.name = reference_.name + "-" + suffix;
    minimal.pin.present = true;
    minimal.pin.p99_seconds = final_run.p99;
    minimal.pin.degraded_fraction = final_run.degraded_fraction;
    minimal.pin.baseline_p99_seconds = baseline_.p99;
    minimal.pin.digest = to_string(final_run.digest);
    ++index;

    Survivor survivor;
    survivor.scenario = std::move(minimal);
    survivor.observation = std::move(final_run);
    survivor.fitness = candidate->fitness;
    survivors_.push_back(std::move(survivor));
  }
}

}  // namespace qadist::fuzz
