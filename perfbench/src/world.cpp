#include "world.hpp"

#include <algorithm>
#include <span>

#include "cluster/workload.hpp"
#include "ir/shard_stats.hpp"

namespace perfbench {

using namespace qadist;

namespace {

// The worlds are part of the workloads' definition and fixed (the bench
// world's seeds); the workload seed drives the traffic over them.
constexpr std::uint64_t kCorpusSeed = 1234;
constexpr std::uint64_t kQuestionSeed = 77;

std::unique_ptr<corpus::GeneratedCorpus> fixed_corpus() {
  corpus::CorpusConfig cc;
  cc.seed = kCorpusSeed;
  cc.num_documents = 1500;
  cc.vocabulary_size = 12000;
  cc.entities_per_type = 250;
  return std::make_unique<corpus::GeneratedCorpus>(corpus::generate_corpus(cc));
}

void calibrate_and_plan(SimWorld& w, std::size_t sample) {
  const auto& questions = w.qa.questions;
  w.cost = std::make_unique<cluster::CostModel>(cluster::CostModel::calibrate(
      *w.qa.engine, std::span<const corpus::Question>(questions)
                        .subspan(0, std::min(sample, questions.size()))));
  w.plans.reserve(questions.size());
  for (const auto& q : questions) {
    w.plans.push_back(cluster::make_plan(*w.qa.engine, *w.cost, q));
  }
}

}  // namespace

double SimWorld::mean_service_seconds() const {
  return cluster::mean_service_seconds(plans, cost->anchors().reference_disk);
}

double SimWorld::mean_accepted_paragraphs() const {
  double total = 0.0;
  for (const auto& p : plans) total += static_cast<double>(p.ap_units.size());
  return plans.empty() ? 0.0 : total / static_cast<double>(plans.size());
}

QaWorld build_qa_world() {
  QaWorld w;
  w.corpus = fixed_corpus();

  qa::EngineConfig ec;
  ec.subcollection_size_ratio = 3.0;
  ec.min_paragraphs_per_subcollection = 60;
  ec.ordering.relative_threshold = 0.25;
  ec.ordering.max_accepted = 600;
  w.engine = std::make_unique<qa::Engine>(*w.corpus, ec);

  w.questions = corpus::generate_questions(*w.corpus, 120, kQuestionSeed);
  return w;
}

SimWorld build_paper_world() {
  SimWorld w;
  w.qa = build_qa_world();
  calibrate_and_plan(w, 40);
  cluster::apply_bimodal_mix(w.plans);
  return w;
}

SimWorld build_fleet_world(std::size_t shards, std::size_t questions) {
  SimWorld w;
  w.qa.corpus = fixed_corpus();

  qa::EngineConfig ec;
  ec.subcollections = shards;
  ec.subcollection_size_ratio = 3.0;
  ec.min_paragraphs_per_subcollection = 10;
  ec.ordering.relative_threshold = 0.25;
  ec.ordering.max_accepted = 400;
  w.qa.engine = std::make_unique<qa::Engine>(*w.qa.corpus, ec);
  w.qa.questions =
      corpus::generate_questions(*w.qa.corpus, questions, kQuestionSeed);
  calibrate_and_plan(w, 16);

  std::vector<ir::ShardTermStats> shard_stats;
  shard_stats.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_stats.push_back(ir::extract_term_stats(w.qa.engine->index(s)));
  }
  w.stats = std::make_shared<broker::CollectionStats>(
      broker::CollectionStats::from_shard_stats(std::move(shard_stats)));
  return w;
}

std::size_t scaled_chunk(const SimWorld& world) {
  const double scale = world.mean_accepted_paragraphs() / 880.0;
  return static_cast<std::size_t>(std::max(1.0, 40.0 * scale));
}

}  // namespace perfbench
