#pragma once

// The worlds the workloads run on: fixed corpora and question sets (the
// workload seed drives only the traffic over them). The benchmark builds
// them through the library's public constructors only
// (corpus generator, qa::Engine, CostModel::calibrate, make_plan), so the
// time they take is the set-up cost a user of the library pays.

#include <cstdint>
#include <memory>
#include <vector>

#include "broker/stats.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/plan.hpp"
#include "corpus/generator.hpp"
#include "qa/engine.hpp"

namespace perfbench {

/// Corpus, engine and questions: what the real-pipeline workloads need.
/// The engine points into the corpus, so the corpus lives on the heap and
/// the world stays valid when moved.
struct QaWorld {
  std::unique_ptr<qadist::corpus::GeneratedCorpus> corpus;
  std::unique_ptr<qadist::qa::Engine> engine;
  std::vector<qadist::corpus::Question> questions;
};

/// A QaWorld plus the calibrated cost model and one plan per question:
/// what the simulated workloads need. `stats` is set for sharded worlds
/// (CORI selection reads it).
struct SimWorld {
  QaWorld qa;
  std::unique_ptr<qadist::cluster::CostModel> cost;
  std::vector<qadist::cluster::QuestionPlan> plans;
  std::shared_ptr<const qadist::broker::CollectionStats> stats;

  [[nodiscard]] double mean_service_seconds() const;
  [[nodiscard]] double mean_accepted_paragraphs() const;
};

/// Shape of the 120-question bench world (8 uneven sub-collections, wide
/// retrieval so a question accepts a few hundred paragraphs).
QaWorld build_qa_world();

/// The bench world with plans, made bimodal like the paper's mixed
/// TREC-8/TREC-9 question set.
SimWorld build_paper_world();

/// A sharded world — one sub-collection per shard, `questions` questions —
/// with per-shard CORI term statistics, for the fleet workload.
SimWorld build_fleet_world(std::size_t shards, std::size_t questions);

/// RECV chunk size scaled from the paper's optimum (40 of ~880 accepted
/// paragraphs) to this world's accepted-paragraph count.
std::size_t scaled_chunk(const SimWorld& world);

}  // namespace perfbench
