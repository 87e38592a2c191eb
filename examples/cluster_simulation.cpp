// Distributed Q/A on a simulated 12-node cluster: builds a corpus, plans a
// workload, runs the three load-balancing policies of the paper (DNS,
// INTER, DQA) under sustained overload, and prints a Figure-7-style trace
// of one partitioned question.

#include <cstdio>

#include "cluster/system.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "corpus/generator.hpp"
#include "obs/export.hpp"
#include "qa/engine.hpp"

int main() {
  using namespace qadist;
  using cluster::Policy;

  // --- World.
  corpus::CorpusConfig cc;
  cc.seed = 7;
  cc.num_documents = 800;
  const auto world = corpus::generate_corpus(cc);
  qa::EngineConfig ec;
  ec.min_paragraphs_per_subcollection = 40;
  ec.ordering.relative_threshold = 0.3;
  const qa::Engine engine(world, ec);
  const auto questions = corpus::generate_questions(world, 96, /*seed=*/3);

  // --- Cost model + plans: execute the real pipeline once per question.
  const auto cost = cluster::CostModel::calibrate(
      engine, std::span<const corpus::Question>(questions).subspan(0, 24));
  std::vector<cluster::QuestionPlan> plans;
  for (const auto& q : questions) {
    plans.push_back(cluster::make_plan(engine, cost, q));
  }
  // Bimodal workload like the paper's mixed TREC-8/TREC-9 question set:
  // every other question is a light one (48 s vs 94 s average service).
  for (std::size_t i = 0; i < plans.size(); i += 2) {
    cluster::scale_plan(plans[i], 48.0 / 94.0);
  }
  double mean_service = 0.0;
  for (const auto& p : plans) {
    mean_service += p.total_cpu_seconds() +
                    p.total_disk_bytes() /
                        cost.anchors().reference_disk.bytes_per_second;
  }
  mean_service /= static_cast<double>(plans.size());
  std::printf("workload: %zu questions, mean sequential service %.1f s\n",
              plans.size(), mean_service);

  // --- Run the three policies on 12 nodes.
  TextTable table({"Policy", "Throughput (q/min)", "Mean latency (s)",
                   "p95 latency (s)", "Migrations QA/PR/AP"});
  for (Policy policy : {Policy::kDns, Policy::kInter, Policy::kDqa}) {
    simnet::Simulation sim;
    cluster::SystemConfig cfg;
    cfg.nodes = 12;
    cfg.dispatch.policy = policy;
    cfg.partition.ap_chunk = 8;
    cluster::System system(sim, cfg);
    Rng arrivals(42);
    Seconds at = 0.0;
    for (const auto& plan : plans) {
      system.submit(plan, at);
      at += arrivals.uniform(0.0, mean_service / 12.0);
    }
    const auto m = system.run();
    table.add_row({std::string(to_string(policy)),
                   cell(m.throughput_qpm(), 2), cell(m.latencies.mean(), 1),
                   cell(m.latencies.quantile(0.95), 1),
                   std::to_string(m.migrations_qa) + "/" +
                       std::to_string(m.migrations_pr) + "/" +
                       std::to_string(m.migrations_ap)});
  }
  std::printf("\n12-node cluster under sustained 2x overload:\n%s\n",
              table.render().c_str());

  // --- One partitioned question, traced (cf. paper Fig. 7).
  simnet::Simulation sim;
  cluster::SystemConfig cfg;
  cfg.nodes = 4;
  cfg.partition.ap_chunk = 8;
  cluster::System system(sim, cfg);
  obs::Tracer tracer;
  system.set_tracer(&tracer);
  system.submit(plans[0], 0.0);
  (void)system.run();
  std::printf("Execution trace of one question on an idle 4-node system:\n%s",
              obs::render_text(tracer).c_str());
  return 0;
}
