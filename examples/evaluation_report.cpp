// TREC-style evaluation of the Q/A pipeline: generates a world, answers
// its question set, and prints the accuracy/MRR report (the qualitative
// side FALCON was ranked first on: 66.4% short / 86.1% long correct in
// TREC-9), broken down by answer type.

#include <cstdio>
#include <map>

#include "common/table.hpp"
#include "qa/evaluation.hpp"

int main() {
  using namespace qadist;

  corpus::CorpusConfig cc;
  cc.seed = 404;
  cc.num_documents = 800;
  const auto world = corpus::generate_corpus(cc);
  const qa::Engine engine(world);
  const auto questions = corpus::generate_questions(world, 150, /*seed=*/6);

  // Overall metrics.
  const auto overall = qa::evaluate(engine, questions);
  std::printf(
      "overall: %zu questions, %zu answered, accuracy@1 %.1f%%, accuracy@%zu "
      "%.1f%%, MRR %.3f\n\n",
      overall.questions, overall.answered, 100.0 * overall.accuracy_at_1(),
      engine.config().answers.answers_requested,
      100.0 * overall.accuracy_at_k(), overall.mrr);

  // Per-answer-type breakdown.
  std::map<corpus::EntityType, std::vector<corpus::Question>> by_type;
  for (const auto& q : questions) by_type[q.gold_type].push_back(q);

  TextTable table({"Answer type", "Questions", "Accuracy@1", "Accuracy@k",
                   "MRR"});
  for (const auto& [type, subset] : by_type) {
    const auto r = qa::evaluate(
        engine, std::span<const corpus::Question>(subset));
    table.add_row({std::string(corpus::to_string(type)),
                   std::to_string(r.questions),
                   cell_percent(r.accuracy_at_1()),
                   cell_percent(r.accuracy_at_k()), cell(r.mrr, 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Reference bar: FALCON answered 66.4%% (short) / 86.1%% (long) of "
      "TREC-9 questions; a closed synthetic world should sit above that.\n");
  return 0;
}
