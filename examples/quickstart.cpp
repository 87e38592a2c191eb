// Quickstart: build a synthetic world, index it, and answer questions with
// the sequential Q/A engine — the paper's Table 1 experience in ~40 lines
// of API use.
//
//   $ ./quickstart
//   Q: Where is the Brelor Lighthouse ?
//   A: Port Varen   (score 0.61)  ... the Brelor Lighthouse is located in
//      Port Varen ...

#include <cstdio>

#include "corpus/generator.hpp"
#include "qa/engine.hpp"

int main() {
  using namespace qadist;

  // 1. Generate a document collection with known facts in it. In a real
  //    deployment you would load your own corpus::Collection instead.
  corpus::CorpusConfig config;
  config.seed = 2001;
  config.num_documents = 600;
  const auto world = corpus::generate_corpus(config);
  std::printf("corpus: %zu documents, %zu paragraphs, %zu facts\n",
              world.collection.size(), world.collection.total_paragraphs(),
              world.facts.size());

  // 2. Build the Q/A engine: splits the collection into 8 sub-collections
  //    and indexes each (paper Fig. 1 pipeline).
  const qa::Engine engine(world);

  // 3. Ask questions derived from the corpus' facts (so we can show the
  //    gold answers alongside).
  const auto questions = corpus::generate_questions(world, 6, /*seed=*/5);
  for (const auto& q : questions) {
    const auto result = engine.answer(q);
    std::printf("\nQ%-3u %s\n", q.id, q.text.c_str());
    std::printf("     expected type %s, gold answer: %s\n",
                std::string(corpus::to_string(q.gold_type)).c_str(),
                q.gold_answer.c_str());
    if (result.answers.empty()) {
      std::printf("     (no answer found)\n");
      continue;
    }
    for (std::size_t i = 0; i < result.answers.size() && i < 2; ++i) {
      const auto& a = result.answers[i];
      std::printf("  %zu. %-28s score %.3f\n     ... %s ...\n", i + 1,
                  a.candidate.c_str(), a.score, a.window.c_str());
    }
    // The work each module did, not its host time, so the output is the
    // same on every machine.
    std::printf(
        "     [%zu paragraphs retrieved, %zu accepted | ap %zu tokens, %zu "
        "windows scored]\n",
        result.work.paragraphs_retrieved, result.work.paragraphs_accepted,
        result.work.answer.tokens_scanned, result.work.answer.windows_scored);
  }
  return 0;
}
