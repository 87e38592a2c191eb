// Intra-question parallelism on the host: answers questions with the PR+PS
// and AP stages spread over real threads using the paper's partitioning
// strategies, and shows that the parallel answers match the sequential
// pipeline exactly (the merging/sorting invariant of paper Sec. 3.2).

#include <cstdio>

#include "common/table.hpp"
#include "corpus/generator.hpp"
#include "parallel/qa_stages.hpp"
#include "qa/engine.hpp"

namespace {

/// Equal answer lists: candidate, score, window, paragraph and type.
bool same_answers(const std::vector<qadist::qa::Answer>& a,
                  const std::vector<qadist::qa::Answer>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].candidate != b[i].candidate || a[i].score != b[i].score ||
        a[i].window != b[i].window || a[i].ref != b[i].ref ||
        a[i].type != b[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace qadist;
  using parallel::ExecutorOptions;
  using parallel::Strategy;

  corpus::CorpusConfig cc;
  cc.seed = 99;
  cc.num_documents = 900;
  const auto world = corpus::generate_corpus(cc);
  qa::EngineConfig ec;
  ec.min_paragraphs_per_subcollection = 40;
  ec.ordering.relative_threshold = 0.3;
  const qa::Engine engine(world, ec);
  const auto questions = corpus::generate_questions(world, 12, /*seed=*/1);

  parallel::ThreadPool pool(3);  // RECV's 4 workers include the caller
  ExecutorOptions pr_options;
  pr_options.strategy = Strategy::kRecv;
  pr_options.workers = 4;
  pr_options.chunk_size = 1;  // one sub-collection per claim
  ExecutorOptions ap_options;
  ap_options.strategy = Strategy::kRecv;
  ap_options.workers = 4;
  ap_options.chunk_size = 8;

  TextTable table({"Question", "Answer (parallel)", "Matches sequential?",
                   "Accepted paragraphs"});
  for (const auto& q : questions) {
    const auto sequential = engine.answer(q);
    const auto parallel_result = parallel::answer_parallel(
        engine, q.id, q.text, pool, pr_options, ap_options);

    const bool match =
        same_answers(sequential.answers, parallel_result.answers);
    table.add_row(
        {q.text.substr(0, 44),
         parallel_result.answers.empty()
             ? "(none)"
             : parallel_result.answers.front().candidate,
         match ? "yes" : "NO",
         std::to_string(parallel_result.work.paragraphs_accepted)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "Every row must say 'yes': partitioning + answer merging/sorting is "
      "result-transparent regardless of thread interleaving.\n");
  return 0;
}
