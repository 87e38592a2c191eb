#include "parallel/qa_stages.hpp"

#include <chrono>

#include "common/check.hpp"

namespace qadist::parallel {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ParallelRetrievalResult parallel_retrieve_and_score(
    const qa::Engine& engine, const qa::ProcessedQuestion& question,
    ThreadPool& pool, const ExecutorOptions& options) {
  QADIST_CHECK(options.strategy != Strategy::kIsend,
               << "ISEND does not apply to PR: collections are unranked "
                  "(paper Sec. 6.3)");
  ParallelRetrievalResult result;
  const std::size_t subs = engine.subcollection_count();
  std::vector<std::vector<qa::ScoredParagraph>> buffers(subs);

  PartitionedExecutor executor(pool);
  const double t0 = now_seconds();
  result.report = executor.run(
      subs, options, [&](std::size_t sub, std::size_t /*worker*/) {
        auto retrieved = engine.retrieve(sub, question);
        auto& out = buffers[sub];
        out.reserve(retrieved.size());
        for (auto& p : retrieved) {
          out.push_back(engine.score(question, std::move(p)));
        }
      });
  // Paragraph merging: concatenate in sub-collection order so the merged
  // set is independent of worker interleaving.
  for (auto& buffer : buffers) {
    result.paragraphs.insert(result.paragraphs.end(),
                             std::make_move_iterator(buffer.begin()),
                             std::make_move_iterator(buffer.end()));
  }
  result.wall = now_seconds() - t0;
  return result;
}

ParallelAnswerResult parallel_answer_processing(
    const qa::Engine& engine, const qa::ProcessedQuestion& question,
    std::span<const qa::ScoredParagraph> paragraphs, ThreadPool& pool,
    const ExecutorOptions& options) {
  ParallelAnswerResult result;
  std::vector<std::vector<qa::Answer>> buffers(options.workers);

  PartitionedExecutor executor(pool);
  const double t0 = now_seconds();
  result.report = executor.run(
      paragraphs.size(), options, [&](std::size_t item, std::size_t worker) {
        auto answers = engine.answer_paragraph(question, paragraphs[item]);
        auto& out = buffers[worker];
        out.insert(out.end(), std::make_move_iterator(answers.begin()),
                   std::make_move_iterator(answers.end()));
      });
  // Answer merging + answer sorting (paper Fig. 3): global deterministic
  // order regardless of which worker produced what.
  std::vector<qa::Answer> merged;
  for (auto& buffer : buffers) {
    merged.insert(merged.end(), std::make_move_iterator(buffer.begin()),
                  std::make_move_iterator(buffer.end()));
  }
  result.answers = qa::sort_answers(
      std::move(merged), engine.config().answers.answers_requested);
  result.wall = now_seconds() - t0;
  return result;
}

std::vector<qa::QAResult> answer_batch(
    const qa::Engine& engine, std::span<const corpus::Question> questions,
    ThreadPool& pool) {
  std::vector<qa::QAResult> results(questions.size());
  for (std::size_t i = 0; i < questions.size(); ++i) {
    pool.submit([&engine, &questions, &results, i] {
      results[i] = engine.answer(questions[i]);
    });
  }
  pool.wait_idle();
  return results;
}

qa::QAResult answer_parallel(const qa::Engine& engine, std::uint32_t id,
                             const std::string& text, ThreadPool& pool,
                             const ExecutorOptions& pr_options,
                             const ExecutorOptions& ap_options) {
  qa::QAResult result;

  double t0 = now_seconds();
  result.question = engine.process_question(id, text);
  result.times.qp = now_seconds() - t0;

  auto retrieval =
      parallel_retrieve_and_score(engine, result.question, pool, pr_options);
  // PR and PS ran fused on the workers; attribute the fused wall time to PR
  // (PS is ~2% of it, paper Table 2) and report PS as merged.
  result.times.pr = retrieval.wall;
  result.times.ps = 0.0;
  result.work.paragraphs_retrieved = retrieval.paragraphs.size();

  t0 = now_seconds();
  auto accepted = engine.order(std::move(retrieval.paragraphs));
  result.work.paragraphs_accepted = accepted.size();
  result.times.po = now_seconds() - t0;

  auto answers = parallel_answer_processing(engine, result.question, accepted,
                                            pool, ap_options);
  result.times.ap = answers.wall;
  result.answers = std::move(answers.answers);
  return result;
}

}  // namespace qadist::parallel
