#include "parallel/qa_stages.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/check.hpp"

namespace qadist::parallel {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A per-worker (or per-unit) buffer alone on its cache line.
template <typename T>
struct alignas(64) Padded {
  T value;
};

}  // namespace

ParallelRetrievalResult parallel_retrieve_and_score(
    const qa::Engine& engine, const qa::ProcessedQuestion& question,
    ThreadPool& pool, const ExecutorOptions& options) {
  QADIST_CHECK(options.strategy != Strategy::kIsend,
               << "ISEND does not apply to PR: collections are unranked "
                  "(paper Sec. 6.3)");
  ParallelRetrievalResult result;
  const std::size_t subs = engine.subcollection_count();
  std::vector<Padded<std::vector<qa::ScoredParagraph>>> buffers(subs);
  // PR units go out largest first: a sub-collection's PR+PS cost grows
  // with its size, and the largest one started last bounds the stage.
  // The sort is stable, so an even split keeps index order.
  std::vector<std::size_t> units(subs);
  std::iota(units.begin(), units.end(), std::size_t{0});
  std::stable_sort(units.begin(), units.end(),
                   [&](std::size_t a, std::size_t b) {
                     return engine.subcollection(a).size() >
                            engine.subcollection(b).size();
                   });

  PartitionedExecutor executor(pool);
  const double t0 = now_seconds();
  result.report = executor.run(
      subs, options, [&](std::size_t unit, std::size_t /*worker*/) {
        const std::size_t sub = units[unit];
        auto retrieved = engine.retrieve(sub, question);
        auto& out = buffers[sub].value;
        out.reserve(retrieved.size());
        for (auto& p : retrieved) {
          out.push_back(engine.score(question, std::move(p)));
        }
      });
  // Paragraph merging: concatenate in sub-collection order so the merged
  // set is independent of worker interleaving.
  std::size_t merged = 0;
  for (const auto& buffer : buffers) merged += buffer.value.size();
  result.paragraphs.reserve(merged);
  for (auto& buffer : buffers) {
    result.paragraphs.insert(result.paragraphs.end(),
                             std::make_move_iterator(buffer.value.begin()),
                             std::make_move_iterator(buffer.value.end()));
  }
  result.wall = now_seconds() - t0;
  return result;
}

ParallelAnswerResult parallel_answer_processing(
    const qa::Engine& engine, const qa::ProcessedQuestion& question,
    std::span<const qa::ScoredParagraph> paragraphs, ThreadPool& pool,
    const ExecutorOptions& options) {
  ParallelAnswerResult result;
  const std::size_t limit = engine.config().answers.answers_requested;
  using Top = qa::TopAnswers<qa::CandidateAnswer>;
  // One running top per worker; a candidate gets its text only if its
  // worker's top could admit it.
  std::vector<Padded<Top>> tops(options.workers, {Top(limit)});

  PartitionedExecutor executor(pool);
  const double t0 = now_seconds();
  result.report = executor.run(
      paragraphs.size(), options, [&](std::size_t item, std::size_t worker) {
        engine.offer_answers(question, paragraphs[item], item,
                             tops[worker].value);
      });
  // Answer merging + answer sorting (paper Fig. 3): the workers' tops, at
  // most workers x limit candidates, merge by the same rule into the
  // sequential pipeline's list, whichever worker produced what; only the
  // answers kept get their window text.
  Top merged(limit);
  for (auto& top : tops) {
    for (const auto& ranked : top.value.take()) {
      merged.offer(ranked.answer, ranked.paragraph);
    }
  }
  for (auto& ranked : merged.take()) {
    result.answers.push_back(engine.build_answer(std::move(ranked.answer)));
  }
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
