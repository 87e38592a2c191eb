// Micro-benchmarks of the Q/A pipeline stages: question processing, NER,
// paragraph scoring, answer processing per paragraph, and the end-to-end
// engine.

#include <benchmark/benchmark.h>

#include "parallel/qa_stages.hpp"
#include "qa/ner.hpp"
#include "support/bench_world.hpp"

namespace {

using namespace qadist;

void BM_QuestionProcessing(benchmark::State& state) {
  const auto& world = bench::bench_world();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& q = world.questions[i++ % world.questions.size()];
    benchmark::DoNotOptimize(world.engine->process_question(q.id, q.text));
  }
}
BENCHMARK(BM_QuestionProcessing);

const std::vector<qa::ScoredParagraph>& sample_paragraphs() {
  static const std::vector<qa::ScoredParagraph> paragraphs = [] {
    const auto& world = bench::bench_world();
    const auto& q = world.questions.front();
    auto pq = world.engine->process_question(q.id, q.text);
    std::vector<qa::ScoredParagraph> scored;
    for (std::size_t sub = 0; sub < world.engine->subcollection_count();
         ++sub) {
      for (auto& p : world.engine->retrieve(sub, pq)) {
        scored.push_back(world.engine->score(pq, std::move(p)));
      }
    }
    return world.engine->order(std::move(scored));
  }();
  return paragraphs;
}

void BM_ParagraphScoring(benchmark::State& state) {
  const auto& world = bench::bench_world();
  const auto& q = world.questions.front();
  const auto pq = world.engine->process_question(q.id, q.text);
  const auto& paragraphs = sample_paragraphs();
  std::size_t i = 0;
  for (auto _ : state) {
    auto copy = paragraphs[i++ % paragraphs.size()].paragraph;
    benchmark::DoNotOptimize(world.engine->score(pq, std::move(copy)));
  }
}
BENCHMARK(BM_ParagraphScoring);

void BM_AnswerProcessingPerParagraph(benchmark::State& state) {
  const auto& world = bench::bench_world();
  const auto& q = world.questions.front();
  const auto pq = world.engine->process_question(q.id, q.text);
  const auto& paragraphs = sample_paragraphs();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.engine->answer_processor().process_paragraph(
        pq, paragraphs[i++ % paragraphs.size()]));
  }
}
BENCHMARK(BM_AnswerProcessingPerParagraph);

void BM_EntityRecognition(benchmark::State& state) {
  const auto& world = bench::bench_world();
  qa::EntityRecognizer ner(world.corpus.gazetteer, world.engine->analyzer());
  const auto& paragraphs = sample_paragraphs();
  std::size_t i = 0;
  std::size_t tokens = 0;
  for (auto _ : state) {
    const auto& text = paragraphs[i++ % paragraphs.size()].paragraph.text;
    benchmark::DoNotOptimize(ner.recognize_text(text));
    tokens += text.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(tokens));
}
BENCHMARK(BM_EntityRecognition);

void BM_AnswerBatchThroughput(benchmark::State& state) {
  const auto& world = bench::bench_world();
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const auto batch =
      std::span<const corpus::Question>(world.questions).subspan(0, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel::answer_batch(*world.engine, batch, pool));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
// Real time: the batch runs on the pool's threads, so main-thread CPU time
// would overstate items/s by orders of magnitude.
BENCHMARK(BM_AnswerBatchThroughput)->Arg(1)->Arg(4)->UseRealTime();

void BM_EndToEndQuestion(benchmark::State& state) {
  const auto& world = bench::bench_world();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.engine->answer(world.questions[i++ % world.questions.size()]));
  }
}
BENCHMARK(BM_EndToEndQuestion);

}  // namespace
