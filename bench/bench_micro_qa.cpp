// Micro-benchmarks of the Q/A pipeline stages: question processing, NER,
// paragraph scoring, answer processing per paragraph, the end-to-end
// engine with its per-module split, and engine construction (where the
// question-independent paragraph analysis is paid for).

#include <benchmark/benchmark.h>

#include "parallel/qa_stages.hpp"
#include "qa/ner.hpp"
#include "qa/paragraph_analysis.hpp"
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

/// The first bench-world question and its accepted paragraphs, scored
/// against that question (AP reads the keyword hits PS stored in them).
struct Sample {
  qa::ProcessedQuestion question;
  std::vector<qa::ScoredParagraph> paragraphs;
};

const Sample& sample() {
  static const Sample sample = [] {
    const auto& world = bench::bench_world();
    const auto& q = world.questions.front();
    Sample s;
    s.question = world.engine->process_question(q.id, q.text);
    std::vector<qa::ScoredParagraph> scored;
    for (std::size_t sub = 0; sub < world.engine->subcollection_count();
         ++sub) {
      for (auto& p : world.engine->retrieve(sub, s.question)) {
        scored.push_back(world.engine->score(s.question, std::move(p)));
      }
    }
    s.paragraphs = world.engine->order(std::move(scored));
    return s;
  }();
  return sample;
}

void BM_ParagraphScoring(benchmark::State& state) {
  const auto& world = bench::bench_world();
  const auto& [pq, paragraphs] = sample();
  std::size_t i = 0;
  for (auto _ : state) {
    auto copy = paragraphs[i++ % paragraphs.size()].paragraph;
    benchmark::DoNotOptimize(world.engine->score(pq, std::move(copy)));
  }
}
BENCHMARK(BM_ParagraphScoring);

void BM_AnswerProcessingPerParagraph(benchmark::State& state) {
  const auto& world = bench::bench_world();
  const auto& [pq, paragraphs] = sample();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.engine->answer_paragraph(
        pq, paragraphs[i++ % paragraphs.size()]));
  }
}
BENCHMARK(BM_AnswerProcessingPerParagraph);

// NER over one analyzed paragraph: the cost engine construction pays once
// per paragraph (BM_CorpusAnalysis) instead of AP paying it per question.
void BM_EntityRecognition(benchmark::State& state) {
  const auto& world = bench::bench_world();
  qa::EntityRecognizer ner(world.corpus.gazetteer, world.engine->analyzer());
  const auto& paragraphs = sample().paragraphs;
  std::size_t i = 0;
  std::size_t tokens = 0;
  for (auto _ : state) {
    const auto& paragraph = paragraphs[i++ % paragraphs.size()].paragraph;
    const auto analyzed = world.engine->analysis().of(paragraph);
    benchmark::DoNotOptimize(ner.recognize(*analyzed.lexicon, analyzed.tokens));
    tokens += paragraph.text.size();
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

// Publishes the per-question module split (qa::ModuleTimes) of the same
// runs as counters: qp_us, pr_us, ps_us, po_us and ap_us.
void BM_EndToEndQuestion(benchmark::State& state) {
  const auto& world = bench::bench_world();
  qa::ModuleTimes times;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto result =
        world.engine->answer(world.questions[i++ % world.questions.size()]);
    times += result.times;
    benchmark::DoNotOptimize(result);
  }
  const auto per_question_us = [&](Seconds s) {
    return benchmark::Counter(1e6 * s, benchmark::Counter::kAvgIterations);
  };
  state.counters["qp_us"] = per_question_us(times.qp);
  state.counters["pr_us"] = per_question_us(times.pr);
  state.counters["ps_us"] = per_question_us(times.ps);
  state.counters["po_us"] = per_question_us(times.po);
  state.counters["ap_us"] = per_question_us(times.ap);
}
BENCHMARK(BM_EndToEndQuestion);

// The question-independent analysis of every paragraph (tokens, norms,
// entity mentions) that engine construction runs once.
void BM_CorpusAnalysis(benchmark::State& state) {
  const auto& world = bench::bench_world();
  const auto& c = world.corpus.collection;
  const corpus::SubCollection all(&c, 0, static_cast<corpus::DocId>(c.size()));
  const ir::Analyzer analyzer;
  const qa::EntityRecognizer ner(world.corpus.gazetteer, analyzer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qa::CorpusAnalysis(all, analyzer, ner));
  }
}
BENCHMARK(BM_CorpusAnalysis)->Unit(benchmark::kMillisecond);

// Engine construction: the analysis plus every sub-collection index.
void BM_EngineConstruction(benchmark::State& state) {
  const auto& world = bench::bench_world();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qa::Engine(world.corpus, world.engine->config()));
  }
}
BENCHMARK(BM_EngineConstruction)->Unit(benchmark::kMillisecond);

}  // namespace
