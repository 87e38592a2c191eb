#include "parallel/qa_stages.hpp"

#include <gtest/gtest.h>

#include "support/test_world.hpp"

namespace qadist::parallel {
namespace {

using testing::test_world;

ExecutorOptions recv_options(std::size_t workers, std::size_t chunk = 10) {
  ExecutorOptions o;
  o.strategy = Strategy::kRecv;
  o.workers = workers;
  o.chunk_size = chunk;
  return o;
}

/// The sequential PR + PS stages, sub-collection by sub-collection.
std::vector<qa::ScoredParagraph> scored_paragraphs(
    const qa::Engine& engine, const qa::ProcessedQuestion& pq) {
  std::vector<qa::ScoredParagraph> scored;
  for (std::size_t sub = 0; sub < engine.subcollection_count(); ++sub) {
    for (auto& p : engine.retrieve(sub, pq)) {
      scored.push_back(engine.score(pq, std::move(p)));
    }
  }
  return scored;
}

/// The sequential PR + PS + PO stages: AP's input.
std::vector<qa::ScoredParagraph> accepted_paragraphs(
    const qa::Engine& engine, const qa::ProcessedQuestion& pq) {
  return engine.order(scored_paragraphs(engine, pq));
}

/// Equal answer lists: every field of every answer, scores bit for bit.
void expect_same_answers(const std::vector<qa::Answer>& actual,
                         const std::vector<qa::Answer>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("answer " + std::to_string(i));
    EXPECT_EQ(actual[i].candidate, expected[i].candidate);
    EXPECT_EQ(actual[i].score, expected[i].score);
    EXPECT_EQ(actual[i].window, expected[i].window);
    EXPECT_EQ(actual[i].ref.doc, expected[i].ref.doc);
    EXPECT_EQ(actual[i].ref.index, expected[i].ref.index);
    EXPECT_EQ(actual[i].type, expected[i].type);
  }
}

class QaStagesTest : public ::testing::TestWithParam<Strategy> {};

// Ties included: of two equal-scoring answers for a candidate, every
// strategy, width and chunk size keeps the one the sequential pipeline
// meets first.
TEST_P(QaStagesTest, ParallelApMatchesSequential) {
  const auto& world = test_world();
  const auto& engine = *world.engine;
  ThreadPool pool(4);

  for (const auto& q : world.questions) {
    const auto sequential = engine.answer(q);
    const auto pq = engine.process_question(q.id, q.text);
    const auto accepted = accepted_paragraphs(engine, pq);
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      for (std::size_t chunk : {1u, 5u, 16u}) {
        SCOPED_TRACE(q.text + " workers " + std::to_string(workers) +
                     " chunk " + std::to_string(chunk));
        ExecutorOptions options;
        options.strategy = GetParam();
        options.workers = workers;
        options.chunk_size = chunk;
        expect_same_answers(
            parallel_answer_processing(engine, pq, accepted, pool, options)
                .answers,
            sequential.answers);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, QaStagesTest,
                         ::testing::Values(Strategy::kSend, Strategy::kIsend,
                                           Strategy::kRecv),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// Also over uneven sub-collections: PR units go out largest first, yet the
// merged paragraphs stay in sub-collection order.
TEST(QaStagesTest2, ParallelRetrievalMatchesSequentialSet) {
  const auto& world = test_world();
  qa::EngineConfig uneven;
  uneven.subcollection_size_ratio = 3.0;
  const qa::Engine skewed(world.corpus, uneven);
  ThreadPool pool(3);

  const qa::Engine* engines[] = {world.engine.get(), &skewed};
  for (const qa::Engine* engine : engines) {
    for (const auto& q : world.questions) {
      const auto pq = engine->process_question(q.id, q.text);
      const auto sequential = scored_paragraphs(*engine, pq);
      for (Strategy s : {Strategy::kSend, Strategy::kRecv}) {
        ExecutorOptions options = recv_options(4, 1);
        options.strategy = s;
        const auto parallel =
            parallel_retrieve_and_score(*engine, pq, pool, options);
        ASSERT_EQ(parallel.paragraphs.size(), sequential.size()) << q.text;
        for (std::size_t i = 0; i < sequential.size(); ++i) {
          EXPECT_EQ(parallel.paragraphs[i].paragraph.ref,
                    sequential[i].paragraph.ref);
          EXPECT_EQ(parallel.paragraphs[i].score, sequential[i].score);
        }
      }
    }
  }
}

TEST(QaStagesTest2, AnswerParallelEndToEndMatchesSequential) {
  const auto& world = test_world();
  const auto& engine = *world.engine;
  ThreadPool pool(4);

  const auto& q = world.questions.at(2);
  const auto sequential = engine.answer(q);
  const auto parallel = answer_parallel(engine, q.id, q.text, pool,
                                        recv_options(4, 1), recv_options(4, 8));
  expect_same_answers(parallel.answers, sequential.answers);
  EXPECT_EQ(parallel.work.paragraphs_accepted,
            sequential.work.paragraphs_accepted);
}

TEST(QaStagesTest2, AnswerBatchMatchesSequentialPerQuestion) {
  const auto& world = test_world();
  const auto& engine = *world.engine;
  ThreadPool pool(4);
  const auto batch = std::span<const corpus::Question>(world.questions)
                         .subspan(0, 12);
  const auto results = answer_batch(engine, batch, pool);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto sequential = engine.answer(batch[i]);
    ASSERT_EQ(results[i].answers.size(), sequential.answers.size())
        << batch[i].text;
    for (std::size_t k = 0; k < sequential.answers.size(); ++k) {
      EXPECT_EQ(results[i].answers[k].candidate,
                sequential.answers[k].candidate);
    }
    EXPECT_EQ(results[i].question.id, batch[i].id);
  }
}

TEST(QaStagesTest2, AnswerBatchEmptyInput) {
  const auto& world = test_world();
  ThreadPool pool(2);
  EXPECT_TRUE(
      answer_batch(*world.engine, std::span<const corpus::Question>{}, pool)
          .empty());
}

TEST(QaStagesTest2, ApSurvivesWorkerFailure) {
  const auto& world = test_world();
  const auto& engine = *world.engine;
  ThreadPool pool(4);

  const auto& q = world.questions.at(3);
  const auto sequential = engine.answer(q);

  const auto pq = engine.process_question(q.id, q.text);
  const auto accepted = accepted_paragraphs(engine, pq);

  auto options = recv_options(4, 3);
  options.failures = {FailureSpec{2, 1}};
  const auto parallel =
      parallel_answer_processing(engine, pq, accepted, pool, options);
  expect_same_answers(parallel.answers, sequential.answers);
}

}  // namespace
}  // namespace qadist::parallel
