// Engine behaviour across configuration variants: sub-collection counts,
// skewed splits, ordering knobs — the pipeline must stay correct (gold
// answers found) under every deployment shape.

#include <gtest/gtest.h>

#include "qa/engine.hpp"
#include "qa/evaluation.hpp"
#include "support/test_world.hpp"

namespace qadist::qa {
namespace {

using testing::test_world;

class EngineConfigTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineConfigTest, AccuracyHoldsAcrossSubCollectionCounts) {
  const auto& world = test_world();
  EngineConfig cfg;
  cfg.subcollections = GetParam();
  const Engine engine(world.corpus, cfg);
  EXPECT_EQ(engine.subcollection_count(), GetParam());
  const auto result = evaluate(
      engine, std::span<const corpus::Question>(world.questions).subspan(0, 25));
  EXPECT_GE(result.accuracy_at_k(), 0.6)
      << "subcollections=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Splits, EngineConfigTest,
                         ::testing::Values(1u, 2u, 8u, 16u),
                         [](const auto& info) {
                           return std::string("k").append(
                               std::to_string(info.param));
                         });

TEST(EngineConfigTest2, SkewedSplitPreservesAccuracy) {
  const auto& world = test_world();
  EngineConfig cfg;
  cfg.subcollection_size_ratio = 4.0;
  const Engine engine(world.corpus, cfg);
  const auto result = evaluate(
      engine, std::span<const corpus::Question>(world.questions).subspan(0, 25));
  EXPECT_GE(result.accuracy_at_k(), 0.6);
}

TEST(EngineConfigTest2, TighterOrderingAcceptsFewerParagraphs) {
  const auto& world = test_world();
  EngineConfig loose;
  loose.ordering.relative_threshold = 0.2;
  EngineConfig tight;
  tight.ordering.relative_threshold = 0.9;
  const Engine engine_loose(world.corpus, loose);
  const Engine engine_tight(world.corpus, tight);
  const auto& q = world.questions.front();
  EXPECT_LE(engine_tight.answer(q).work.paragraphs_accepted,
            engine_loose.answer(q).work.paragraphs_accepted);
}

TEST(EngineConfigTest2, MaxAcceptedCapsApWork) {
  const auto& world = test_world();
  EngineConfig cfg;
  cfg.ordering.max_accepted = 5;
  cfg.ordering.relative_threshold = 0.0;
  const Engine engine(world.corpus, cfg);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_LE(engine.answer(world.questions[i]).work.paragraphs_accepted, 5u);
  }
}

TEST(EngineConfigTest2, AnswersRequestedLimitsOutput) {
  const auto& world = test_world();
  EngineConfig cfg;
  cfg.answers.answers_requested = 2;
  const Engine engine(world.corpus, cfg);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_LE(engine.answer(world.questions[i]).answers.size(), 2u);
  }
}

TEST(EngineConfigTest2, MinParagraphsControlsRelaxation) {
  const auto& world = test_world();
  EngineConfig narrow;
  narrow.min_paragraphs_per_subcollection = 1;
  EngineConfig wide;
  wide.min_paragraphs_per_subcollection = 50;
  const Engine engine_narrow(world.corpus, narrow);
  const Engine engine_wide(world.corpus, wide);
  const auto& q = world.questions.front();
  EXPECT_LE(engine_narrow.answer(q).work.paragraphs_retrieved,
            engine_wide.answer(q).work.paragraphs_retrieved);
}

}  // namespace
}  // namespace qadist::qa
