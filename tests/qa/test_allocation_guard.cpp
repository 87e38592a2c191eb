// The stage API allocates per question, not per paragraph. PS keeps a
// paragraph's keyword hits inline in its ScoredParagraph and its keyword
// counts in per-thread scratch; AP reads the hits PS stored, keeps its own
// scratch per thread, and builds candidate text only for the candidates its
// running top could admit. This binary replaces the global operator new to
// count allocations, so it runs on its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "qa/engine.hpp"
#include "support/test_world.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace qadist::qa {
namespace {

using testing::test_world;

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Every test-world question's retrieved paragraphs, scored, then ordered.
struct StagedQuestion {
  ProcessedQuestion question;
  std::vector<RetrievedParagraph> retrieved;
  std::vector<ScoredParagraph> accepted;
};

std::vector<StagedQuestion> stage_questions(const Engine& engine) {
  std::vector<StagedQuestion> staged;
  for (const auto& q : test_world().questions) {
    StagedQuestion s;
    s.question = engine.process_question(q.id, q.text);
    for (std::size_t sub = 0; sub < engine.subcollection_count(); ++sub) {
      auto batch = engine.retrieve(sub, s.question);
      s.retrieved.insert(s.retrieved.end(), batch.begin(), batch.end());
    }
    std::vector<ScoredParagraph> scored;
    for (const auto& p : s.retrieved) {
      scored.push_back(engine.score(s.question, p));
    }
    s.accepted = engine.order(std::move(scored));
    staged.push_back(std::move(s));
  }
  return staged;
}

/// Runs every stage once on this thread, so its per-thread scratch has
/// grown to the test world's largest question and paragraph.
const std::vector<StagedQuestion>& warm_questions() {
  static const std::vector<StagedQuestion> staged = [] {
    const Engine& engine = *test_world().engine;
    auto s = stage_questions(engine);
    for (const auto& q : s) {
      (void)engine.answer_paragraphs(q.question, q.accepted);
    }
    return s;
  }();
  return staged;
}

TEST(AllocationGuardTest, ScoreAllocatesOnlyForHitsBeyondTheInlineCapacity) {
  const Engine& engine = *test_world().engine;
  std::size_t inline_paragraphs = 0;
  std::size_t overflowing = 0;
  for (const auto& q : warm_questions()) {
    for (const auto& p : q.retrieved) {
      const std::size_t before = allocations();
      const ScoredParagraph s = engine.score(q.question, p);
      const std::size_t made = allocations() - before;
      if (s.hits.size() <= ir::KeywordHits::kInline) {
        EXPECT_EQ(made, 0u) << p.ref.doc << "/" << p.ref.index << ": "
                            << s.hits.size() << " hits";
        ++inline_paragraphs;
      } else {
        ++overflowing;
      }
    }
  }
  EXPECT_GT(inline_paragraphs, 1000u);
  EXPECT_GT(overflowing, 0u);  // the heap path runs in the same call
}

// AP over a question's accepted paragraphs allocates only for the answers
// it keeps: their candidate text (held in the running top's slots), their
// window text, the top and the returned list. The same paragraphs offered
// four times over allocate exactly as much, so the count does not grow
// with the number of paragraphs.
TEST(AllocationGuardTest, AnswerParagraphsAllocatesPerQuestion) {
  const Engine& engine = *test_world().engine;
  const std::size_t limit = engine.config().answers.answers_requested;
  // Per kept answer: its candidate text in a top slot, grown at most twice
  // more; its window text and the trimmed copy. Per question: the top's
  // list, grown up to limit, and the returned list.
  const std::size_t per_answer = 3 + 2;
  const std::size_t per_question = 4 + 1;
  std::size_t answered = 0;
  for (const auto& q : warm_questions()) {
    std::vector<ScoredParagraph> repeated;
    for (int copy = 0; copy < 4; ++copy) {
      repeated.insert(repeated.end(), q.accepted.begin(), q.accepted.end());
    }

    std::size_t before = allocations();
    const auto once = engine.answer_paragraphs(q.question, q.accepted);
    const std::size_t made_once = allocations() - before;
    before = allocations();
    const auto four_times = engine.answer_paragraphs(q.question, repeated);
    const std::size_t made_four_times = allocations() - before;

    SCOPED_TRACE(q.question.text);
    ASSERT_EQ(once.size(), four_times.size());
    for (std::size_t i = 0; i < once.size(); ++i) {
      EXPECT_EQ(once[i].candidate, four_times[i].candidate);
      EXPECT_EQ(once[i].window, four_times[i].window);
    }
    EXPECT_EQ(made_four_times, made_once)
        << q.accepted.size() << " paragraphs";
    EXPECT_LE(made_once, per_question + per_answer * limit)
        << q.accepted.size() << " paragraphs, " << once.size() << " answers";
    if (!once.empty()) ++answered;
  }
  EXPECT_GT(answered, 10u);
}

}  // namespace
}  // namespace qadist::qa
