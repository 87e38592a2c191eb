#include "parallel/qa_stages.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <unordered_map>

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

/// One worker's answers, deduplicated by candidate and cut to the best
/// `limit` candidates as they arrive.
///
/// Each candidate keeps its best answer under sort_answers' first-seen
/// rule: a higher score wins, and an equal score from an earlier accepted
/// paragraph wins (the sequential pipeline meets that paragraph first).
/// `top_` holds the best `limit` candidates by (score desc, candidate asc),
/// exactly: a candidate's key only rises, so one that drops out re-enters
/// only through a later, better answer of its own.
///
/// Offering every worker's top to one more TopAnswers yields the global
/// top `limit`, with the answers the sequential pipeline keeps: a candidate
/// missing from its best worker's top has `limit` distinct candidates ahead
/// of it there, and therefore also globally.
class TopAnswers {
 public:
  struct Ranked {
    qa::Answer answer;
    std::size_t paragraph = 0;  ///< index among the accepted paragraphs
  };

  explicit TopAnswers(std::size_t limit) : limit_(limit) {}

  void offer(qa::Answer&& answer, std::size_t paragraph) {
    if (limit_ == 0) return;
    const auto [it, fresh] =
        best_.try_emplace(answer.candidate, Best{answer.score, paragraph});
    if (!fresh) {
      Best& best = it->second;
      if (answer.score < best.score ||
          (answer.score == best.score && paragraph >= best.paragraph)) {
        return;
      }
      best = Best{answer.score, paragraph};
    }
    auto pos = std::find_if(top_.begin(), top_.end(), [&](const Ranked& r) {
      return r.answer.candidate == answer.candidate;
    });
    if (pos == top_.end()) {
      if (top_.size() == limit_) {
        if (!ahead(answer, top_.back().answer)) return;
        top_.pop_back();
      }
      pos = top_.emplace(top_.end());
    }
    *pos = Ranked{std::move(answer), paragraph};
    // Only this candidate's key rose: move it up to its place.
    for (; pos != top_.begin() && ahead(pos->answer, std::prev(pos)->answer);
         --pos) {
      std::iter_swap(pos, std::prev(pos));
    }
  }

  /// The top, best first.
  [[nodiscard]] std::vector<Ranked> take() { return std::move(top_); }

 private:
  struct Best {
    double score;
    std::size_t paragraph;
  };

  static bool ahead(const qa::Answer& a, const qa::Answer& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.candidate < b.candidate;
  }

  std::unordered_map<std::string, Best> best_;
  std::vector<Ranked> top_;  // sorted by ahead()
  std::size_t limit_;
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
  std::vector<Padded<TopAnswers>> tops(options.workers, {TopAnswers(limit)});

  PartitionedExecutor executor(pool);
  const double t0 = now_seconds();
  result.report = executor.run(
      paragraphs.size(), options, [&](std::size_t item, std::size_t worker) {
        auto& top = tops[worker].value;
        for (auto& answer :
             engine.answer_paragraph(question, paragraphs[item])) {
          top.offer(std::move(answer), item);
        }
      });
  // Answer merging + answer sorting (paper Fig. 3): the workers' tops, at
  // most workers x limit answers, merge by the same rule into
  // sort_answers' list, whichever worker produced what.
  TopAnswers merged(limit);
  for (auto& top : tops) {
    for (auto& ranked : top.value.take()) {
      merged.offer(std::move(ranked.answer), ranked.paragraph);
    }
  }
  for (auto& ranked : merged.take()) {
    result.answers.push_back(std::move(ranked.answer));
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
