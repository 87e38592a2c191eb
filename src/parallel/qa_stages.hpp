#pragma once

#include <span>

#include "common/units.hpp"
#include "parallel/executor.hpp"
#include "qa/engine.hpp"

namespace qadist::parallel {

/// Result of a host-parallel PR(+PS) stage: the scored paragraphs from all
/// sub-collections, ready for the centralized PO module.
struct ParallelRetrievalResult {
  std::vector<qa::ScoredParagraph> paragraphs;
  Seconds wall = 0.0;
  ExecutorReport report;
};

/// Runs paragraph retrieval + paragraph scoring across host threads, one
/// item per sub-collection, largest first — the paper's "Paragraph
/// Retrieval (k) → Paragraph Scoring (k)" pipeline legs (Fig. 3), ending
/// at the paragraph merging module (here: concatenation in sub-collection
/// order; deterministic ordering is left to PO). ISEND is rejected:
/// document collections are not rank-sorted, so the paper deems ISEND
/// inapplicable to PR (Sec. 6.3).
[[nodiscard]] ParallelRetrievalResult parallel_retrieve_and_score(
    const qa::Engine& engine, const qa::ProcessedQuestion& question,
    ThreadPool& pool, const ExecutorOptions& options);

/// Result of a host-parallel AP stage.
struct ParallelAnswerResult {
  std::vector<qa::Answer> answers;
  Seconds wall = 0.0;
  ExecutorReport report;
};

/// Runs answer processing across host threads, one item per accepted
/// paragraph, using any of SEND/ISEND/RECV; each worker keeps its best
/// `answers_requested` candidates as it goes, and the workers' lists are
/// merged afterwards (the answer merging + answer sorting modules of
/// Fig. 3). The final answer list is identical to the sequential
/// pipeline's in every field, ties included, regardless of strategy or
/// thread interleaving — tested as an invariant.
[[nodiscard]] ParallelAnswerResult parallel_answer_processing(
    const qa::Engine& engine, const qa::ProcessedQuestion& question,
    std::span<const qa::ScoredParagraph> paragraphs, ThreadPool& pool,
    const ExecutorOptions& options);

/// Full question answering with host-parallel PR+PS and AP stages and
/// centralized QP/PO. Stage timings are reported like Engine::answer's.
[[nodiscard]] qa::QAResult answer_parallel(const qa::Engine& engine,
                                           std::uint32_t id,
                                           const std::string& text,
                                           ThreadPool& pool,
                                           const ExecutorOptions& pr_options,
                                           const ExecutorOptions& ap_options);

/// Inter-question parallelism on the host: answers a whole batch with one
/// question per pool task (each question runs the sequential pipeline).
/// This is the throughput side of the paper's design — questions are
/// independent, so the engine's const stage API shares one index across
/// all workers. Results are returned in input order.
[[nodiscard]] std::vector<qa::QAResult> answer_batch(
    const qa::Engine& engine, std::span<const corpus::Question> questions,
    ThreadPool& pool);

}  // namespace qadist::parallel
