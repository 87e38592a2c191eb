#include "qa/engine.hpp"

#include <chrono>

#include "common/check.hpp"

namespace qadist::qa {

namespace {

/// Monotonic wall-clock seconds for module timing.
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ModuleTimes& ModuleTimes::operator+=(const ModuleTimes& other) {
  qp += other.qp;
  pr += other.pr;
  ps += other.ps;
  po += other.po;
  ap += other.ap;
  return *this;
}

Engine::Engine(const corpus::GeneratedCorpus& corpus, EngineConfig config)
    : config_(config),
      question_processor_(analyzer_),
      retriever_(corpus.collection, config.min_paragraphs_per_subcollection),
      scorer_(config.scoring),
      orderer_(config.ordering),
      answer_processor_(config.answers),
      analysis_(corpus::SubCollection(
                    &corpus.collection, 0,
                    static_cast<corpus::DocId>(corpus.collection.size())),
                analyzer_, EntityRecognizer(corpus.gazetteer, analyzer_)) {
  QADIST_CHECK(config.subcollections >= 1);
  subcollections_ = corpus::split_collection_skewed(
      corpus.collection, config.subcollections,
      config.subcollection_size_ratio);
  indexes_.reserve(subcollections_.size());
  for (const auto& sub : subcollections_) {
    indexes_.push_back(ir::InvertedIndex::build(sub, analysis_.text()));
  }
}

ProcessedQuestion Engine::process_question(std::uint32_t id,
                                           const std::string& text) const {
  return analysis_.resolve(question_processor_.process(id, text));
}

std::vector<RetrievedParagraph> Engine::retrieve(
    std::size_t subcollection, const ProcessedQuestion& question,
    RetrievalWork* work) const {
  QADIST_CHECK(subcollection < indexes_.size());
  return retriever_.retrieve(indexes_[subcollection], question, work);
}

ScoredParagraph Engine::score(const ProcessedQuestion& question,
                              RetrievedParagraph paragraph) const {
  return scorer_.score(question, std::move(paragraph), analysis_);
}

std::vector<ScoredParagraph> Engine::order(
    std::vector<ScoredParagraph> paragraphs) const {
  return orderer_.order_and_filter(std::move(paragraphs));
}

std::vector<Answer> Engine::answer_paragraph(const ProcessedQuestion& question,
                                             const ScoredParagraph& paragraph,
                                             AnswerWork* work) const {
  return answer_processor_.process_paragraph(question, paragraph, analysis_,
                                             work);
}

void Engine::offer_answers(const ProcessedQuestion& question,
                           const ScoredParagraph& paragraph, std::size_t index,
                           TopAnswers<CandidateAnswer>& top,
                           AnswerWork* work) const {
  answer_processor_.offer_candidates(question, paragraph, index, analysis_,
                                     top, work);
}

Answer Engine::build_answer(CandidateAnswer candidate) const {
  return answer_processor_.answer(std::move(candidate), analysis_);
}

std::vector<Answer> Engine::answer_paragraphs(
    const ProcessedQuestion& question,
    std::span<const ScoredParagraph> paragraphs, AnswerWork* work) const {
  return answer_processor_.process(question, paragraphs, analysis_, work);
}

QAResult Engine::answer(std::uint32_t id, const std::string& text) const {
  QAResult result;

  double t0 = now_seconds();
  result.question = process_question(id, text);
  result.times.qp = now_seconds() - t0;

  t0 = now_seconds();
  std::vector<RetrievedParagraph> retrieved;
  for (std::size_t sub = 0; sub < indexes_.size(); ++sub) {
    auto batch = retrieve(sub, result.question, &result.work.retrieval);
    retrieved.insert(retrieved.end(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
  }
  result.work.paragraphs_retrieved = retrieved.size();
  result.times.pr = now_seconds() - t0;

  t0 = now_seconds();
  std::vector<ScoredParagraph> scored;
  scored.reserve(retrieved.size());
  for (auto& p : retrieved) {
    scored.push_back(score(result.question, std::move(p)));
  }
  result.times.ps = now_seconds() - t0;

  t0 = now_seconds();
  auto accepted = order(std::move(scored));
  result.work.paragraphs_accepted = accepted.size();
  result.times.po = now_seconds() - t0;

  t0 = now_seconds();
  result.answers =
      answer_paragraphs(result.question, accepted, &result.work.answer);
  result.times.ap = now_seconds() - t0;

  return result;
}

const ir::InvertedIndex& Engine::index(std::size_t sub) const {
  QADIST_CHECK(sub < indexes_.size());
  return indexes_[sub];
}

const corpus::SubCollection& Engine::subcollection(std::size_t sub) const {
  QADIST_CHECK(sub < subcollections_.size());
  return subcollections_[sub];
}

}  // namespace qadist::qa
