// Pipeline pin: the real Q/A pipeline's whole output over the bench world.
//
// The world is the qa-world of the benchmark harness (corpus seed 1234,
// 1,500 documents, vocabulary 12,000, 250 entities per type; 8 skewed
// sub-collections at size ratio 3, at least 60 paragraphs each, relative
// threshold 0.25, at most 600 accepted; 120 questions at seed 77). Each
// case folds one product of that world into an FNV-1a 64 digest:
//
//  * every answer of Engine::answer (candidate, window, score bits, ref,
//    type) for every question;
//  * every WorkCounters field of those calls;
//  * every cluster::make_plan output (demands as bit patterns, unit
//    counts, byte sizes, answers) — the input of every simulated number;
//  * the InvertedIndex::save bytes of every sub-collection.
//
// A change to tokenization, scoring, answer extraction, work accounting or
// index layout that moves any of these fails the pin, so optimizations of
// the pipeline can prove they are bit-identical.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "cluster/cost_model.hpp"
#include "cluster/plan.hpp"
#include "corpus/generator.hpp"
#include "qa/engine.hpp"

namespace qadist::cluster {
namespace {

struct PinWorld {
  corpus::GeneratedCorpus corpus;
  std::unique_ptr<qa::Engine> engine;
  std::vector<corpus::Question> questions;
};

const PinWorld& pin_world() {
  static const PinWorld world = [] {
    PinWorld w;
    corpus::CorpusConfig cc;
    cc.seed = 1234;
    cc.num_documents = 1500;
    cc.vocabulary_size = 12000;
    cc.entities_per_type = 250;
    w.corpus = corpus::generate_corpus(cc);

    qa::EngineConfig ec;
    ec.subcollection_size_ratio = 3.0;
    ec.min_paragraphs_per_subcollection = 60;
    ec.ordering.relative_threshold = 0.25;
    ec.ordering.max_accepted = 600;
    w.engine = std::make_unique<qa::Engine>(w.corpus, ec);
    w.questions = corpus::generate_questions(w.corpus, 120, /*seed=*/77);
    return w;
  }();
  return world;
}

const std::vector<qa::QAResult>& results() {
  static const std::vector<qa::QAResult> out = [] {
    const auto& world = pin_world();
    std::vector<qa::QAResult> r;
    r.reserve(world.questions.size());
    for (const auto& q : world.questions) r.push_back(world.engine->answer(q));
    return r;
  }();
  return out;
}

/// FNV-1a 64 over a stream of fields.
class Digest {
 public:
  void bytes(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void text(std::string_view s) {
    u64(s.size());
    bytes(s);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void demand(const Demand& d) {
    f64(d.cpu_seconds);
    f64(d.disk_bytes);
  }
  void answer(const qa::Answer& a) {
    text(a.candidate);
    text(a.window);
    f64(a.score);
    u64(a.ref.doc);
    u64(a.ref.index);
    u64(static_cast<std::uint64_t>(a.type));
  }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(PipelinePinTest, EveryAnswer) {
  Digest d;
  std::size_t answers = 0;
  for (const auto& r : results()) {
    d.u64(r.answers.size());
    for (const auto& a : r.answers) d.answer(a);
    answers += r.answers.size();
  }
  EXPECT_GT(answers, 300u);
  EXPECT_EQ(d.hex(), "fd00d52d04f107ce");
}

TEST(PipelinePinTest, EveryWorkCounter) {
  Digest d;
  for (const auto& r : results()) {
    const auto& w = r.work;
    d.u64(w.retrieval.postings_scanned);
    d.u64(w.retrieval.paragraphs_returned);
    d.u64(w.retrieval.bytes_materialized);
    d.u64(w.answer.paragraphs_processed);
    d.u64(w.answer.tokens_scanned);
    d.u64(w.answer.candidates_considered);
    d.u64(w.answer.windows_scored);
    d.u64(w.paragraphs_retrieved);
    d.u64(w.paragraphs_accepted);
  }
  EXPECT_EQ(d.hex(), "5acd6ba9207094f5");
}

TEST(PipelinePinTest, EveryPlan) {
  const auto& world = pin_world();
  const auto cost = CostModel::calibrate(
      *world.engine,
      std::span<const corpus::Question>(world.questions).subspan(0, 40));
  Digest d;
  for (const auto& q : world.questions) {
    const QuestionPlan plan = make_plan(*world.engine, cost, q);
    d.u64(plan.source.id);
    d.text(plan.source.text);
    d.u64(plan.processed.id);
    d.text(plan.processed.text);
    d.u64(static_cast<std::uint64_t>(plan.processed.answer_type));
    d.u64(plan.processed.keywords.size());
    for (const auto& k : plan.processed.keywords) d.text(k);
    d.demand(plan.qp);
    d.u64(plan.question_bytes);
    d.u64(plan.keyword_bytes);
    d.u64(plan.pr_units.size());
    for (const auto& u : plan.pr_units) {
      d.demand(u.demand);
      d.demand(u.ps);
      d.u64(u.paragraphs);
      d.u64(u.bytes_out);
    }
    d.demand(plan.po);
    d.u64(plan.accepted_paragraphs);
    d.u64(plan.ap_units.size());
    for (const auto& u : plan.ap_units) {
      d.demand(u.demand);
      d.u64(u.bytes_in);
      d.u64(u.answer_bytes_out);
    }
    d.demand(plan.answer_sort);
    d.u64(plan.answer_bytes);
    d.u64(plan.answers.size());
    for (const auto& a : plan.answers) d.answer(a);
  }
  EXPECT_EQ(d.hex(), "ce69a35e4cdc8f78");
}

TEST(PipelinePinTest, EveryIndexSaveByte) {
  const auto& engine = *pin_world().engine;
  ASSERT_EQ(engine.subcollection_count(), 8u);
  Digest d;
  for (std::size_t s = 0; s < engine.subcollection_count(); ++s) {
    std::ostringstream out(std::ios::binary);
    engine.index(s).save(out);
    d.text(out.str());
  }
  EXPECT_EQ(d.hex(), "4eb941300184c3e0");
}

}  // namespace
}  // namespace qadist::cluster
