#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "cluster/system.hpp"
#include "cluster/workload.hpp"
#include "common/check.hpp"
#include "obs/critical_path.hpp"
#include "obs/span.hpp"
#include "pace.hpp"
#include "parallel/qa_stages.hpp"
#include "parallel/thread_pool.hpp"
#include "qa/evaluation.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload/driver.hpp"
#include "world.hpp"

namespace perfbench {

using namespace qadist;

namespace {

// ---------------------------------------------------------------------------
// Workload constants. They are part of the benchmark's definition: changing
// one changes what every metric measures.

constexpr std::size_t kMinLatencySamples = 1000;  // p99 has 10 beyond it
constexpr double kMaxMeasureSeconds = 150.0;      // hard cap per run
// sim_us_per_question: per stream, the median of at least kMinCostRuns
// paced runs of its first kCostQuestions arrivals (short runs, so the
// pacing samples follow the host closely), summed over the streams.
constexpr std::size_t kMinCostRuns = 5;
constexpr std::size_t kCostQuestions = 250;

constexpr std::size_t kPaperNodes = 12;
constexpr std::size_t kPaperBurst = 1000;   // questions per high-load run
constexpr std::size_t kPaperBurstSeeds = 3;
constexpr double kStationaryLo = 0.1;       // completions cut as warm-up
constexpr double kStationaryHi = 0.9;       // completions cut as drain
// Open loop: arrival rate = load x nodes / mean plan service time.
constexpr double kPaperLoad = 0.4;
constexpr std::size_t kPaperStreams = 5;  // latency: the streams pooled
constexpr std::size_t kPaperStreamQuestions = 1000;

constexpr std::size_t kFleetNodes = 128;
constexpr std::size_t kFleetShards = 128;
constexpr std::size_t kFleetQuestions = 64;
constexpr std::size_t kFleetClones = 32;  // population = clones x questions
constexpr double kFleetZipf = 0.6;
constexpr double kFleetLoad = 0.3;
constexpr std::size_t kFleetStreams = 5;
constexpr std::size_t kFleetStreamQuestions = 1000;
constexpr std::size_t kFleetAnswerCache = 4;     // entries per node
constexpr std::size_t kFleetParagraphCache = 16;
constexpr sched::NodeId kFleetGrayNode = 5;

constexpr std::size_t kApChunk = 16;  // host-parallel AP RECV chunk
constexpr std::size_t kPaceBlock = 30;  // questions per pace block

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 of (seed, stream): independent per-phase seeds from the one
/// workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The order one pass answers the question set in: a Fisher-Yates shuffle
/// driven by (seed, pass), so every seed is a different question stream.
std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed,
                                    std::size_t pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = derive_seed(seed, 1000 + pass);
  for (std::size_t i = n; i > 1; --i) {
    state = derive_seed(state, i);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  return std::string("\"") + s + "\"";
}

/// Appends `item` to a JSON list under construction ("[" so far, or "[a").
void append_item(std::string& list, const std::string& item) {
  if (list.size() > 1) list += ',';
  list += item;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

std::size_t host_workers() {
  const std::size_t n = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n, 1, 4);
}

/// Builds the world `setups` times and keeps the last one; the median paced
/// build time is setup_s.
template <typename World, typename Build>
World build_world(const Options& options, HostPace& pace,
                  std::vector<double>& times, Build build) {
  std::optional<World> world;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options.setups); ++i) {
    world.reset();
    times.push_back(paced_cpu_seconds(pace, [&] { world.emplace(build()); }));
  }
  return std::move(*world);
}

double reciprocal_rank(const qa::Engine& engine,
                       const std::vector<qa::Answer>& answers,
                       const std::string& gold) {
  for (std::size_t rank = 0; rank < answers.size(); ++rank) {
    if (qa::answer_matches(engine.analyzer(), answers[rank].candidate, gold)) {
      return 1.0 / static_cast<double>(rank + 1);
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// The real pipeline through qa::Engine's stage API.

struct Staged {
  std::vector<qa::Answer> answers;
  qa::WorkCounters work;
};

/// Engine::answer, step by step through the stage API, with one span per
/// stage call when `log` is set.
Staged answer_staged(const qa::Engine& engine, const corpus::Question& q,
                     SpanLog* log, Perturb perturb) {
  Staged out;
  if (log != nullptr) log->reset(q.id);
  const ScopedSpan root(log, "question");
  qa::ProcessedQuestion pq;
  {
    const ScopedSpan span(log, "qa.qp", root.index());
    pq = engine.process_question(q.id, q.text);
  }
  std::vector<qa::RetrievedParagraph> retrieved;
  for (std::size_t sub = 0; sub < engine.subcollection_count(); ++sub) {
    std::vector<qa::RetrievedParagraph> batch;
    {
      const ScopedSpan span(log, "ir.retrieve", root.index());
      batch = engine.retrieve(sub, pq, &out.work.retrieval);
    }
    retrieved.insert(retrieved.end(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
  }
  out.work.paragraphs_retrieved = retrieved.size();
  std::vector<qa::ScoredParagraph> scored;
  scored.reserve(retrieved.size());
  for (auto& p : retrieved) {
    const ScopedSpan span(log, "qa.ps", root.index());
    if (perturb == Perturb::kScoreTwice) {
      const auto discarded = engine.score(pq, p);
      (void)discarded;
    }
    scored.push_back(engine.score(pq, std::move(p)));
  }
  std::vector<qa::ScoredParagraph> accepted;
  {
    const ScopedSpan span(log, "qa.po", root.index());
    accepted = engine.order(std::move(scored));
  }
  out.work.paragraphs_accepted = accepted.size();
  {
    const ScopedSpan span(log, "qa.ap", root.index());
    out.answers = engine.answer_paragraphs(pq, accepted, &out.work.answer);
  }
  return out;
}

/// Stage self times and work counters of the sequential pipeline, summed
/// over traced questions.
struct QaLayers {
  LayerTotals totals;
  double retrieved = 0.0;
  double accepted = 0.0;
  double postings = 0.0;
  double tokens = 0.0;
  double windows = 0.0;
  double worst_sum_gap = 0.0;  // max |root - sum of self times|

  void add(const SpanLog& log, const qa::WorkCounters& work) {
    worst_sum_gap = std::max(worst_sum_gap, totals.add(log));
    retrieved += static_cast<double>(work.paragraphs_retrieved);
    accepted += static_cast<double>(work.paragraphs_accepted);
    postings += static_cast<double>(work.retrieval.postings_scanned);
    tokens += static_cast<double>(work.answer.tokens_scanned);
    windows += static_cast<double>(work.answer.windows_scored);
  }

  void publish(std::map<std::string, double>& layer) const {
    if (totals.questions == 0) return;
    const double n = static_cast<double>(totals.questions);
    layer["qa.qp_ms"] = 1e3 * totals.seconds_of("qa.qp") / n;
    layer["ir.retrieve_ms"] = 1e3 * totals.seconds_of("ir.retrieve") / n;
    const auto ps_calls = totals.calls_of("qa.ps");
    layer["qa.ps_us_per_paragraph"] =
        ps_calls == 0 ? 0.0
                      : 1e6 * totals.seconds_of("qa.ps") /
                            static_cast<double>(ps_calls);
    layer["qa.po_ms"] = 1e3 * totals.seconds_of("qa.po") / n;
    layer["qa.ap_us_per_paragraph"] =
        accepted == 0.0 ? 0.0 : 1e6 * totals.seconds_of("qa.ap") / accepted;
    layer["qa.question_self_ms"] = 1e3 * totals.seconds_of("question") / n;
    layer["qa.paragraphs_retrieved"] = retrieved / n;
    layer["qa.paragraphs_accepted"] = accepted / n;
    layer["ir.postings_per_question"] = postings / n;
    layer["qa.ap_tokens_per_question"] = tokens / n;
    layer["qa.ap_windows_per_question"] = windows / n;
  }
};

/// One traced sequential pass over `questions` (the sim workloads' view of
/// the real pipeline: the plan-building work behind their plans).
QaLayers sequential_layer_pass(const qa::Engine& engine,
                               const std::vector<corpus::Question>& questions,
                               Perturb perturb) {
  QaLayers layers;
  SpanLog log;
  for (const auto& q : questions) {
    const Staged s = answer_staged(engine, q, &log, perturb);
    layers.add(log, s.work);
  }
  return layers;
}

// ---------------------------------------------------------------------------
// Shared reporting.

struct Collector {
  Report report;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<double> setup_times;
  HostPace pace;
  double run_start = now_seconds();

  void violation(const std::string& what) {
    report.violations.push_back(what);
  }
  void named(const std::string& name, double value, const std::string& unit) {
    report.named.push_back(Metric{name, value, unit});
  }
  void manifest(const std::string& key, const std::string& json_value) {
    report.manifest.emplace_back(key, json_value);
  }

  Report finish(const Options& options) {
    e2e["setup_s"] = median(setup_times);
    e2e["peak_rss_mb"] = peak_rss_mb();
    for (const auto& [name, unit] : end_to_end_catalog()) {
      const auto it = e2e.find(name);
      QADIST_CHECK(it != e2e.end(), << "end-to-end metric " << name
                                    << " not measured");
      report.end_to_end.push_back(Metric{name, it->second, unit});
    }
    for (const auto& [name, value] : layer) {
      const auto& catalog = per_layer_catalog();
      QADIST_CHECK(std::any_of(catalog.begin(), catalog.end(),
                               [&](const auto& m) { return m.first == name; }),
                   << "per-layer metric " << name << " is not in the catalog");
    }
    for (const auto& [name, unit] : per_layer_catalog()) {
      const auto it = layer.find(name);
      report.per_layer.push_back(
          Metric{name, it == layer.end() ? 0.0 : it->second, unit});
    }
    std::string setups = "[";
    for (const double t : setup_times) append_item(setups, json_number(t));
    manifest("setup_seconds", setups + "]");
    manifest("pace_samples", std::to_string(pace.samples().size()));
    manifest("pace_median_seconds", json_number(median(pace.samples())));
    manifest("pace_nominal_seconds", json_number(HostPace::kNominalSeconds));
    manifest("wall_seconds", json_number(now_seconds() - run_start));
    manifest("peak_rss_mb", json_number(peak_rss_mb()));
    manifest("nproc",
             std::to_string(std::thread::hardware_concurrency()));
    manifest("trace", options.trace ? "true" : "false");
    return std::move(report);
  }
};

std::string perturb_name(Perturb p) {
  switch (p) {
    case Perturb::kNone: return "none";
    case Perturb::kScoreTwice: return "score-twice";
    case Perturb::kPsDouble: return "ps-double";
  }
  return "?";
}

/// p99 needs at least 10 samples beyond it.
void violation_too_few(Collector& c, std::size_t samples) {
  c.violation("too few samples for p99 (" + std::to_string(samples) + ")");
}

/// Latency metrics of a real-pipeline workload from the paced samples of
/// the quieter half of its timed untraced passes (see quietest_passes), and
/// at least kMinLatencySamples of them: pacing takes out the host's speed,
/// this the bursts of other tenants' load that pacing does not follow.
void publish_question_latency(Collector& c, const std::vector<double>& all,
                              const std::vector<std::size_t>& pass_starts) {
  std::vector<double> ms = quietest_passes(
      all, pass_starts, std::max(kMinLatencySamples, all.size() / 2));
  std::sort(ms.begin(), ms.end());
  double total = 0.0;
  for (const double x : ms) total += x;
  const double mean_ms = total / static_cast<double>(ms.size());
  const double p50 = quantile_sorted(ms, 0.5);
  const double p99 = quantile_sorted(ms, 0.99);
  const std::size_t beyond = samples_beyond(ms.size(), 0.99);
  if (beyond < 10) violation_too_few(c, ms.size());
  c.e2e["latency_p50_ms"] = p50;
  c.e2e["latency_p99_ms"] = p99;
  c.e2e["us_per_question"] = 1e3 * mean_ms;
  c.e2e["throughput_qpm"] = 60e3 / mean_ms;
  c.named("question_ms_p50", p50, "ms");
  c.named("question_ms_p99", p99, "ms");
  c.manifest("timed_passes", std::to_string(pass_starts.size()));
  c.manifest("latency_samples", std::to_string(ms.size()));
  c.manifest("tail_samples_beyond", std::to_string(beyond));
}

void publish_failed(Collector& c, std::size_t attempted, std::size_t failed) {
  c.report.attempted = attempted;
  c.report.failed = failed;
  const double fraction =
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  c.e2e["answered_fraction"] = 1.0 - fraction;
  c.named("failed_fraction", fraction, "fraction");
}

void publish_failures(Collector& c, const FailureCount& f) {
  publish_failed(c, f.attempted, f.failed());
  c.manifest("questions_threw", std::to_string(f.threw));
  c.manifest("questions_empty", std::to_string(f.empty));
  c.manifest("questions_mismatched", std::to_string(f.mismatched));
}

bool measuring(double start, double seconds, std::size_t samples) {
  const double elapsed = now_seconds() - start;
  if (elapsed >= kMaxMeasureSeconds) return false;
  return elapsed < seconds || samples < kMinLatencySamples;
}

// ---------------------------------------------------------------------------
// qa-serial

Report run_qa_serial(const Options& o) {
  Collector c;
  const QaWorld world = build_world<QaWorld>(
      o, c.pace, c.setup_times, [] { return build_qa_world(); });
  const qa::Engine& engine = *world.engine;
  const auto& questions = world.questions;

  FailureCount failures;
  std::vector<std::uint64_t> reference(questions.size(), 0);
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<std::size_t> pass_starts;  // timed passes in untraced_ms
  double rr_sum = 0.0;
  QaLayers layers;
  SpanLog log;

  const double start = now_seconds();
  for (std::size_t pass = 0;
       pass < 3 || measuring(start, o.seconds, untraced_ms.size()); ++pass) {
    // Pass 0 warms up and sets the reference answers; it is not timed.
    // Traced runs alternate untraced and traced passes, so both see the
    // same machine conditions.
    const bool traced = o.trace && pass % 2 == 0 && pass > 0;
    PacedSamples paced(c.pace, kPaceBlock);
    for (const std::size_t i : pass_order(questions.size(), o.seed, pass)) {
      ++failures.attempted;
      Staged s;
      const double t0 = process_cpu_seconds();
      try {
        s = answer_staged(engine, questions[i], traced ? &log : nullptr,
                          o.perturb);
      } catch (const std::exception&) {
        ++failures.threw;
        continue;
      }
      paced.add(1e3 * (process_cpu_seconds() - t0));
      if (traced) layers.add(log, s.work);
      if (s.answers.empty()) ++failures.empty;
      const std::uint64_t digest = answers_digest(s.answers);
      if (pass == 0) {
        reference[i] = digest;
        rr_sum += reciprocal_rank(engine, s.answers, questions[i].gold_answer);
      } else if (digest != reference[i]) {
        ++failures.mismatched;
      }
    }
    const std::vector<double> pass_ms = paced.take();
    if (pass == 0) continue;
    if (!traced) pass_starts.push_back(untraced_ms.size());
    for (const double ms : pass_ms) {
      (traced ? traced_ms : untraced_ms).push_back(ms);
    }
  }
  if (failures.mismatched > 0) {
    c.violation("answer digest changed across passes");
  }

  publish_question_latency(c, untraced_ms, pass_starts);
  publish_failures(c, failures);
  const double mrr = rr_sum / static_cast<double>(questions.size());
  c.e2e["answer_mrr"] = mrr;
  c.named("answer_mrr", mrr, "mrr");
  if (o.perturb == Perturb::kNone && mrr < 0.5) {
    c.violation(std::string("answer_mrr ") + json_number(mrr) +
                " below the 0.5 floor");
  }
  if (o.trace) {
    layers.publish(c.layer);
    c.layer["obs.trace_overhead"] = median(traced_ms) / median(untraced_ms) - 1;
    if (layers.worst_sum_gap > 1e-9) {
      c.violation("stage self times do not sum to the question time");
    }
    c.manifest("traced_questions", std::to_string(layers.totals.questions));
  }
  c.manifest("questions", std::to_string(questions.size()));
  c.manifest("passes",
             std::to_string((untraced_ms.size() + traced_ms.size()) /
                            questions.size()));
  return c.finish(o);
}

// ---------------------------------------------------------------------------
// qa-host-parallel

Report run_qa_host_parallel(const Options& o) {
  Collector c;
  const QaWorld world = build_world<QaWorld>(
      o, c.pace, c.setup_times, [] { return build_qa_world(); });
  const qa::Engine& engine = *world.engine;
  const auto& questions = world.questions;

  const std::size_t workers = host_workers();
  parallel::ThreadPool pool(workers);
  parallel::ExecutorOptions pr;
  pr.strategy = parallel::Strategy::kRecv;
  pr.workers = workers;
  pr.chunk_size = 1;
  parallel::ExecutorOptions ap = pr;
  ap.chunk_size = kApChunk;

  // The sequential pipeline's answers: what every parallel answer must equal.
  std::vector<std::uint64_t> reference;
  reference.reserve(questions.size());
  for (const auto& q : questions) {
    reference.push_back(answers_digest(engine.answer(q).answers));
  }

  FailureCount failures;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<std::size_t> pass_starts;  // timed passes in untraced_ms
  double rr_sum = 0.0;
  QaLayers seq_layers;  // sequential pipeline, for the qa.* layer metrics
  LayerTotals par;      // parallel stage spans
  double worst_sum_gap = 0.0;
  double imbalance_sum = 0.0;
  double rounds = 0.0;
  SpanLog log;
  SpanLog seq_log;

  const double start = now_seconds();
  for (std::size_t pass = 0;
       pass < 3 || measuring(start, o.seconds, untraced_ms.size()); ++pass) {
    // As in qa-serial: pass 0 is an untimed warm-up, traced passes alternate.
    const bool traced = o.trace && pass % 2 == 0 && pass > 0;
    PacedSamples paced(c.pace, kPaceBlock);
    for (const std::size_t i : pass_order(questions.size(), o.seed, pass)) {
      const auto& q = questions[i];
      ++failures.attempted;
      std::vector<qa::Answer> answers;
      double ms = 0.0;
      try {
        if (!traced) {
          const double t0 = now_seconds();
          answers = parallel::answer_parallel(engine, q.id, q.text, pool, pr,
                                              ap)
                        .answers;
          ms = 1e3 * (now_seconds() - t0);
        } else {
          log.reset(q.id);
          std::size_t root = log.begin("question");
          qa::ProcessedQuestion pq;
          std::size_t span = log.begin("parallel.qp", root);
          pq = engine.process_question(q.id, q.text);
          log.end(span);
          span = log.begin("parallel.pr", root);
          auto retrieval =
              parallel::parallel_retrieve_and_score(engine, pq, pool, pr);
          log.end(span);
          span = log.begin("parallel.po", root);
          auto accepted = engine.order(std::move(retrieval.paragraphs));
          log.end(span);
          span = log.begin("parallel.ap", root);
          auto result = parallel::parallel_answer_processing(engine, pq,
                                                             accepted, pool, ap);
          log.end(span);
          log.end(root);
          answers = std::move(result.answers);
          ms = 1e3 * (log.spans()[root].end - log.spans()[root].start);
          worst_sum_gap = std::max(worst_sum_gap, par.add(log));
          rounds += static_cast<double>(retrieval.report.rounds +
                                        result.report.rounds);
          const auto& items = result.report.items_per_worker;
          double total = 0.0;
          double most = 0.0;
          for (const std::size_t n : items) {
            total += static_cast<double>(n);
            most = std::max(most, static_cast<double>(n));
          }
          imbalance_sum +=
              total > 0.0 ? most / (total / static_cast<double>(items.size()))
                          : 1.0;
          // The same question through the sequential stage API: the qa.*
          // layer metrics and the base of parallel.ap_efficiency.
          const Staged s = answer_staged(engine, q, &seq_log, o.perturb);
          seq_layers.add(seq_log, s.work);
        }
      } catch (const std::exception&) {
        ++failures.threw;
        continue;
      }
      paced.add(ms);
      if (answers.empty()) ++failures.empty;
      if (answers_digest(answers) != reference[i]) ++failures.mismatched;
      if (pass == 0) {
        rr_sum += reciprocal_rank(engine, answers, q.gold_answer);
      }
    }
    const std::vector<double> pass_ms = paced.take();
    if (pass == 0) continue;
    if (!traced) pass_starts.push_back(untraced_ms.size());
    for (const double ms : pass_ms) {
      (traced ? traced_ms : untraced_ms).push_back(ms);
    }
  }
  if (failures.mismatched > 0) {
    c.violation("host-parallel answers differ from the sequential pipeline");
  }

  publish_question_latency(c, untraced_ms, pass_starts);
  publish_failures(c, failures);
  const double mrr = rr_sum / static_cast<double>(questions.size());
  c.e2e["answer_mrr"] = mrr;
  c.named("answer_mrr", mrr, "mrr");
  if (o.trace) {
    seq_layers.publish(c.layer);
    if (worst_sum_gap > 1e-9 || seq_layers.worst_sum_gap > 1e-9) {
      c.violation("stage self times do not sum to the question time");
    }
    const double n = static_cast<double>(par.questions);
    double question_s = 0.0;  // the traced questions' spans, end to end
    for (const auto& [name, seconds] : par.seconds) question_s += seconds;
    const double seq_ap_seconds = seq_layers.totals.seconds_of("qa.ap");
    const double pr_s = par.seconds_of("parallel.pr");
    const double ap_s = par.seconds_of("parallel.ap");
    const double serial_s =
        par.seconds_of("parallel.qp") + par.seconds_of("parallel.po");
    c.layer["parallel.pr_stage_share"] = pr_s / question_s;
    c.layer["parallel.ap_stage_share"] = ap_s / question_s;
    c.layer["parallel.serial_share"] = serial_s / question_s;
    c.layer["parallel.ap_efficiency"] =
        seq_ap_seconds / (static_cast<double>(workers) * ap_s);
    c.layer["parallel.imbalance"] = imbalance_sum / n;
    c.layer["parallel.rounds_per_question"] = rounds / n;
    c.layer["obs.trace_overhead"] = median(traced_ms) / median(untraced_ms) - 1;
    c.named("parallel.pr_stage_ms", 1e3 * pr_s / n, "ms");
    c.named("parallel.ap_stage_ms", 1e3 * ap_s / n, "ms");
    c.named("parallel.serial_ms", 1e3 * serial_s / n, "ms");
    c.named("parallel.ap_sequential_ms", 1e3 * seq_ap_seconds / n, "ms");
    c.manifest("traced_questions", std::to_string(par.questions));
  }
  c.manifest("workers", std::to_string(workers));
  c.manifest("questions", std::to_string(questions.size()));
  c.manifest("ap_chunk", std::to_string(kApChunk));
  return c.finish(o);
}

// ---------------------------------------------------------------------------
// Simulated workloads

void double_ps_demand(std::vector<cluster::QuestionPlan>& plans) {
  for (auto& plan : plans) {
    for (auto& unit : plan.pr_units) {
      unit.ps.cpu_seconds *= 2.0;
      unit.ps.disk_bytes *= 2.0;
    }
  }
}

double plans_mrr(const SimWorld& world) {
  double rr = 0.0;
  for (const auto& plan : world.plans) {
    rr += reciprocal_rank(*world.qa.engine, plan.answers,
                          plan.source.gold_answer);
  }
  return rr / static_cast<double>(world.plans.size());
}

/// Completions per simulated minute between the kStationaryLo and
/// kStationaryHi completion quantiles of a traced run (warm-up and drain
/// cut).
double stationary_qpm(const obs::Tracer& tracer) {
  std::vector<double> ends;
  for (const auto& span : tracer.spans()) {
    if (span.name == "question" && span.closed) ends.push_back(span.end);
  }
  if (ends.size() < 10) return 0.0;
  std::sort(ends.begin(), ends.end());
  const auto lo = static_cast<std::size_t>(kStationaryLo *
                                           static_cast<double>(ends.size()));
  const auto hi = static_cast<std::size_t>(kStationaryHi *
                                           static_cast<double>(ends.size()));
  const double window = ends[hi] - ends[lo];
  return window > 0.0 ? 60.0 * static_cast<double>(hi - lo) / window : 0.0;
}

/// One simulated run and what the benchmark reads from it.
struct SimRun {
  cluster::Metrics metrics;
  double cpu = 0.0;  // paced process CPU seconds of the run
  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  double shards_per_question = 0.0;
  double broker_reroutes = 0.0;
};

SimRun simulate(HostPace& pace, const cluster::SystemConfig& cfg,
                const std::vector<cluster::QuestionPlan>& plans,
                const workload::RunSpec& spec, obs::Tracer* tracer) {
  SimRun out;
  simnet::Simulation sim;
  std::optional<cluster::System> system;
  out.cpu = paced_cpu_seconds(pace, [&] {
    system.emplace(sim, cfg);
    if (tracer != nullptr) system->set_tracer(tracer);
    out.metrics = workload::Driver(*system, plans).run(spec).metrics;
  });
  out.events = sim.executed_events();
  out.sim_seconds = sim.now();
  if (const auto* h =
          system->registry().find_histogram("selection_shards_selected")) {
    out.shards_per_question = h->stats().mean();
  }
  if (const auto* r = system->registry().find_counter("broker_reroutes")) {
    out.broker_reroutes = r->value();
  }
  return out;
}

/// Mean of `f` over runs.
template <typename F>
double mean_over(const std::vector<SimRun>& runs, F f) {
  double total = 0.0;
  for (const SimRun& r : runs) total += f(r);
  return total / static_cast<double>(runs.size());
}

/// Median of `f` over runs: robust to one stream with a pathological tail.
template <typename F>
double median_over(const std::vector<SimRun>& runs, F f) {
  std::vector<double> values;
  for (const SimRun& r : runs) values.push_back(f(r));
  return median(std::move(values));
}

/// Migrations per question at the three scheduling points and the CPU
/// work imbalance, averaged over runs.
void publish_sched_layers(Collector& c, const std::vector<SimRun>& runs) {
  const auto per_question = [](std::size_t count, const SimRun& r) {
    return static_cast<double>(count) /
           static_cast<double>(r.metrics.submitted);
  };
  c.layer["sched.migrations_qa_per_question"] = mean_over(
      runs, [&](const SimRun& r) { return per_question(r.metrics.migrations_qa, r); });
  c.layer["sched.migrations_pr_per_question"] = mean_over(
      runs, [&](const SimRun& r) { return per_question(r.metrics.migrations_pr, r); });
  c.layer["sched.migrations_ap_per_question"] = mean_over(
      runs, [&](const SimRun& r) { return per_question(r.metrics.migrations_ap, r); });
  c.layer["sched.cpu_imbalance"] = mean_over(
      runs, [](const SimRun& r) { return r.metrics.cpu_work_imbalance(); });
}

/// The open-loop phase: `streams` independent Poisson streams (sub-seeds of
/// the workload seed) at the reference rate. Latency quantiles are over the
/// streams' latencies pooled. The cost streams (each stream's first
/// kCostQuestions arrivals) are then run round robin until `seconds` of
/// measurement have passed — every re-run must reproduce its first run bit
/// for bit — and sim_us_per_question is the sum of their median paced CPU
/// times per simulated question. A traced run of every stream must
/// reproduce its untraced run too, and gives the blame shares; a traced
/// first cost stream gives the trace overhead.
std::vector<SimRun> open_loop_phase(
    Collector& c, const Options& o, double start,
    const cluster::SystemConfig& cfg,
    const std::vector<cluster::QuestionPlan>& plans,
    const workload::ArrivalProcessConfig& arrivals, std::size_t streams,
    std::uint64_t stream_base) {
  std::vector<workload::RunSpec> specs(streams);
  std::string seeds = "[";
  for (std::size_t j = 0; j < streams; ++j) {
    specs[j].shape = workload::WorkloadShape::kOpenLoop;
    specs[j].open_loop = arrivals;
    specs[j].open_loop.seed = derive_seed(o.seed, stream_base + j);
    append_item(seeds, std::to_string(specs[j].open_loop.seed));
  }
  std::vector<SimRun> runs;
  std::vector<std::uint64_t> digests;
  for (std::size_t j = 0; j < streams; ++j) {
    runs.push_back(simulate(c.pace, cfg, plans, specs[j], nullptr));
    digests.push_back(sim_digest(runs.back().metrics));
  }
  // The cost runs: every re-run does the same work bit for bit, so the
  // spread between them is the machine's, not the simulator's.
  std::vector<workload::RunSpec> cost_specs = specs;
  std::vector<std::uint64_t> cost_digests;
  std::vector<std::vector<double>> cpus(streams);  // per stream, per run
  std::uint64_t cost_events = 0;
  for (std::size_t round = 0;
       (now_seconds() - start < o.seconds || round < kMinCostRuns) &&
       now_seconds() - start < kMaxMeasureSeconds;
       ++round) {
    for (std::size_t j = 0; j < streams; ++j) {
      cost_specs[j].open_loop.count = kCostQuestions;
      const SimRun run = simulate(c.pace, cfg, plans, cost_specs[j], nullptr);
      if (round == 0) {
        cost_digests.push_back(sim_digest(run.metrics));
        cost_events += run.events;
      } else if (sim_digest(run.metrics) != cost_digests[j]) {
        c.violation("repeated simulation diverged");
      }
      cpus[j].push_back(run.cpu);
    }
  }
  double cost_cpu = 0.0;  // one round at each stream's median
  for (const auto& runs_of_stream : cpus) cost_cpu += median(runs_of_stream);

  std::vector<double> latencies;
  for (const SimRun& r : runs) {
    if (!sim_drained(r.metrics)) {
      c.violation("open-loop run lost questions (completed + rejected + "
                  "shed != submitted, or latency samples != completions)");
    }
    append_sorted_samples(r.metrics.latencies, latencies);
  }
  std::sort(latencies.begin(), latencies.end());
  const std::size_t beyond = samples_beyond(latencies.size(), 0.99);
  if (beyond < 10) violation_too_few(c, latencies.size());
  const double p50 = quantile_sorted(latencies, 0.5);
  const double tail = quantile_sorted(latencies, 0.99);
  const double us =
      1e6 * cost_cpu / static_cast<double>(streams * kCostQuestions);
  c.e2e["latency_p50_ms"] = 1e3 * p50;
  c.e2e["latency_p99_ms"] = 1e3 * tail;
  c.e2e["us_per_question"] = us;
  c.named("sim_latency_p50_s", p50, "s");
  c.named("sim_latency_p99_s", tail, "s");
  c.named("sim_us_per_question", us, "us");

  const double events_per_question = mean_over(runs, [](const SimRun& r) {
    return static_cast<double>(r.events) /
           static_cast<double>(r.metrics.submitted);
  });
  c.layer["simnet.events_per_question"] = events_per_question;
  c.layer["simnet.events_per_s"] = static_cast<double>(cost_events) / cost_cpu;
  c.manifest("open_loop_seeds", seeds + "]");
  c.manifest("open_loop_rate_qps", json_number(arrivals.rate_qps));
  c.manifest("open_loop_questions_per_stream",
             std::to_string(arrivals.count));
  c.manifest("cost_rounds", std::to_string(cpus.front().size()));
  c.manifest("cost_questions_per_stream", std::to_string(kCostQuestions));
  c.manifest("cost_round_events", std::to_string(cost_events));
  c.manifest("latency_samples", std::to_string(latencies.size()));
  c.manifest("tail_samples_beyond", std::to_string(beyond));
  double sim_seconds = 0.0;
  std::uint64_t events = 0;
  for (const SimRun& r : runs) {
    sim_seconds += r.sim_seconds;
    events += r.events;
  }
  c.manifest("sim_seconds", json_number(sim_seconds));
  c.manifest("events_executed", std::to_string(events));
  if (!o.trace) return runs;

  std::vector<obs::QuestionBreakdown> breakdowns;
  for (std::size_t j = 0; j < streams; ++j) {
    obs::Tracer tracer;
    const SimRun traced = simulate(c.pace, cfg, plans, specs[j], &tracer);
    if (sim_digest(traced.metrics) != digests[j]) {
      c.violation("traced simulation differs from the untraced one");
    }
    auto questions = obs::analyze_questions(tracer);
    breakdowns.insert(breakdowns.end(),
                      std::make_move_iterator(questions.begin()),
                      std::make_move_iterator(questions.end()));
  }
  obs::Tracer tracer;
  const SimRun traced =
      simulate(c.pace, cfg, plans, cost_specs.front(), &tracer);
  c.layer["obs.trace_overhead"] = traced.cpu / median(cpus.front()) - 1.0;
  const obs::RunAttribution a = obs::attribute_run(breakdowns);
  c.layer["cluster.queue_share"] = a.share(a.queue);
  c.layer["cluster.qp_share"] = a.share(a.service.qp);
  c.layer["cluster.pr_share"] = a.share(a.service.pr);
  c.layer["cluster.ps_share"] = a.share(a.service.ps);
  c.layer["cluster.po_share"] = a.share(a.service.po);
  c.layer["cluster.ap_share"] = a.share(a.service.ap);
  c.layer["cluster.cache_lookup_share"] = a.share(a.service.cache_lookup);
  c.layer["cluster.retry_share"] = a.share(a.retry);
  c.layer["cluster.merge_share"] = a.share(a.merge);
  c.layer["simnet.network_share"] = a.share(a.network);
  std::size_t decided = 0;
  std::size_t worst = 0;
  for (const std::size_t n : a.critical_leg_counts) {
    decided += n;
    worst = std::max(worst, n);
  }
  c.layer["cluster.worst_node_critical_share"] =
      decided == 0 ? 0.0
                   : static_cast<double>(worst) / static_cast<double>(decided);
  c.manifest("traced_questions", std::to_string(a.questions));
  return runs;
}

cluster::SystemConfig paper_config(const SimWorld& world) {
  cluster::SystemConfig cfg;
  cfg.nodes = kPaperNodes;
  cfg.dispatch.policy = cluster::Policy::kDqa;
  cfg.partition.ap_chunk = scaled_chunk(world);
  return cfg;
}

workload::ArrivalProcessConfig reference_arrivals(const SimWorld& world,
                                                  std::size_t nodes,
                                                  double load,
                                                  std::size_t count) {
  workload::ArrivalProcessConfig arrivals;
  arrivals.shape = workload::ArrivalShape::kPoisson;
  arrivals.count = count;
  arrivals.rate_qps =
      load * static_cast<double>(nodes) / world.mean_service_seconds();
  return arrivals;
}

Report run_sim_paper(const Options& o) {
  Collector c;
  SimWorld world = build_world<SimWorld>(
      o, c.pace, c.setup_times, [] { return build_paper_world(); });
  if (o.perturb == Perturb::kPsDouble) double_ps_demand(world.plans);
  const cluster::SystemConfig cfg = paper_config(world);
  const double start = now_seconds();

  // Phase 1: the paper's Sec. 6.1 high-load protocol over several seeds,
  // throughput counted only inside the stationary window. (Tracing is
  // on for the completion times; it never changes a simulated result.)
  std::vector<SimRun> bursts;
  double qpm = 0.0;
  std::string burst_seeds = "[";
  for (std::size_t j = 0; j < kPaperBurstSeeds; ++j) {
    workload::RunSpec spec;
    spec.shape = workload::WorkloadShape::kOverload;
    spec.overload.count = kPaperBurst;
    spec.overload.seed = derive_seed(o.seed, 10 + j);
    spec.overload.reference_disk = world.cost->anchors().reference_disk;
    append_item(burst_seeds, std::to_string(spec.overload.seed));
    obs::Tracer tracer;
    bursts.push_back(simulate(c.pace, cfg, world.plans, spec, &tracer));
    if (!sim_drained(bursts.back().metrics)) {
      c.violation("high-load run lost questions");
    }
    qpm += stationary_qpm(tracer) / static_cast<double>(kPaperBurstSeeds);
  }
  c.e2e["throughput_qpm"] = qpm;
  c.named("sim_throughput_qpm", qpm, "q/min");
  c.manifest("high_load_seeds", burst_seeds + "]");
  c.manifest("high_load_questions", std::to_string(kPaperBurst));

  // Phase 2: open-loop Poisson at a fixed reference rate below capacity,
  // set from the world's mean plan service time.
  const std::vector<SimRun> open = open_loop_phase(
      c, o, start, cfg, world.plans,
      reference_arrivals(world, kPaperNodes, kPaperLoad, kPaperStreamQuestions),
      kPaperStreams, 20);

  std::size_t submitted = 0;
  std::size_t lost = 0;
  for (const std::vector<SimRun>* runs : {&std::as_const(bursts), &open}) {
    for (const SimRun& r : *runs) {
      submitted += r.metrics.submitted;
      lost += lost_questions(r.metrics);
    }
  }
  publish_failed(c, submitted, lost);
  const double mrr = plans_mrr(world);
  c.e2e["answer_mrr"] = mrr;
  c.named("answer_mrr", mrr, "mrr");

  if (o.trace) {
    publish_sched_layers(c, bursts);
    sequential_layer_pass(*world.qa.engine, world.qa.questions, o.perturb)
        .publish(c.layer);
  }
  c.manifest("nodes", std::to_string(kPaperNodes));
  c.manifest("ap_chunk", std::to_string(cfg.partition.ap_chunk));
  c.manifest("mean_service_s", json_number(world.mean_service_seconds()));
  return c.finish(o);
}

/// The fleet's question population: every base plan cloned under distinct
/// question texts (a different answer-cache key, the same work), so Zipf
/// repeats over it keep the answer-cache hit rate well below one half.
std::vector<cluster::QuestionPlan> fleet_population(const SimWorld& world) {
  std::vector<cluster::QuestionPlan> population;
  population.reserve(kFleetClones * world.plans.size());
  for (std::size_t k = 0; k < kFleetClones; ++k) {
    for (const auto& plan : world.plans) {
      population.push_back(plan);
      if (k > 0) {
        population.back().source.text += " variant ";
        population.back().source.text += std::to_string(k);
      }
    }
  }
  return population;
}

cluster::SystemConfig fleet_config(const SimWorld& world) {
  cluster::SystemConfig cfg;
  cfg.nodes = kFleetNodes;
  cfg.dispatch.policy = cluster::Policy::kDqa;
  cfg.partition.ap_chunk = scaled_chunk(world);
  cfg.shard.num_shards = kFleetShards;
  cfg.shard.replication = 2;
  cfg.broker.brokers = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(kFleetNodes))));
  cfg.broker.selectivity = 0.25;
  cfg.broker.stats = world.stats;
  cfg.cache.answers.max_entries = kFleetAnswerCache;
  cfg.cache.paragraphs.max_entries = kFleetParagraphCache;
  cfg.net.faults.drop_probability = 0.01;
  simnet::GrayFaultEvent gray;
  gray.node = kFleetGrayNode;
  gray.cpu_factor = 10.0;
  gray.disk_factor = 10.0;
  cfg.gray.events.push_back(gray);
  cfg.tail.hedge = true;
  cfg.tail.tied = true;
  cfg.tail.latency_aware = true;
  return cfg;
}

struct FleetWorld {
  SimWorld world;
  std::vector<cluster::QuestionPlan> population;
};

Report run_sim_fleet(const Options& o) {
  Collector c;
  FleetWorld fleet = build_world<FleetWorld>(o, c.pace, c.setup_times, [] {
    FleetWorld f{build_fleet_world(kFleetShards, kFleetQuestions), {}};
    f.population = fleet_population(f.world);
    return f;
  });
  if (o.perturb == Perturb::kPsDouble) double_ps_demand(fleet.population);
  const SimWorld& world = fleet.world;
  const cluster::SystemConfig cfg = fleet_config(world);
  const double start = now_seconds();

  auto arrivals =
      reference_arrivals(world, kFleetNodes, kFleetLoad, kFleetStreamQuestions);
  arrivals.repeat_exponent = kFleetZipf;
  arrivals.distinct_questions = fleet.population.size();
  const auto runs = open_loop_phase(c, o, start, cfg, fleet.population,
                                    arrivals, kFleetStreams, 30);

  const double qpm = median_over(
      runs, [](const SimRun& r) { return r.metrics.throughput_qpm(); });
  c.e2e["throughput_qpm"] = qpm;
  c.named("sim_busy_throughput_qpm", qpm, "q/min");
  std::size_t submitted = 0;
  std::size_t lost = 0;
  for (const SimRun& r : runs) {
    submitted += r.metrics.submitted;
    lost += lost_questions(r.metrics);
    if (r.metrics.answer_cache_hit_rate() >= 0.5) {
      c.violation(std::string("answer-cache hit rate ") +
                  json_number(r.metrics.answer_cache_hit_rate()) +
                  " is not below one half: p50 would measure hits");
    }
  }
  publish_failed(c, submitted, lost);
  const double mrr = plans_mrr(world);
  c.e2e["answer_mrr"] = mrr;
  c.named("answer_mrr", mrr, "mrr");

  const double hit_rate = mean_over(
      runs, [](const SimRun& r) { return r.metrics.answer_cache_hit_rate(); });
  if (o.trace) {
    publish_sched_layers(c, runs);
    const auto per_completed = [](double count, const SimRun& r) {
      return count / static_cast<double>(r.metrics.completed);
    };
    c.layer["sched.detector_false_alarms"] = mean_over(runs, [](const SimRun& r) {
      return static_cast<double>(r.metrics.detector_false_alarms);
    });
    c.layer["broker.shards_per_question"] = mean_over(
        runs, [](const SimRun& r) { return r.shards_per_question; });
    c.layer["broker.reroutes"] =
        mean_over(runs, [](const SimRun& r) { return r.broker_reroutes; });
    c.layer["shard.units_unserved"] = mean_over(runs, [](const SimRun& r) {
      return static_cast<double>(r.metrics.shard_units_unserved);
    });
    c.layer["cache.answer_hit_rate"] = hit_rate;
    c.layer["cache.paragraph_hit_rate"] = mean_over(runs, [](const SimRun& r) {
      const auto probes = r.metrics.pr_cache_hits + r.metrics.pr_cache_misses;
      return probes == 0 ? 0.0
                         : static_cast<double>(r.metrics.pr_cache_hits) /
                               static_cast<double>(probes);
    });
    c.layer["tail.hedge_overhead"] = mean_over(
        runs, [](const SimRun& r) { return r.metrics.hedge_overhead(); });
    c.layer["tail.hedge_win_rate"] = mean_over(runs, [](const SimRun& r) {
      return r.metrics.hedges_issued == 0
                 ? 0.0
                 : static_cast<double>(r.metrics.hedge_wins) /
                       static_cast<double>(r.metrics.hedges_issued);
    });
    c.layer["tail.cancelled_per_question"] = mean_over(runs, [&](const SimRun& r) {
      return per_completed(static_cast<double>(r.metrics.legs_cancelled), r);
    });
    c.layer["net.retries_per_question"] = mean_over(runs, [&](const SimRun& r) {
      return per_completed(static_cast<double>(r.metrics.net_retries), r);
    });
    sequential_layer_pass(*world.qa.engine, world.qa.questions, o.perturb)
        .publish(c.layer);
  }
  c.manifest("nodes", std::to_string(kFleetNodes));
  c.manifest("shards", std::to_string(kFleetShards));
  c.manifest("brokers", std::to_string(cfg.broker.brokers));
  c.manifest("population", std::to_string(fleet.population.size()));
  c.manifest("answer_cache_hit_rate", json_number(hit_rate));
  c.manifest("mean_service_s", json_number(world.mean_service_seconds()));
  return c.finish(o);
}

/// Digest of everything that defines a workload besides its seed.
std::uint64_t config_digest(const Options& o) {
  std::ostringstream cfg;
  cfg << o.workload << ' ' << perturb_name(o.perturb) << ' ' << o.setups
      << ' ' << kMinLatencySamples << ' ' << kPaperNodes << ' ' << kPaperBurst
      << ' ' << kPaperBurstSeeds << ' ' << kStationaryLo << ' '
      << kStationaryHi << ' ' << kPaperLoad << ' ' << kPaperStreams << ' ' << kPaperStreamQuestions
      << ' ' << kFleetNodes << ' ' << kFleetShards << ' ' << kFleetClones
      << ' ' << kFleetZipf << ' ' << kFleetLoad << ' ' << kFleetStreams << ' ' << kFleetStreamQuestions << ' ' << kFleetQuestions << ' ' << kFleetAnswerCache
      << ' ' << kFleetParagraphCache << ' ' << kFleetGrayNode << ' '
      << kApChunk << ' ' << kPaceBlock << ' ' << kMinCostRuns << ' '
      << kCostQuestions << ' ' << HostPace::kNominalSeconds;
  Digest d;
  d.add(cfg.str());
  return d.value();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "qa-serial", "qa-host-parallel", "sim-paper", "sim-fleet"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog{
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"us_per_question", "us"},
      {"throughput_qpm", "q/min"},
      {"answered_fraction", "fraction"},
      {"answer_mrr", "mrr"},
  };
  return catalog;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog{
      {"qa.qp_ms", "ms"},
      {"ir.retrieve_ms", "ms"},
      {"qa.ps_us_per_paragraph", "us"},
      {"qa.po_ms", "ms"},
      {"qa.ap_us_per_paragraph", "us"},
      {"qa.question_self_ms", "ms"},
      {"qa.paragraphs_retrieved", "count"},
      {"qa.paragraphs_accepted", "count"},
      {"ir.postings_per_question", "count"},
      {"qa.ap_tokens_per_question", "count"},
      {"qa.ap_windows_per_question", "count"},
      {"parallel.pr_stage_share", "fraction"},
      {"parallel.ap_stage_share", "fraction"},
      {"parallel.serial_share", "fraction"},
      {"parallel.ap_efficiency", "fraction"},
      {"parallel.imbalance", "ratio"},
      {"parallel.rounds_per_question", "count"},
      {"cluster.queue_share", "fraction"},
      {"cluster.qp_share", "fraction"},
      {"cluster.pr_share", "fraction"},
      {"cluster.ps_share", "fraction"},
      {"cluster.po_share", "fraction"},
      {"cluster.ap_share", "fraction"},
      {"cluster.cache_lookup_share", "fraction"},
      {"cluster.retry_share", "fraction"},
      {"cluster.merge_share", "fraction"},
      {"simnet.network_share", "fraction"},
      {"cluster.worst_node_critical_share", "fraction"},
      {"sched.migrations_qa_per_question", "count"},
      {"sched.migrations_pr_per_question", "count"},
      {"sched.migrations_ap_per_question", "count"},
      {"sched.cpu_imbalance", "ratio"},
      {"sched.detector_false_alarms", "count"},
      {"simnet.events_per_question", "count"},
      {"simnet.events_per_s", "1/s"},
      {"obs.trace_overhead", "fraction"},
      {"broker.shards_per_question", "count"},
      {"broker.reroutes", "count"},
      {"shard.units_unserved", "count"},
      {"cache.answer_hit_rate", "fraction"},
      {"cache.paragraph_hit_rate", "fraction"},
      {"tail.hedge_overhead", "fraction"},
      {"tail.hedge_win_rate", "fraction"},
      {"tail.cancelled_per_question", "count"},
      {"net.retries_per_question", "count"},
  };
  return catalog;
}

Report run_workload(const Options& o) {
  Report report;
  if (o.workload == "qa-serial") {
    report = run_qa_serial(o);
  } else if (o.workload == "qa-host-parallel") {
    report = run_qa_host_parallel(o);
  } else if (o.workload == "sim-paper") {
    report = run_sim_paper(o);
  } else if (o.workload == "sim-fleet") {
    report = run_sim_fleet(o);
  } else {
    QADIST_CHECK(false, << "unknown workload " << o.workload);
  }
  report.manifest.insert(
      report.manifest.begin(),
      {{"workload", json_string(o.workload)},
       {"seed", std::to_string(o.seed)},
       {"measure_seconds", json_number(o.seconds)},
       {"perturb", json_string(perturb_name(o.perturb))},
       {"config_digest", hex(config_digest(o))}});
  return report;
}

}  // namespace perfbench
