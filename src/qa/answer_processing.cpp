#include "qa/answer_processing.hpp"

#include <algorithm>
#include <cstdint>

#include "qa/text_match.hpp"

namespace qadist::qa {

namespace {

bool is_linking_word(std::string_view w) {
  return w == "is" || w == "was" || w == "in" || w == "by" || w == "of" ||
         w == "for" || w == "to" || w == "cost" || w == "treat";
}

/// Distance in tokens from token `t` to the candidate span [begin, end].
std::size_t distance(std::size_t t, std::size_t begin, std::size_t end) {
  return t < begin ? begin - t : (t > end ? t - end : 0);
}

/// The calling thread's AP scratch: each keyword's nearest hit to the
/// candidate, and the candidate being scored, whose text keeps its
/// capacity from one candidate to the next.
struct Scratch {
  std::vector<const ir::KeywordHit*> nearest;
  CandidateAnswer candidate;
};

Scratch& scratch() {
  thread_local Scratch local;
  return local;
}

}  // namespace

template <typename Emit>
void AnswerProcessor::score_candidates(const ProcessedQuestion& question,
                                       const ScoredParagraph& paragraph,
                                       const CorpusAnalysis& analysis,
                                       AnswerWork* work, Emit&& emit) const {
  const AnalyzedParagraph text = analysis.of(paragraph.paragraph);
  const auto& tokens = text.tokens;
  const std::span<const ir::KeywordHit> hits =
      scored_hits(paragraph, text, question);

  if (work != nullptr) {
    ++work->paragraphs_processed;
    work->tokens_scanned += tokens.size();
  }

  const std::size_t k = question.keywords.size();
  const auto hit_at_or_after = [&](std::size_t position) {
    return std::partition_point(hits.begin(), hits.end(),
                                [&](const ir::KeywordHit& hit) {
                                  return hit.position < position;
                                });
  };
  Scratch& local = scratch();
  std::vector<const ir::KeywordHit*>& nearest = local.nearest;
  CandidateAnswer& candidate = local.candidate;
  nearest.resize(k);

  for (const EntityMention& mention : text.mentions) {
    if (work != nullptr) ++work->candidates_considered;

    // Type filter: the candidate must carry the expected answer type
    // (kUnknown questions accept any entity).
    if (question.answer_type != corpus::EntityType::kUnknown &&
        mention.type != question.answer_type) {
      continue;
    }
    // Subject check: skip a candidate whose every non-stopword token is a
    // keyword hit — the question's own subject. Hits are never stopwords.
    const std::size_t cand_begin = mention.first_token;
    const std::size_t cand_stop = cand_begin + mention.token_count;
    std::size_t content_tokens = 0;
    for (std::size_t i = cand_begin; i < cand_stop; ++i) {
      if (text.lexicon->norm(tokens[i].word()) != ir::kStopword) {
        ++content_tokens;
      }
    }
    if (static_cast<std::size_t>(hit_at_or_after(cand_stop) -
                                 hit_at_or_after(cand_begin)) ==
        content_tokens) {
      continue;
    }

    // --- Build the answer window: candidate plus the nearest occurrence of
    // each present keyword (the earlier one on a tie), clipped to
    // max_window_tokens around the candidate.
    const std::size_t cand_end = cand_stop - 1;
    std::size_t win_begin = cand_begin;
    std::size_t win_end = cand_end;
    double distance_sum = 0.0;
    std::size_t distance_terms = 0;

    std::fill(nearest.begin(), nearest.end(), nullptr);
    for (const auto& hit : hits) {
      const ir::KeywordHit*& best = nearest[hit.keyword];
      if (best == nullptr ||
          distance(hit.position, cand_begin, cand_end) <
              distance(best->position, cand_begin, cand_end)) {
        best = &hit;
      }
    }

    std::size_t keywords_in_window = 0;
    for (const ir::KeywordHit* hit : nearest) {
      if (hit == nullptr) continue;
      const std::size_t t = hit->position;
      const std::size_t dist = distance(t, cand_begin, cand_end);
      if (dist <= config_.max_window_tokens) {
        win_begin = std::min(win_begin, t);
        win_end = std::max(win_end, t);
        distance_sum += static_cast<double>(dist);
        ++distance_terms;
        ++keywords_in_window;
      }
    }
    if (keywords_in_window == 0) continue;  // no keyword anywhere near

    if (work != nullptr) ++work->windows_scored;

    // --- Seven heuristics.
    const double h1 =
        k == 0 ? 0.0
               : static_cast<double>(keywords_in_window) /
                     static_cast<double>(k);
    const double mean_dist =
        distance_terms == 0 ? 0.0
                            : distance_sum / static_cast<double>(distance_terms);
    const double h2 = 1.0 / (1.0 + mean_dist);

    double h3 = 0.0;
    {
      // Same-order: longest question-order run among window keyword hits.
      std::int64_t prev = -1;
      std::size_t run = 0;
      std::size_t best = 0;
      for (auto hit = hit_at_or_after(win_begin);
           hit != hits.end() && hit->position <= win_end; ++hit) {
        run = hit->keyword == prev + 1 ? run + 1 : 1;
        prev = hit->keyword;
        best = std::max(best, run);
      }
      h3 = k == 0 ? 0.0 : static_cast<double>(best) / static_cast<double>(k);
    }

    const double h4 = mention.confidence;

    const std::size_t window_len = win_end - win_begin + 1;
    const double h5 = static_cast<double>(keywords_in_window) /
                      static_cast<double>(window_len);

    const double h6 =
        (cand_begin > 0 &&
         is_linking_word(text.lexicon->word(tokens[cand_begin - 1].word())))
            ? 1.0
            : 0.0;

    const double h7 = std::min(1.0, paragraph.score);

    candidate.candidate.clear();
    candidate.score = 0.25 * h1 + 0.20 * h2 + 0.10 * h3 + 0.10 * h4 +
                      0.10 * h5 + 0.15 * h6 + 0.10 * h7;
    candidate.ref = paragraph.paragraph.ref;
    candidate.type = mention.type;
    candidate.window_first = static_cast<std::uint32_t>(win_begin);
    candidate.window_tokens = static_cast<std::uint32_t>(window_len);
    emit(candidate, [&] {
      surface_span(text, mention.first_token, mention.token_count,
                   candidate.candidate);
    });
  }
}

void AnswerProcessor::offer_candidates(const ProcessedQuestion& question,
                                       const ScoredParagraph& paragraph,
                                       std::size_t index,
                                       const CorpusAnalysis& analysis,
                                       TopAnswers<CandidateAnswer>& top,
                                       AnswerWork* work) const {
  score_candidates(question, paragraph, analysis, work,
                   [&](const CandidateAnswer& candidate, const auto& name) {
                     // A candidate the top would reject whatever its text
                     // gets none.
                     if (!top.admits(candidate.score)) return;
                     name();
                     top.offer(candidate, index);
                   });
}

Answer AnswerProcessor::answer(CandidateAnswer candidate,
                               const CorpusAnalysis& analysis) const {
  Answer answer;
  answer.window = trim_window(
      surface_span(analysis.of(candidate.ref), candidate.window_first,
                   candidate.window_tokens),
      candidate.candidate, config_.answer_window_bytes);
  answer.candidate = std::move(candidate.candidate);
  answer.score = candidate.score;
  answer.ref = candidate.ref;
  answer.type = candidate.type;
  return answer;
}

std::vector<Answer> AnswerProcessor::process_paragraph(
    const ProcessedQuestion& question, const ScoredParagraph& paragraph,
    const CorpusAnalysis& analysis, AnswerWork* work) const {
  std::vector<Answer> answers;
  score_candidates(question, paragraph, analysis, work,
                   [&](const CandidateAnswer& candidate, const auto& name) {
                     name();
                     answers.push_back(answer(candidate, analysis));
                   });
  return answers;
}

std::vector<Answer> AnswerProcessor::process(
    const ProcessedQuestion& question,
    std::span<const ScoredParagraph> paragraphs,
    const CorpusAnalysis& analysis, AnswerWork* work) const {
  TopAnswers<CandidateAnswer> top(config_.answers_requested);
  for (std::size_t i = 0; i < paragraphs.size(); ++i) {
    offer_candidates(question, paragraphs[i], i, analysis, top, work);
  }
  auto kept = top.take();
  std::vector<Answer> answers;
  answers.reserve(kept.size());
  for (auto& ranked : kept) {
    answers.push_back(answer(std::move(ranked.answer), analysis));
  }
  return answers;
}

}  // namespace qadist::qa
