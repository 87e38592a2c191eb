#include "qa/answer_processing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "qa/text_match.hpp"

namespace qadist::qa {

namespace {

/// Trims `window` to `budget` bytes, keeping the candidate centered — the
/// paper's 50/250-byte answer presentation (Table 1). Cuts land on token
/// boundaries (spaces) where possible.
std::string trim_window(std::string window, const std::string& candidate,
                        std::size_t budget) {
  if (window.size() <= budget) return window;
  const std::size_t cand_pos = window.find(candidate);
  const std::size_t cand_mid =
      cand_pos == std::string::npos ? window.size() / 2
                                    : cand_pos + candidate.size() / 2;
  std::size_t begin = cand_mid > budget / 2 ? cand_mid - budget / 2 : 0;
  if (begin + budget > window.size()) begin = window.size() - budget;
  // Snap to token boundaries (never cutting into the candidate itself).
  std::size_t end = begin + budget;
  if (begin > 0) {
    const std::size_t space = window.find(' ', begin);
    if (space != std::string::npos &&
        (cand_pos == std::string::npos || space < cand_pos)) {
      begin = space + 1;
    }
  }
  if (end < window.size()) {
    const std::size_t space = window.rfind(' ', end);
    if (space != std::string::npos && space > begin &&
        (cand_pos == std::string::npos ||
         space >= cand_pos + candidate.size())) {
      end = space;
    }
  }
  return window.substr(begin, end - begin);
}

bool is_linking_word(std::string_view w) {
  return w == "is" || w == "was" || w == "in" || w == "by" || w == "of" ||
         w == "for" || w == "to" || w == "cost" || w == "treat";
}

/// True when every non-stopword candidate token maps to a question
/// keyword — i.e. the candidate is (part of) the question's subject.
bool candidate_is_subject(const AnalyzedParagraph& text,
                          const std::vector<int>& keyword_map,
                          const EntityMention& mention) {
  for (std::uint32_t i = mention.first_token;
       i < mention.first_token + mention.token_count; ++i) {
    if (keyword_map[i] < 0 &&
        text.lexicon->norm(text.tokens[i].word()) != ir::kStopword) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<Answer> AnswerProcessor::process_paragraph(
    const ProcessedQuestion& question, const ScoredParagraph& paragraph,
    const CorpusAnalysis& analysis, AnswerWork* work) const {
  const AnalyzedParagraph text = analysis.of(paragraph.paragraph);
  const auto& tokens = text.tokens;
  const auto keyword_map = map_keywords(text, question.keywords);

  if (work != nullptr) {
    ++work->paragraphs_processed;
    work->tokens_scanned += tokens.size();
  }

  const std::size_t k = question.keywords.size();
  std::vector<Answer> answers;

  for (const EntityMention& mention : text.mentions) {
    if (work != nullptr) ++work->candidates_considered;

    // Type filter: the candidate must carry the expected answer type
    // (kUnknown questions accept any entity).
    if (question.answer_type != corpus::EntityType::kUnknown &&
        mention.type != question.answer_type) {
      continue;
    }
    if (candidate_is_subject(text, keyword_map, mention)) continue;

    // --- Build the answer window: candidate plus the nearest occurrence of
    // each present keyword, clipped to max_window_tokens around the
    // candidate.
    const std::size_t cand_begin = mention.first_token;
    const std::size_t cand_end = mention.first_token + mention.token_count - 1;
    std::size_t win_begin = cand_begin;
    std::size_t win_end = cand_end;
    double distance_sum = 0.0;
    std::size_t distance_terms = 0;

    std::vector<std::ptrdiff_t> nearest(k, -1);
    for (std::size_t t = 0; t < keyword_map.size(); ++t) {
      const int m = keyword_map[t];
      if (m < 0) continue;
      const auto mk = static_cast<std::size_t>(m);
      const auto dist_now =
          t < cand_begin ? cand_begin - t : (t > cand_end ? t - cand_end : 0);
      if (nearest[mk] < 0) {
        nearest[mk] = static_cast<std::ptrdiff_t>(t);
      } else {
        const auto prev = static_cast<std::size_t>(nearest[mk]);
        const auto dist_prev = prev < cand_begin ? cand_begin - prev
                               : (prev > cand_end ? prev - cand_end : 0);
        if (dist_now < dist_prev) nearest[mk] = static_cast<std::ptrdiff_t>(t);
      }
    }

    std::size_t keywords_in_window = 0;
    for (std::size_t m = 0; m < k; ++m) {
      if (nearest[m] < 0) continue;
      const auto t = static_cast<std::size_t>(nearest[m]);
      const std::size_t dist =
          t < cand_begin ? cand_begin - t : (t > cand_end ? t - cand_end : 0);
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
      int prev = -1;
      std::size_t run = 0;
      std::size_t best = 0;
      for (std::size_t t = win_begin; t <= win_end; ++t) {
        const int m = keyword_map[t];
        if (m < 0) continue;
        run = (m == prev + 1) ? run + 1 : 1;
        prev = m;
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

    Answer answer;
    answer.score = 0.25 * h1 + 0.20 * h2 + 0.10 * h3 + 0.10 * h4 + 0.10 * h5 +
                   0.15 * h6 + 0.10 * h7;
    answer.candidate =
        surface_span(text, mention.first_token, mention.token_count);
    answer.window = trim_window(surface_span(text, win_begin, window_len),
                                answer.candidate,
                                config_.answer_window_bytes);
    answer.ref = paragraph.paragraph.ref;
    answer.type = mention.type;
    answers.push_back(std::move(answer));
  }
  return answers;
}

std::vector<Answer> AnswerProcessor::process(
    const ProcessedQuestion& question,
    std::span<const ScoredParagraph> paragraphs,
    const CorpusAnalysis& analysis, AnswerWork* work) const {
  std::vector<Answer> all;
  for (const auto& p : paragraphs) {
    auto batch = process_paragraph(question, p, analysis, work);
    all.insert(all.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
  return sort_answers(std::move(all), config_.answers_requested);
}

std::vector<Answer> sort_answers(std::vector<Answer> answers,
                                 std::size_t limit) {
  // Deduplicate by candidate text, keeping the best-scoring window.
  std::unordered_map<std::string, std::size_t> best;
  std::vector<Answer> unique;
  unique.reserve(answers.size());
  for (auto& a : answers) {
    const auto it = best.find(a.candidate);
    if (it == best.end()) {
      best.emplace(a.candidate, unique.size());
      unique.push_back(std::move(a));
    } else if (a.score > unique[it->second].score) {
      unique[it->second] = std::move(a);
    }
  }
  std::sort(unique.begin(), unique.end(), [](const Answer& a, const Answer& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.candidate != b.candidate) return a.candidate < b.candidate;
    return a.ref < b.ref;
  });
  if (unique.size() > limit) unique.resize(limit);
  return unique;
}

}  // namespace qadist::qa
