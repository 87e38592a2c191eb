#pragma once

// Test-only references for paragraph scoring and answer processing: the
// token-walk formulation, which maps every token of a paragraph to a
// keyword and runs each heuristic over that map, and sort_answers, which
// merges every answer of a question before cutting to the best. The
// pipeline scores over per-question keyword hits and keeps a running top
// (qa::TopAnswers); the oracle tests compare the two bit for bit.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "qa/answer_processing.hpp"
#include "qa/paragraph_analysis.hpp"
#include "qa/paragraph_scoring.hpp"
#include "qa/text_match.hpp"

namespace qadist::testing {

/// Maps each paragraph token to the index of the first keyword its norm
/// equals, or -1; stopwords never match. Each keyword is looked up in the
/// lexicon by its text.
inline std::vector<int> map_keywords(const qa::AnalyzedParagraph& paragraph,
                                     std::span<const std::string> keywords) {
  std::vector<ir::NormId> norms;
  norms.reserve(keywords.size());
  for (const auto& keyword : keywords) {
    norms.push_back(paragraph.lexicon->find_norm(keyword));
  }
  std::vector<int> map(paragraph.tokens.size(), -1);
  for (std::size_t t = 0; t < paragraph.tokens.size(); ++t) {
    const ir::NormId norm = paragraph.lexicon->norm(paragraph.tokens[t].word());
    if (norm == ir::kStopword) continue;
    for (std::size_t k = 0; k < norms.size(); ++k) {
      if (norms[k] == norm) {
        map[t] = static_cast<int>(k);
        break;
      }
    }
  }
  return map;
}

/// PS's rank value of `text` for `question`, walking every token.
inline double reference_score(const qa::ParagraphScorer::Weights& weights,
                              const qa::ProcessedQuestion& question,
                              const qa::AnalyzedParagraph& text) {
  const auto map = map_keywords(text, question.keywords);
  const std::size_t k = question.keywords.size();

  // H1: completeness.
  std::vector<bool> present(k, false);
  for (int m : map)
    if (m >= 0) present[static_cast<std::size_t>(m)] = true;
  const auto present_count = static_cast<std::size_t>(
      std::count(present.begin(), present.end(), true));
  const double h1 = k == 0 ? 0.0
                           : static_cast<double>(present_count) /
                                 static_cast<double>(k);

  // H2: longest run of keyword hits in question order.
  std::size_t best_run = 0;
  {
    int prev_keyword = -1;
    std::size_t run = 0;
    for (int m : map) {
      if (m < 0) continue;
      run = m == prev_keyword + 1 ? run + 1 : 1;
      prev_keyword = m;
      best_run = std::max(best_run, run);
    }
  }
  const double h2 =
      k == 0 ? 0.0 : static_cast<double>(best_run) / static_cast<double>(k);

  // H3: smallest token window containing one of each present keyword,
  // sliding over every token.
  double h3 = 0.0;
  if (present_count > 0) {
    std::vector<std::size_t> need_count(k, 0);
    std::size_t covered = 0;
    std::size_t best_window = std::numeric_limits<std::size_t>::max();
    std::size_t left = 0;
    for (std::size_t right = 0; right < map.size(); ++right) {
      const int m = map[right];
      if (m >= 0 && present[static_cast<std::size_t>(m)]) {
        if (need_count[static_cast<std::size_t>(m)]++ == 0) ++covered;
      }
      while (covered == present_count) {
        best_window = std::min(best_window, right - left + 1);
        const int lm = map[left];
        if (lm >= 0 && present[static_cast<std::size_t>(lm)]) {
          if (--need_count[static_cast<std::size_t>(lm)] == 0) --covered;
        }
        ++left;
      }
    }
    h3 = static_cast<double>(present_count) /
         static_cast<double>(std::max(best_window, present_count));
  }
  return weights.completeness * h1 + weights.sequence * h2 +
         weights.proximity * h3;
}

/// AP's answers for one paragraph, with their text, walking every token for
/// every candidate.
inline std::vector<qa::Answer> reference_answers(
    const qa::AnswerProcessor::Config& config,
    const qa::ProcessedQuestion& question, const qa::ScoredParagraph& paragraph,
    const qa::AnalyzedParagraph& text, qa::AnswerWork* work = nullptr) {
  const auto& tokens = text.tokens;
  const auto keyword_map = map_keywords(text, question.keywords);
  if (work != nullptr) {
    ++work->paragraphs_processed;
    work->tokens_scanned += tokens.size();
  }
  const auto is_linking_word = [](std::string_view w) {
    return w == "is" || w == "was" || w == "in" || w == "by" || w == "of" ||
           w == "for" || w == "to" || w == "cost" || w == "treat";
  };
  const auto distance = [](std::size_t t, std::size_t begin, std::size_t end) {
    return t < begin ? begin - t : (t > end ? t - end : 0);
  };

  const std::size_t k = question.keywords.size();
  std::vector<qa::Answer> answers;
  for (const qa::EntityMention& mention : text.mentions) {
    if (work != nullptr) ++work->candidates_considered;
    if (question.answer_type != corpus::EntityType::kUnknown &&
        mention.type != question.answer_type) {
      continue;
    }
    bool subject = true;
    for (std::uint32_t i = mention.first_token;
         i < mention.first_token + mention.token_count; ++i) {
      if (keyword_map[i] < 0 &&
          text.lexicon->norm(tokens[i].word()) != ir::kStopword) {
        subject = false;
      }
    }
    if (subject) continue;

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
      auto& best = nearest[static_cast<std::size_t>(m)];
      if (best < 0 || distance(t, cand_begin, cand_end) <
                          distance(static_cast<std::size_t>(best), cand_begin,
                                   cand_end)) {
        best = static_cast<std::ptrdiff_t>(t);
      }
    }
    std::size_t keywords_in_window = 0;
    for (std::size_t m = 0; m < k; ++m) {
      if (nearest[m] < 0) continue;
      const auto t = static_cast<std::size_t>(nearest[m]);
      const std::size_t dist = distance(t, cand_begin, cand_end);
      if (dist <= config.max_window_tokens) {
        win_begin = std::min(win_begin, t);
        win_end = std::max(win_end, t);
        distance_sum += static_cast<double>(dist);
        ++distance_terms;
        ++keywords_in_window;
      }
    }
    if (keywords_in_window == 0) continue;
    if (work != nullptr) ++work->windows_scored;

    const double h1 = k == 0 ? 0.0
                             : static_cast<double>(keywords_in_window) /
                                   static_cast<double>(k);
    const double mean_dist =
        distance_terms == 0
            ? 0.0
            : distance_sum / static_cast<double>(distance_terms);
    const double h2 = 1.0 / (1.0 + mean_dist);
    double h3 = 0.0;
    {
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

    qa::Answer answer;
    answer.score = 0.25 * h1 + 0.20 * h2 + 0.10 * h3 + 0.10 * h4 + 0.10 * h5 +
                   0.15 * h6 + 0.10 * h7;
    answer.candidate =
        qa::surface_span(text, mention.first_token, mention.token_count);
    answer.window =
        qa::trim_window(qa::surface_span(text, win_begin, window_len),
                        answer.candidate, config.answer_window_bytes);
    answer.ref = paragraph.paragraph.ref;
    answer.type = mention.type;
    answers.push_back(std::move(answer));
  }
  return answers;
}

/// Merges answer lists, deduplicates by candidate string (keeping each
/// candidate's best score, the first one seen on a tie), sorts descending
/// and truncates to `limit`. Ties break on candidate text, then paragraph
/// address.
inline std::vector<qa::Answer> sort_answers(std::vector<qa::Answer> answers,
                                            std::size_t limit) {
  std::unordered_map<std::string, std::size_t> best;
  std::vector<qa::Answer> unique;
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
  std::sort(unique.begin(), unique.end(),
            [](const qa::Answer& a, const qa::Answer& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.candidate != b.candidate) return a.candidate < b.candidate;
              return a.ref < b.ref;
            });
  if (unique.size() > limit) unique.resize(limit);
  return unique;
}

}  // namespace qadist::testing
