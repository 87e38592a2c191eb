#include "cluster/plan.hpp"

namespace qadist::cluster {

double QuestionPlan::total_cpu_seconds() const {
  double cpu = qp.cpu_seconds + po.cpu_seconds + answer_sort.cpu_seconds;
  for (const auto& u : pr_units) cpu += u.demand.cpu_seconds + u.ps.cpu_seconds;
  for (const auto& u : ap_units) cpu += u.demand.cpu_seconds;
  return cpu;
}

double QuestionPlan::total_disk_bytes() const {
  double bytes = 0.0;
  for (const auto& u : pr_units) bytes += u.demand.disk_bytes;
  for (const auto& u : ap_units) bytes += u.demand.disk_bytes;
  return bytes;
}

void scale_plan(QuestionPlan& plan, double factor) {
  const auto scale_demand = [factor](Demand& d) {
    d.cpu_seconds *= factor;
    d.disk_bytes *= factor;
  };
  const auto scale_bytes = [factor](std::size_t& b) {
    b = static_cast<std::size_t>(static_cast<double>(b) * factor);
  };
  scale_demand(plan.qp);
  scale_demand(plan.po);
  scale_demand(plan.answer_sort);
  for (auto& u : plan.pr_units) {
    scale_demand(u.demand);
    scale_demand(u.ps);
    scale_bytes(u.bytes_out);
  }
  for (auto& u : plan.ap_units) {
    scale_demand(u.demand);
    scale_bytes(u.bytes_in);
    scale_bytes(u.answer_bytes_out);
  }
}

QuestionPlan make_plan(const qa::Engine& engine, const CostModel& cost,
                       const corpus::Question& question) {
  QuestionPlan plan;
  plan.source = question;
  plan.processed = engine.process_question(question.id, question.text);
  plan.qp = cost.qp();
  plan.question_bytes = question.text.size();
  for (const auto& k : plan.processed.keywords) {
    plan.keyword_bytes += k.size() + 1;
  }

  // --- PR + PS, per sub-collection (the PR iterative unit).
  std::vector<qa::ScoredParagraph> scored;
  for (std::size_t sub = 0; sub < engine.subcollection_count(); ++sub) {
    qa::RetrievalWork work;
    auto paragraphs = engine.retrieve(sub, plan.processed, &work);

    QuestionPlan::PrUnit unit;
    unit.demand = cost.pr(work);
    unit.paragraphs = paragraphs.size();
    std::size_t bytes = 0;
    for (const auto& p : paragraphs) bytes += p.text.size();
    unit.bytes_out = bytes;
    unit.ps = cost.ps(bytes);
    plan.pr_units.push_back(unit);

    for (auto& p : paragraphs) {
      scored.push_back(engine.score(plan.processed, std::move(p)));
    }
  }

  // --- PO (centralized).
  auto accepted = engine.order(std::move(scored));
  plan.po = cost.po();
  plan.accepted_paragraphs = accepted.size();

  // --- AP, per accepted paragraph (the AP iterative unit), in rank order.
  // Every candidate's text is built: its bytes are what the unit ships.
  qa::TopAnswers<qa::Answer> top(engine.config().answers.answers_requested);
  plan.ap_units.reserve(accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    const auto& paragraph = accepted[i];
    qa::AnswerWork work;
    auto answers = engine.answer_paragraph(plan.processed, paragraph, &work);

    QuestionPlan::ApUnit unit;
    unit.demand = cost.ap(work);
    unit.bytes_in = paragraph.paragraph.text.size();
    for (const auto& a : answers) {
      unit.answer_bytes_out += a.candidate.size() + a.window.size();
    }
    plan.ap_units.push_back(unit);

    for (const auto& a : answers) top.offer(a, i);
  }

  for (auto& ranked : top.take()) {
    plan.answers.push_back(std::move(ranked.answer));
  }
  plan.answer_sort = cost.answer_sort(plan.answers.size());
  for (const auto& a : plan.answers) {
    plan.answer_bytes += a.candidate.size() + a.window.size();
  }
  return plan;
}

}  // namespace qadist::cluster
