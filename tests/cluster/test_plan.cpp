#include "cluster/plan.hpp"

#include <gtest/gtest.h>

namespace qadist::cluster {
namespace {

// ------------------------------------------------------------ scale_plan

TEST(ScalePlanTest, ScalesDemandsAndBytes) {
  QuestionPlan plan;
  plan.qp = Demand{2.0, 0.0};
  plan.po = Demand{0.5, 0.0};
  plan.answer_sort = Demand{0.1, 0.0};
  QuestionPlan::PrUnit pr;
  pr.demand = Demand{1.0, 1000.0};
  pr.ps = Demand{0.2, 0.0};
  pr.bytes_out = 800;
  plan.pr_units.push_back(pr);
  QuestionPlan::ApUnit ap;
  ap.demand = Demand{3.0, 0.0};
  ap.bytes_in = 600;
  ap.answer_bytes_out = 100;
  plan.ap_units.push_back(ap);

  const double before_cpu = plan.total_cpu_seconds();
  scale_plan(plan, 0.5);
  EXPECT_DOUBLE_EQ(plan.total_cpu_seconds(), before_cpu * 0.5);
  EXPECT_DOUBLE_EQ(plan.pr_units[0].demand.disk_bytes, 500.0);
  EXPECT_EQ(plan.pr_units[0].bytes_out, 400u);
  EXPECT_EQ(plan.ap_units[0].bytes_in, 300u);
  EXPECT_EQ(plan.ap_units[0].answer_bytes_out, 50u);
}

TEST(ScalePlanTest, UnitScaleIsIdentity) {
  QuestionPlan plan;
  QuestionPlan::ApUnit ap;
  ap.demand = Demand{3.0, 7.0};
  ap.bytes_in = 600;
  plan.ap_units.push_back(ap);
  scale_plan(plan, 1.0);
  EXPECT_DOUBLE_EQ(plan.ap_units[0].demand.cpu_seconds, 3.0);
  EXPECT_EQ(plan.ap_units[0].bytes_in, 600u);
}

TEST(ScalePlanTest, StructureUnchanged) {
  QuestionPlan plan;
  plan.ap_units.resize(7);
  plan.pr_units.resize(3);
  qa::Answer a;
  a.candidate = "X";
  plan.answers.push_back(a);
  scale_plan(plan, 0.3);
  EXPECT_EQ(plan.ap_units.size(), 7u);
  EXPECT_EQ(plan.pr_units.size(), 3u);
  EXPECT_EQ(plan.answers.size(), 1u);
  EXPECT_EQ(plan.answers[0].candidate, "X");
}

}  // namespace
}  // namespace qadist::cluster
