#include "simnet/link_fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simnet/link.hpp"
#include "simnet/process.hpp"

namespace qadist::simnet {
namespace {

TEST(LinkFaultPlanTest, DefaultPlanIsDisabled) {
  LinkFaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.drop_probability = 0.1;
  EXPECT_TRUE(plan.enabled());
  plan = LinkFaultPlan{};
  plan.partitions.push_back(PartitionWindow{1.0, 2.0, {0}});
  EXPECT_TRUE(plan.enabled());
}

TEST(LinkFaultPlanTest, MalformedPlansPanic) {
  LinkFaultPlan bad_drop;
  bad_drop.drop_probability = 1.5;
  EXPECT_DEATH(LinkFaultInjector(bad_drop, 1), "");
  LinkFaultPlan bad_duplicate;
  bad_duplicate.duplicate_probability = -0.1;
  EXPECT_DEATH(LinkFaultInjector(bad_duplicate, 1), "");
  LinkFaultPlan bad_jitter;
  bad_jitter.jitter_min = 0.5;
  bad_jitter.jitter_max = 0.1;
  EXPECT_DEATH(LinkFaultInjector(bad_jitter, 1), "");
  LinkFaultPlan bad_window;
  bad_window.partitions.push_back(PartitionWindow{2.0, 1.0, {0}});
  EXPECT_DEATH(LinkFaultInjector(bad_window, 1), "");
  LinkFaultPlan empty_window;
  empty_window.partitions.push_back(PartitionWindow{1.0, 2.0, {}});
  EXPECT_DEATH(LinkFaultInjector(empty_window, 1), "");
}

TEST(LinkFaultInjectorTest, SameSeedReplaysTheSameSchedule) {
  LinkFaultPlan plan;
  plan.drop_probability = 0.3;
  plan.duplicate_probability = 0.2;
  plan.jitter_min = 0.001;
  plan.jitter_max = 0.01;
  LinkFaultInjector a(plan, 42);
  LinkFaultInjector b(plan, 42);
  for (int i = 0; i < 200; ++i) {
    const auto va = a.decide(0, 1, 0.1 * i);
    const auto vb = b.decide(0, 1, 0.1 * i);
    EXPECT_EQ(va.delivered, vb.delivered);
    EXPECT_EQ(va.duplicated, vb.duplicated);
    EXPECT_DOUBLE_EQ(va.jitter, vb.jitter);
  }
  EXPECT_EQ(a.random_drops(), b.random_drops());
  EXPECT_EQ(a.duplicates(), b.duplicates());
  EXPECT_GT(a.random_drops(), 0u);
  EXPECT_GT(a.duplicates(), 0u);
  EXPECT_EQ(a.messages(), 200u);
}

TEST(LinkFaultInjectorTest, DropRateIsRoughlyHonored) {
  LinkFaultPlan plan;
  plan.drop_probability = 0.25;
  LinkFaultInjector inj(plan, 7);
  const int n = 10000;
  for (int i = 0; i < n; ++i) (void)inj.decide(0, 1, 0.0);
  const double rate = static_cast<double>(inj.random_drops()) / n;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(LinkFaultInjectorTest, JitterStaysInBounds) {
  LinkFaultPlan plan;
  plan.jitter_min = 0.002;
  plan.jitter_max = 0.008;
  LinkFaultInjector inj(plan, 3);
  for (int i = 0; i < 500; ++i) {
    const auto v = inj.decide(0, 1, 0.0);
    EXPECT_TRUE(v.delivered);
    EXPECT_GE(v.jitter, 0.002);
    EXPECT_LE(v.jitter, 0.008);
  }
}

TEST(LinkFaultInjectorTest, PartitionSeparatesSidesBothWaysWhileActive) {
  LinkFaultPlan plan;
  plan.partitions.push_back(PartitionWindow{10.0, 20.0, {2, 3}});
  LinkFaultInjector inj(plan, 1);
  // Across the cut, both directions, only inside [from, until).
  EXPECT_TRUE(inj.partitioned(0, 2, 15.0));
  EXPECT_TRUE(inj.partitioned(2, 0, 15.0));
  EXPECT_FALSE(inj.partitioned(0, 2, 9.9));
  EXPECT_FALSE(inj.partitioned(0, 2, 20.0));  // half-open window
  // Same side of the cut: both isolated, or both in the majority.
  EXPECT_FALSE(inj.partitioned(2, 3, 15.0));
  EXPECT_FALSE(inj.partitioned(0, 1, 15.0));
  // The verdict counts it as a partition drop, not a random one.
  const auto v = inj.decide(0, 2, 15.0);
  EXPECT_FALSE(v.delivered);
  EXPECT_EQ(inj.partition_drops(), 1u);
  EXPECT_EQ(inj.random_drops(), 0u);
}

TEST(LinkFaultInjectorTest, BroadcastDroppedOnlyWhenSenderIsolated) {
  LinkFaultPlan plan;
  plan.partitions.push_back(PartitionWindow{0.0, 10.0, {1}});
  LinkFaultInjector inj(plan, 1);
  EXPECT_FALSE(inj.decide(1, kBroadcastNode, 5.0).delivered);
  EXPECT_TRUE(inj.decide(0, kBroadcastNode, 5.0).delivered);
  EXPECT_TRUE(inj.decide(1, kBroadcastNode, 15.0).delivered);
}

// --- Link::send integration -------------------------------------------------

SimProcess send_one(Simulation& sim, Link& link, double bytes,
                    std::uint32_t src, std::uint32_t dst,
                    std::vector<double>& finish, std::vector<LinkVerdict>& out) {
  const LinkVerdict v = co_await link.send(bytes, src, dst);
  finish.push_back(sim.now());
  out.push_back(v);
}

TEST(LinkSendTest, WithoutInjectorSendMatchesTransferTiming) {
  // No injector: a lone message is delivered after the per-message latency
  // plus its bytes at the full link bandwidth.
  Simulation sim;
  Link link(sim, "l", Bandwidth{100.0}, 0.5);
  std::vector<double> t;
  std::vector<LinkVerdict> verdicts;
  send_one(sim, link, 100.0, 0, 1, t, verdicts);
  sim.run();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t[0], 0.5 + 100.0 / 100.0);
  EXPECT_TRUE(verdicts[0].delivered);
  EXPECT_DOUBLE_EQ(link.bytes_served(), 100.0);
}

TEST(LinkSendTest, DroppedMessagePaysLatencyButNoBandwidth) {
  Simulation sim;
  Link link(sim, "l", Bandwidth{100.0}, 0.5);
  LinkFaultPlan plan;
  plan.drop_probability = 1.0;
  LinkFaultInjector inj(plan, 1);
  link.set_fault_injector(&inj);
  std::vector<double> t;
  std::vector<LinkVerdict> verdicts;
  send_one(sim, link, 100.0, 0, 1, t, verdicts);
  sim.run();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t[0], 0.5);  // latency only: the payload never crossed
  EXPECT_FALSE(verdicts[0].delivered);
  EXPECT_DOUBLE_EQ(link.bytes_served(), 0.0);
}

TEST(LinkSendTest, DuplicatedMessagePaysBandwidthTwice) {
  Simulation sim;
  Link link(sim, "l", Bandwidth{100.0}, 0.0);
  LinkFaultPlan plan;
  plan.duplicate_probability = 1.0;
  LinkFaultInjector inj(plan, 1);
  link.set_fault_injector(&inj);
  std::vector<double> t;
  std::vector<LinkVerdict> verdicts;
  send_one(sim, link, 100.0, 0, 1, t, verdicts);
  sim.run();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t[0], 2.0);  // 200 bytes at 100 B/s
  EXPECT_TRUE(verdicts[0].delivered);
  EXPECT_TRUE(verdicts[0].duplicated);
  EXPECT_DOUBLE_EQ(link.bytes_served(), 200.0);
}

}  // namespace
}  // namespace qadist::simnet
