#include "sched/load_table.hpp"

#include <gtest/gtest.h>

namespace qadist::sched {
namespace {

TEST(LoadTableTest, UpdateCreatesMembership) {
  LoadTable t;
  EXPECT_FALSE(t.is_member(3));
  t.update(3, ResourceLoad{1.0, 0.5}, 0.0);
  EXPECT_TRUE(t.is_member(3));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.load_of(3), (ResourceLoad{1.0, 0.5}));
}

TEST(LoadTableTest, SweepDropsPeersConfirmedDead) {
  LoadTable t;
  t.update(0, ResourceLoad{}, 0.0);
  t.update(1, ResourceLoad{}, 5.0);
  const auto fired = t.sweep(7.0);
  EXPECT_FALSE(t.is_member(0));  // last heard at 0: 7s of silence > 3s
  EXPECT_TRUE(t.is_member(1));   // 2s of silence: not even suspected
  EXPECT_EQ(t.members(), std::vector<NodeId>{1});
  ASSERT_EQ(fired.size(), 2u);  // one sweep suspects node 0, then confirms
  EXPECT_EQ(fired[0].to, PeerState::kSuspect);
  EXPECT_EQ(fired[1].to, PeerState::kDead);
  EXPECT_EQ(t.detector().deaths_confirmed(), 1u);
}

TEST(LoadTableTest, SuspectsStayMembersUntilConfirmedDead) {
  LoadTable t;
  t.update(0, ResourceLoad{1.0, 0.0}, 0.0);
  t.sweep(2.5);  // 2.5s of silence > 2 beats: suspected, still a member
  EXPECT_TRUE(t.is_member(0));
  EXPECT_TRUE(t.is_stale(0));
  EXPECT_DOUBLE_EQ(t.load_of(0).cpu, 1.0);
  t.sweep(3.0);  // silence must exceed the timeout, not reach it
  EXPECT_TRUE(t.is_member(0));
  t.sweep(3.5);
  EXPECT_FALSE(t.is_member(0));
  EXPECT_FALSE(t.is_stale(0));
}

TEST(LoadTableTest, RejoinAfterConfirmedDeath) {
  LoadTable t;
  EXPECT_EQ(t.update(0, ResourceLoad{}, 0.0), PeerState::kAlive);
  t.sweep(10.0);
  EXPECT_FALSE(t.is_member(0));
  // Broadcasting again = rejoin, and the broadcast says so.
  EXPECT_EQ(t.update(0, ResourceLoad{2.0, 0.0}, 10.0), PeerState::kDead);
  EXPECT_TRUE(t.is_member(0));
  EXPECT_FALSE(t.is_stale(0));
  EXPECT_DOUBLE_EQ(t.load_of(0).cpu, 2.0);
  EXPECT_EQ(t.detector().rejoins(), 1u);
}

TEST(LoadTableTest, RemoveIsNotADetectorVerdict) {
  LoadTable t;
  t.update(0, ResourceLoad{}, 0.0);
  t.remove(0);  // a reply timeout fired on node 0
  EXPECT_FALSE(t.is_member(0));
  EXPECT_EQ(t.detector().state(0), PeerState::kAlive);
  EXPECT_EQ(t.detector().suspicions_raised(), 0u);
  EXPECT_EQ(t.detector().deaths_confirmed(), 0u);
  // Its next broadcast brings it back, and is no rejoin.
  EXPECT_EQ(t.update(0, ResourceLoad{}, 1.0), PeerState::kAlive);
  EXPECT_TRUE(t.is_member(0));
  EXPECT_EQ(t.detector().rejoins(), 0u);
}

TEST(LoadTableTest, LeastLoadedRespectsWeights) {
  LoadTable t;
  t.update(0, ResourceLoad{0.1, 5.0}, 0.0);  // idle CPU, hammered disk
  t.update(1, ResourceLoad{5.0, 0.1}, 0.0);  // hammered CPU, idle disk
  // A CPU-bound module prefers node 0; a disk-bound module prefers node 1.
  EXPECT_EQ(*t.least_loaded(kApWeights), 0u);
  EXPECT_EQ(*t.least_loaded(kPrWeights), 1u);
}

TEST(LoadTableTest, LeastLoadedTieBreaksLow) {
  LoadTable t;
  t.update(2, ResourceLoad{1.0, 1.0}, 0.0);
  t.update(1, ResourceLoad{1.0, 1.0}, 0.0);
  EXPECT_EQ(*t.least_loaded(kQaWeights), 1u);
}

TEST(LoadTableTest, EmptyTableHasNoLeastLoaded) {
  LoadTable t;
  EXPECT_FALSE(t.least_loaded(kQaWeights).has_value());
}

TEST(LoadTableTest, StaleEntriesLoseToFreshOnes) {
  LoadTable t;
  t.update(0, ResourceLoad{5.0, 5.0}, 0.0);  // heavily loaded but trusted
  t.update(1, ResourceLoad{0.0, 0.0}, 0.0);  // idle but suspected
  t.suspect_hint(1, 0.5);
  EXPECT_TRUE(t.is_stale(1));
  EXPECT_FALSE(t.is_stale(0));
  // The fresh pass wins even against a better stale figure.
  EXPECT_EQ(*t.least_loaded(kQaWeights), 0u);
  // With every entry stale, the fallback pass still picks someone.
  t.suspect_hint(0, 0.5);
  EXPECT_EQ(*t.least_loaded(kQaWeights), 1u);
}

TEST(LoadTableTest, FreshBroadcastClearsStaleness) {
  LoadTable t;
  t.update(2, ResourceLoad{}, 0.0);
  t.suspect_hint(2, 0.5);
  EXPECT_TRUE(t.is_stale(2));
  EXPECT_EQ(t.update(2, ResourceLoad{1.0, 0.0}, 1.0), PeerState::kSuspect);
  EXPECT_FALSE(t.is_stale(2));
  EXPECT_EQ(t.detector().suspicions_cleared(), 1u);  // a false alarm
  t.sweep(3.5);  // silence-based suspicion goes stale the same way
  EXPECT_TRUE(t.is_stale(2));
  t.update(2, ResourceLoad{}, 3.6);
  EXPECT_FALSE(t.is_stale(2));
  // A hint about a non-member leaves the pool alone.
  t.suspect_hint(9, 4.0);
  EXPECT_FALSE(t.is_member(9));
  EXPECT_FALSE(t.is_stale(9));
}

TEST(LoadTableTest, ReservationsAddAndClearOnUpdate) {
  LoadTable t;
  t.update(0, ResourceLoad{1.0, 0.0}, 0.0);
  t.reserve(0, ResourceLoad{0.79, 0.21});
  EXPECT_NEAR(t.load_of(0).cpu, 1.79, 1e-12);
  EXPECT_NEAR(t.load_of(0).disk, 0.21, 1e-12);
  t.reserve(0, ResourceLoad{0.79, 0.21});
  EXPECT_NEAR(t.load_of(0).cpu, 2.58, 1e-12);
  // Next broadcast reflects reality; reservations reset.
  t.update(0, ResourceLoad{2.0, 0.4}, 1.0);
  EXPECT_NEAR(t.load_of(0).cpu, 2.0, 1e-12);
}

TEST(LoadTableTest, MeanPoolLoadAveragesTheWeightedLoads) {
  LoadTable t;
  EXPECT_DOUBLE_EQ(mean_pool_load(t, kQaWeights), 0.0);  // empty pool
  t.update(0, ResourceLoad{1.0, 0.0}, 0.0);
  t.update(1, ResourceLoad{3.0, 0.0}, 0.0);
  const double expected = (load_function(ResourceLoad{1.0, 0.0}, kQaWeights) +
                           load_function(ResourceLoad{3.0, 0.0}, kQaWeights)) /
                          2.0;
  EXPECT_DOUBLE_EQ(mean_pool_load(t, kQaWeights), expected);
}

TEST(LoadTableTest, ReservationAffectsLeastLoaded) {
  LoadTable t;
  t.update(0, ResourceLoad{}, 0.0);
  t.update(1, ResourceLoad{}, 0.0);
  t.reserve(0, ResourceLoad{1.0, 0.0});
  EXPECT_EQ(*t.least_loaded(kQaWeights), 1u);
}

}  // namespace
}  // namespace qadist::sched
