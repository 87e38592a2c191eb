#include "sched/failure_detector.hpp"

#include <gtest/gtest.h>

#include <string>

namespace qadist::sched {
namespace {

FailureDetectorConfig config() {
  FailureDetectorConfig cfg;
  cfg.heartbeat_period = 1.0;
  cfg.suspect_after_missed = 2.0;
  cfg.confirm_dead_after = 3.0;
  return cfg;
}

TEST(FailureDetectorTest, UnknownPeersReadAlive) {
  FailureDetector det(config());
  EXPECT_EQ(det.state(5), PeerState::kAlive);
  EXPECT_FALSE(det.known(5));
  // Silence never convicts a peer that was never enrolled.
  EXPECT_TRUE(det.sweep(100.0).empty());
}

TEST(FailureDetectorTest, FullLifecycleAliveSuspectDeadRejoin) {
  FailureDetector det(config());
  det.heartbeat(1, 0.0);
  det.heartbeat(1, 1.0);  // on schedule
  EXPECT_EQ(det.state(1), PeerState::kAlive);

  // Silence passes the 2-beat threshold: suspect (strict >, so exactly 2
  // beats of silence is still tolerated).
  EXPECT_TRUE(det.sweep(3.0).empty());
  auto fired = det.sweep(3.5);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].node, 1u);
  EXPECT_EQ(fired[0].from, PeerState::kAlive);
  EXPECT_EQ(fired[0].to, PeerState::kSuspect);
  EXPECT_EQ(det.state(1), PeerState::kSuspect);

  // Repeated sweeps are edge-triggered: nothing new fires.
  EXPECT_TRUE(det.sweep(3.5).empty());

  // Silence passes confirm_dead_after: dead.
  fired = det.sweep(4.5);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].from, PeerState::kSuspect);
  EXPECT_EQ(fired[0].to, PeerState::kDead);
  EXPECT_EQ(det.state(1), PeerState::kDead);
  EXPECT_TRUE(det.sweep(50.0).empty());  // dead stays dead under silence

  // A beat from the grave is a rejoin, reported as the prior state.
  EXPECT_EQ(det.heartbeat(1, 60.0), PeerState::kDead);
  EXPECT_EQ(det.state(1), PeerState::kAlive);
  EXPECT_EQ(det.suspicions_raised(), 1u);
  EXPECT_EQ(det.deaths_confirmed(), 1u);
  EXPECT_EQ(det.rejoins(), 1u);
  EXPECT_EQ(det.suspicions_cleared(), 0u);
}

TEST(FailureDetectorTest, LateBeatClearsSuspicionAsFalseAlarm) {
  FailureDetector det(config());
  det.heartbeat(2, 0.0);
  ASSERT_EQ(det.sweep(2.5).size(), 1u);
  EXPECT_EQ(det.state(2), PeerState::kSuspect);
  EXPECT_EQ(det.heartbeat(2, 2.6), PeerState::kSuspect);
  EXPECT_EQ(det.state(2), PeerState::kAlive);
  EXPECT_EQ(det.suspicions_cleared(), 1u);
  EXPECT_EQ(det.deaths_confirmed(), 0u);
  // The clock restarted: the old silence does not carry over.
  EXPECT_TRUE(det.sweep(4.0).empty());
}

TEST(FailureDetectorTest, SuspectHintRaisesImmediately) {
  FailureDetector det(config());
  det.heartbeat(3, 0.0);
  det.suspect_hint(3, 0.1);  // an RPC just failed; don't wait 2 beats
  EXPECT_EQ(det.state(3), PeerState::kSuspect);
  EXPECT_EQ(det.suspicions_raised(), 1u);
  det.suspect_hint(3, 0.2);  // idempotent on an existing suspect
  EXPECT_EQ(det.suspicions_raised(), 1u);
  // The hinted suspicion hardens into death on the usual silence clock.
  const auto fired = det.sweep(3.5);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].to, PeerState::kDead);
}

TEST(FailureDetectorTest, SuspectHintEnrollsUnknownPeers) {
  FailureDetector det(config());
  det.suspect_hint(4, 10.0);
  EXPECT_TRUE(det.known(4));
  EXPECT_EQ(det.state(4), PeerState::kSuspect);
  // Enrollment stamps last_heard, so the death clock runs from the hint.
  EXPECT_TRUE(det.sweep(12.0).empty());
  EXPECT_EQ(det.sweep(13.5).size(), 1u);
  EXPECT_EQ(det.state(4), PeerState::kDead);
}

TEST(FailureDetectorTest, LongSilenceFiresBothTransitionsInOneSweep) {
  FailureDetector det(config());
  det.heartbeat(1, 0.0);
  const auto fired = det.sweep(10.0);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].to, PeerState::kSuspect);
  EXPECT_EQ(fired[1].to, PeerState::kDead);
  EXPECT_EQ(det.state(1), PeerState::kDead);
}

TEST(FailureDetectorTest, PeersAreIndependent) {
  FailureDetector det(config());
  det.heartbeat(0, 0.0);
  det.heartbeat(1, 0.0);
  det.heartbeat(0, 4.0);  // peer 0 keeps beating, peer 1 goes silent
  const auto fired = det.sweep(4.5);
  ASSERT_EQ(fired.size(), 2u);  // suspect + dead, both for peer 1
  EXPECT_EQ(fired[0].node, 1u);
  EXPECT_EQ(fired[1].node, 1u);
  EXPECT_EQ(det.state(0), PeerState::kAlive);
}

TEST(FailureDetectorTest, ToStringCoversEveryState) {
  EXPECT_EQ(std::string(to_string(PeerState::kAlive)), "alive");
  EXPECT_EQ(std::string(to_string(PeerState::kSuspect)), "suspect");
  EXPECT_EQ(std::string(to_string(PeerState::kDead)), "dead");
}

TEST(FailureDetectorTest, HintAfterClearedHintRaisesSuspicionAgain) {
  FailureDetector det(config());
  det.heartbeat(4, 0.0);
  det.suspect_hint(4, 0.5);
  det.heartbeat(4, 1.0);  // an on-schedule beat clears the hint
  EXPECT_EQ(det.state(4), PeerState::kAlive);
  EXPECT_EQ(det.suspicions_cleared(), 1u);
  det.suspect_hint(4, 1.5);  // no damping: the next hint raises at once
  EXPECT_EQ(det.state(4), PeerState::kSuspect);
  EXPECT_EQ(det.suspicions_raised(), 2u);
}

}  // namespace
}  // namespace qadist::sched
