#include "simnet/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simnet/process.hpp"

namespace qadist::simnet {
namespace {

SimProcess sender(Simulation& sim, Link& link, Seconds start, double bytes,
                  std::vector<double>& finish, std::size_t slot) {
  co_await Delay(sim, start);
  co_await link.send(bytes, 0, 1);
  finish[slot] = sim.now();
}

TEST(LinkTest, LatencyPlusBandwidth) {
  Simulation sim;
  Link link(sim, "l", Bandwidth{100.0}, /*latency=*/0.5);  // 100 B/s
  std::vector<double> t(1, -1);
  sender(sim, link, 0.0, 100.0, t, 0);
  sim.run();
  EXPECT_NEAR(t[0], 1.5, 1e-9);  // 0.5 s latency + 1 s payload
  EXPECT_EQ(link.messages(), 1u);
  EXPECT_DOUBLE_EQ(link.bytes_served(), 100.0);
}

TEST(LinkTest, ConcurrentTransfersShareBandwidth) {
  Simulation sim;
  Link link(sim, "l", Bandwidth{100.0}, 0.0);
  std::vector<double> t(2, -1);
  sender(sim, link, 0.0, 100.0, t, 0);
  sender(sim, link, 0.0, 100.0, t, 1);
  sim.run();
  // Fluid fair share: both complete at 2 s.
  EXPECT_NEAR(t[0], 2.0, 1e-9);
  EXPECT_NEAR(t[1], 2.0, 1e-9);
}

TEST(LinkTest, LatencyLegsDoNotContendForBandwidth) {
  Simulation sim;
  Link link(sim, "l", Bandwidth{100.0}, 1.0);
  std::vector<double> t(2, -1);
  sender(sim, link, 0.0, 100.0, t, 0);
  // Second message starts its latency while the first transfers payload:
  // only the payload phases share the channel.
  sender(sim, link, 0.5, 0.0, t, 1);  // zero-byte message: latency only
  sim.run();
  EXPECT_NEAR(t[1], 1.5, 1e-9);
  EXPECT_NEAR(t[0], 2.0, 1e-9);  // latency 1 + 100B alone at 100 B/s
}

TEST(LinkTest, ZeroLatencyZeroBytesCompletesImmediately) {
  Simulation sim;
  Link link(sim, "l", Bandwidth{100.0}, 0.0);
  std::vector<double> t(1, -1);
  sender(sim, link, 0.0, 0.0, t, 0);
  sim.run();
  EXPECT_NEAR(t[0], 0.0, 1e-12);
}

TEST(LinkTest, ManyMessagesCounted) {
  Simulation sim;
  Link link(sim, "l", Bandwidth{1e6}, 1e-3);
  std::vector<double> t(20, -1);
  for (std::size_t i = 0; i < 20; ++i) {
    sender(sim, link, 0.01 * static_cast<double>(i), 50.0, t, i);
  }
  sim.run();
  EXPECT_EQ(link.messages(), 20u);
  EXPECT_DOUBLE_EQ(link.bytes_served(), 1000.0);
  for (double v : t) EXPECT_GT(v, 0.0);
}

}  // namespace
}  // namespace qadist::simnet
