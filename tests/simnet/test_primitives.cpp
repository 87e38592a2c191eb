#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "simnet/event.hpp"
#include "simnet/mailbox.hpp"
#include "simnet/process.hpp"
#include "simnet/resource.hpp"
#include "simnet/simulation.hpp"

namespace qadist::simnet {
namespace {

SimProcess delayer(Simulation& sim, Seconds d, std::vector<double>& log) {
  co_await Delay(sim, d);
  log.push_back(sim.now());
}

TEST(ProcessTest, DelayResumesAtRightTime) {
  Simulation sim;
  std::vector<double> log;
  delayer(sim, 2.5, log);
  delayer(sim, 1.0, log);
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 1.0);
  EXPECT_EQ(log[1], 2.5);
}

TEST(ProcessTest, ZeroDelayDoesNotSuspend) {
  Simulation sim;
  std::vector<double> log;
  delayer(sim, 0.0, log);
  // Ran eagerly to completion without any event.
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(sim.empty());
}

SimProcess event_waiter(Simulation& sim, Event& ev, std::vector<double>& log) {
  co_await ev.wait();
  log.push_back(sim.now());
}

TEST(EventTest, WakesAllWaiters) {
  Simulation sim;
  Event ev(sim);
  std::vector<double> log;
  event_waiter(sim, ev, log);
  event_waiter(sim, ev, log);
  sim.schedule(3.0, [&] { ev.set(); });
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 3.0);
  EXPECT_EQ(log[1], 3.0);
}

TEST(EventTest, WaitAfterSetPassesThrough) {
  Simulation sim;
  Event ev(sim);
  ev.set();
  ev.set();  // idempotent
  std::vector<double> log;
  event_waiter(sim, ev, log);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(ev.is_set());
}

SimProcess wg_child(Simulation& sim, Seconds work, WaitGroup& wg) {
  co_await Delay(sim, work);
  wg.done();
}

SimProcess wg_parent(Simulation& sim, WaitGroup& wg, double& finished_at) {
  wg.add(3);
  wg_child(sim, 1.0, wg);
  wg_child(sim, 5.0, wg);
  wg_child(sim, 2.0, wg);
  co_await wg.wait();
  finished_at = sim.now();
}

TEST(WaitGroupTest, WaitsForAllChildren) {
  Simulation sim;
  WaitGroup wg(sim);
  double finished_at = -1;
  wg_parent(sim, wg, finished_at);
  sim.run();
  EXPECT_EQ(finished_at, 5.0);
  EXPECT_EQ(wg.count(), 0);
}

TEST(WaitGroupTest, ZeroCountWaitIsImmediate) {
  Simulation sim;
  WaitGroup wg(sim);
  double finished_at = -1;
  [](Simulation& s, WaitGroup& w, double& t) -> SimProcess {
    co_await w.wait();
    t = s.now();
  }(sim, wg, finished_at);
  EXPECT_EQ(finished_at, 0.0);
}

SimProcess consumer(Simulation& sim, Mailbox<std::string>& box,
                    std::vector<std::string>& got) {
  for (int i = 0; i < 3; ++i) {
    auto msg = co_await box.recv();
    got.push_back(std::to_string(sim.now()) + ":" + msg);
  }
}

TEST(MailboxTest, DeliversInFifoOrder) {
  Simulation sim;
  Mailbox<std::string> box(sim);
  std::vector<std::string> got;
  consumer(sim, box, got);
  sim.schedule(1.0, [&] {
    box.send("a");
    box.send("b");
  });
  sim.schedule(2.0, [&] { box.send("c"); });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].substr(got[0].find(':') + 1), "a");
  EXPECT_EQ(got[1].substr(got[1].find(':') + 1), "b");
  EXPECT_EQ(got[2].substr(got[2].find(':') + 1), "c");
}

TEST(MailboxTest, BufferedMessageReceivedWithoutSuspend) {
  Simulation sim;
  Mailbox<int> box(sim);
  box.send(42);
  EXPECT_EQ(box.pending(), 1u);
  int got = 0;
  [](Mailbox<int>& b, int& out) -> SimProcess {
    out = co_await b.recv();
  }(box, got);
  EXPECT_EQ(got, 42);
}

SimProcess timed_consumer(Simulation& sim, Mailbox<int>& box, Seconds timeout,
                          std::vector<std::pair<double, std::optional<int>>>& log) {
  const std::optional<int> msg = co_await box.recv_for(timeout);
  log.emplace_back(sim.now(), msg);
}

TEST(MailboxTest, RecvForTimesOutEmptyHanded) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<std::pair<double, std::optional<int>>> log;
  timed_consumer(sim, box, 3.0, log);
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0].first, 3.0);
  EXPECT_FALSE(log[0].second.has_value());
}

TEST(MailboxTest, RecvForDeliveryBeatsTimeout) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<std::pair<double, std::optional<int>>> log;
  timed_consumer(sim, box, 5.0, log);
  sim.schedule(1.0, [&] { box.send(7); });
  // The send withdraws the timeout event: nothing is left pending, and the
  // clock ends at the delivery, not at the superseded deadline t=5.
  sim.run_until(1.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 1.0);
  EXPECT_EQ(sim.executed_events(), 2u);  // the send and the resume
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0].first, 1.0);
  ASSERT_TRUE(log[0].second.has_value());
  EXPECT_EQ(*log[0].second, 7);
}

TEST(MailboxTest, RecvForBufferedMessageIsImmediate) {
  Simulation sim;
  Mailbox<int> box(sim);
  box.send(9);
  std::vector<std::pair<double, std::optional<int>>> log;
  timed_consumer(sim, box, 2.0, log);
  ASSERT_EQ(log.size(), 1u);  // resolved without suspending
  EXPECT_DOUBLE_EQ(log[0].first, 0.0);
  ASSERT_TRUE(log[0].second.has_value());
  EXPECT_EQ(*log[0].second, 9);
}

TEST(MailboxTest, RecvForZeroOrNegativeTimeoutSettlesImmediately) {
  // A non-positive timeout is a pure poll: an empty mailbox answers
  // nullopt at the current instant instead of scheduling a wake-up event,
  // and a buffered message is still taken.
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<std::pair<double, std::optional<int>>> log;
  timed_consumer(sim, box, 0.0, log);
  timed_consumer(sim, box, -1.0, log);
  ASSERT_EQ(log.size(), 2u);  // both resolved without suspending
  EXPECT_TRUE(sim.empty());   // and without any timeout event
  EXPECT_DOUBLE_EQ(log[0].first, 0.0);
  EXPECT_FALSE(log[0].second.has_value());
  EXPECT_FALSE(log[1].second.has_value());
  box.send(5);
  timed_consumer(sim, box, 0.0, log);
  ASSERT_EQ(log.size(), 3u);
  ASSERT_TRUE(log[2].second.has_value());
  EXPECT_EQ(*log[2].second, 5);
}

TEST(MailboxTest, RecvForTimeoutLeavesLaterSendsBuffered) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<std::pair<double, std::optional<int>>> log;
  timed_consumer(sim, box, 1.0, log);
  sim.schedule(2.0, [&] { box.send(11); });  // after the receiver gave up
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].second.has_value());
  EXPECT_EQ(box.pending(), 1u);  // nobody was waiting anymore
}

SimProcess resource_user(Simulation& sim, Resource& res, Seconds hold,
                         std::vector<std::pair<double, double>>& spans) {
  ResourceLease lease = co_await res.acquire();
  const double start = sim.now();
  co_await Delay(sim, hold);
  spans.emplace_back(start, sim.now());
}

TEST(ResourceTest, CapacityLimitsConcurrency) {
  Simulation sim;
  Resource res(sim, 2);
  std::vector<std::pair<double, double>> spans;
  for (int i = 0; i < 4; ++i) resource_user(sim, res, 1.0, spans);
  sim.run();
  ASSERT_EQ(spans.size(), 4u);
  // Two run [0,1], two run [1,2] (FIFO handoff via zero-delay events).
  EXPECT_EQ(spans[0].second, 1.0);
  EXPECT_EQ(spans[1].second, 1.0);
  EXPECT_EQ(spans[2].first, 1.0);
  EXPECT_EQ(spans[3].first, 1.0);
  EXPECT_EQ(res.available(), 2);
  EXPECT_EQ(res.queued(), 0);
}

TEST(ResourceTest, PressureCountsHoldersAndWaiters) {
  Simulation sim;
  Resource res(sim, 1);
  std::vector<std::pair<double, double>> spans;
  resource_user(sim, res, 10.0, spans);
  resource_user(sim, res, 10.0, spans);
  // First holds, second queued.
  EXPECT_EQ(res.pressure(), 2);
  sim.run();
  EXPECT_EQ(res.pressure(), 0);
}

TEST(ResourceTest, LeaseResetReleasesEarly) {
  Simulation sim;
  Resource res(sim, 1);
  [](Simulation& s, Resource& r) -> SimProcess {
    ResourceLease lease = co_await r.acquire();
    co_await Delay(s, 1.0);
    lease.reset();
    EXPECT_FALSE(lease.holds());
    co_await Delay(s, 10.0);
  }(sim, res);
  sim.run_until(2.0);
  EXPECT_EQ(res.available(), 1);
  sim.run();
}

TEST(ResourceTest, LeaseMoveTransfersOwnership) {
  Simulation sim;
  Resource res(sim, 1);
  [](Resource& r) -> SimProcess {
    ResourceLease a = co_await r.acquire();
    ResourceLease b = std::move(a);
    EXPECT_FALSE(a.holds());  // NOLINT(bugprone-use-after-move): testing move semantics
    EXPECT_TRUE(b.holds());
  }(res);
  sim.run();
  EXPECT_EQ(res.available(), 1);
}

}  // namespace
}  // namespace qadist::simnet
