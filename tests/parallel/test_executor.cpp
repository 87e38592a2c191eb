#include "parallel/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

namespace qadist::parallel {
namespace {

class ExecutorTest : public ::testing::TestWithParam<Strategy> {
 protected:
  ThreadPool pool_{4};
  PartitionedExecutor executor_{pool_};
};

TEST_P(ExecutorTest, EveryItemProcessedExactlyOnce) {
  const std::size_t n = 237;
  std::vector<std::atomic<int>> hits(n);
  ExecutorOptions options;
  options.strategy = GetParam();
  options.workers = 4;
  options.chunk_size = 10;
  const auto report = executor_.run(
      n, options, [&](std::size_t item, std::size_t) { ++hits[item]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(report.surviving_workers, 4u);
  EXPECT_EQ(std::accumulate(report.items_per_worker.begin(),
                            report.items_per_worker.end(), std::size_t{0}),
            n);
}

TEST_P(ExecutorTest, ZeroItemsIsFine) {
  ExecutorOptions options;
  options.strategy = GetParam();
  options.workers = 3;
  int calls = 0;
  executor_.run(0, options, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_P(ExecutorTest, MoreWorkersThanItems) {
  ExecutorOptions options;
  options.strategy = GetParam();
  options.workers = 4;
  options.chunk_size = 1;
  std::vector<std::atomic<int>> hits(2);
  executor_.run(2, options,
                [&](std::size_t item, std::size_t) { ++hits[item]; });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST_P(ExecutorTest, SingleWorkerFailureRecovers) {
  const std::size_t n = 100;
  std::vector<std::atomic<int>> hits(n);
  ExecutorOptions options;
  options.strategy = GetParam();
  options.workers = 4;
  options.chunk_size = 7;
  options.failures = {FailureSpec{1, 5}};  // worker 1 dies after 5 items
  const auto report = executor_.run(
      n, options, [&](std::size_t item, std::size_t) { ++hits[item]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  if (GetParam() == Strategy::kRecv) {
    // Self-scheduling: a fast peer may drain the chunk set before worker 1
    // reaches its failure threshold, in which case it survives untouched.
    EXPECT_GE(report.surviving_workers, 3u);
    EXPECT_LE(report.items_per_worker[1], 5u);
  } else {
    // Sender-controlled dispatch always hands worker 1 a partition, so it
    // deterministically dies after exactly 5 items.
    EXPECT_EQ(report.surviving_workers, 3u);
    EXPECT_EQ(report.items_per_worker[1], 5u);
  }
}

TEST_P(ExecutorTest, MultipleFailuresRecover) {
  const std::size_t n = 80;
  std::vector<std::atomic<int>> hits(n);
  ExecutorOptions options;
  options.strategy = GetParam();
  options.workers = 4;
  options.chunk_size = 5;
  options.failures = {FailureSpec{0, 3}, FailureSpec{2, 10}};
  const auto report = executor_.run(
      n, options, [&](std::size_t item, std::size_t) { ++hits[item]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  if (GetParam() == Strategy::kRecv) {
    EXPECT_GE(report.surviving_workers, 2u);
  } else {
    EXPECT_EQ(report.surviving_workers, 2u);
  }
}

TEST_P(ExecutorTest, ImmediateFailureStillCompletes) {
  const std::size_t n = 30;
  std::vector<std::atomic<int>> hits(n);
  ExecutorOptions options;
  options.strategy = GetParam();
  options.workers = 2;
  options.chunk_size = 4;
  options.failures = {FailureSpec{0, 0}};  // dies before any item
  executor_.run(n, options,
                [&](std::size_t item, std::size_t) { ++hits[item]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ExecutorTest,
                         ::testing::Values(Strategy::kSend, Strategy::kIsend,
                                           Strategy::kRecv),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ExecutorWeightsTest, WeightedSendSkewsLoad) {
  ThreadPool pool(4);
  PartitionedExecutor executor(pool);
  ExecutorOptions options;
  options.strategy = Strategy::kSend;
  options.workers = 2;
  options.weights = {3.0, 1.0};
  const auto report =
      executor.run(100, options, [](std::size_t, std::size_t) {});
  EXPECT_EQ(report.items_per_worker[0], 75u);
  EXPECT_EQ(report.items_per_worker[1], 25u);
}

TEST(ExecutorRecvTest, WorkersCompeteForChunks) {
  ThreadPool pool(4);
  PartitionedExecutor executor(pool);
  ExecutorOptions options;
  options.strategy = Strategy::kRecv;
  options.workers = 4;
  options.chunk_size = 1;
  // Uneven costs: item 0 is huge, the rest tiny. RECV should let the other
  // workers absorb the tail while one worker is stuck on item 0.
  std::atomic<int> done{0};
  std::atomic<std::size_t> blocked_worker{SIZE_MAX};
  const auto report = executor.run(40, options,
                                   [&](std::size_t item, std::size_t worker) {
                                     if (item == 0) {
                                       blocked_worker.store(worker);
                                       while (done.load() < 39) {
                                       }
                                     } else {
                                       done.fetch_add(1);
                                     }
                                   });
  // The worker stuck on item 0 processed exactly that one item; the peers
  // self-scheduled the whole tail around it.
  ASSERT_NE(blocked_worker.load(), SIZE_MAX);
  EXPECT_EQ(report.items_per_worker[blocked_worker.load()], 1u);
}

/// Occupies every thread of a pool until release(), so no task submitted
/// meanwhile can start.
class ParkedPool {
 public:
  explicit ParkedPool(std::size_t threads) : parked_(threads), pool_(threads) {
    for (std::size_t i = 0; i < threads; ++i) {
      pool_.submit([this] {
        parked_.count_down();
        gate_.wait();
      });
    }
    parked_.wait();
  }
  ~ParkedPool() { release(); }

  ThreadPool& pool() { return pool_; }
  void release() {
    if (!released_) gate_promise_.set_value();
    released_ = true;
  }

 private:
  std::latch parked_;
  std::promise<void> gate_promise_;
  std::shared_future<void> gate_ = gate_promise_.get_future().share();
  bool released_ = false;
  ThreadPool pool_;  // last: joins its threads before the rest goes
};

// With no pool thread able to start, RECV runs every item on the caller as
// worker 0. The bounded wait turns a join that waits for unstarted helpers
// into a failure instead of a hang.
TEST(ExecutorRecvTest, FinishesOnTheCallerWhenNoPoolThreadCanStart) {
  ParkedPool parked(3);
  PartitionedExecutor executor(parked.pool());
  ExecutorOptions options;
  options.strategy = Strategy::kRecv;
  options.workers = 4;
  options.chunk_size = 3;
  const std::size_t n = 50;
  std::vector<std::atomic<int>> hits(n);

  auto first = std::async(std::launch::async, [&] {
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> elsewhere{false};
    const auto report =
        executor.run(n, options, [&](std::size_t item, std::size_t worker) {
          ++hits[item];
          if (worker != 0 || std::this_thread::get_id() != caller) {
            elsewhere = true;
          }
        });
    EXPECT_FALSE(elsewhere.load());
    return report;
  });
  if (first.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    parked.release();
    first.wait();
    FAIL() << "RECV waited for a pool thread that could not start";
  }
  const auto report = first.get();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(report.rounds, 1u);
  EXPECT_EQ(report.items_per_worker[0], n);
  EXPECT_EQ(report.surviving_workers, 4u);

  // The caller fails at its first item: it drains its remainder as worker
  // 1, whose helper has not started, in a second round.
  options.failures = {FailureSpec{0, 0}};
  for (auto& h : hits) h = 0;
  auto second = std::async(std::launch::async, [&] {
    return executor.run(
        n, options, [&](std::size_t item, std::size_t) { ++hits[item]; });
  });
  if (second.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    parked.release();
    second.wait();
    FAIL() << "RECV recovery waited for a pool thread that could not start";
  }
  const auto recovered = second.get();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(recovered.rounds, 2u);
  EXPECT_EQ(recovered.items_per_worker[0], 0u);
  EXPECT_EQ(recovered.items_per_worker[1], n);
  EXPECT_EQ(recovered.surviving_workers, 3u);

  // Once released, the stale helpers find nothing to claim.
  parked.release();
  parked.pool().wait_idle();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

/// Waits for `flag` until `deadline`.
void await_flag(const std::atomic<bool>& flag,
                std::chrono::steady_clock::time_point deadline) {
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

std::string run_until_throw(PartitionedExecutor& executor, bool on_caller) {
  ExecutorOptions options;
  options.strategy = Strategy::kRecv;
  options.workers = 4;
  options.chunk_size = 1;
  const auto caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> thrown{false};
  try {
    executor.run(64, options, [&](std::size_t, std::size_t) {
      const bool here = std::this_thread::get_id() == caller;
      if (here == on_caller) {
        if (!thrown.exchange(true)) {
          throw std::runtime_error(on_caller ? "caller" : "helper");
        }
      } else {
        // Hold on until the thrower has claimed an item of its own.
        await_flag(thrown, deadline);
      }
    });
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

TEST(ExecutorRecvTest, ExceptionsOnAnyThreadAreRethrown) {
  ThreadPool pool(3);
  PartitionedExecutor executor(pool);
  EXPECT_EQ(run_until_throw(executor, /*on_caller=*/true), "caller");
  EXPECT_EQ(run_until_throw(executor, /*on_caller=*/false), "helper");

  // The pool stays usable: a later run processes every item once.
  for (Strategy s : {Strategy::kSend, Strategy::kIsend, Strategy::kRecv}) {
    ExecutorOptions options;
    options.strategy = s;
    options.workers = 4;
    options.chunk_size = 2;
    std::vector<std::atomic<int>> hits(37);
    executor.run(hits.size(), options,
                 [&](std::size_t item, std::size_t) { ++hits[item]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << to_string(s) << " item " << i;
    }
  }
}

// Randomized exactly-once check over strategies, widths, chunk sizes and
// failure plans that leave at least one worker alive.
TEST(ExecutorStressTest, RandomFailuresProcessEveryItemOnce) {
  ThreadPool pool(3);
  PartitionedExecutor executor(pool);
  std::mt19937 rng(19);
  const Strategy strategies[] = {Strategy::kSend, Strategy::kIsend,
                                 Strategy::kRecv};
  for (int run = 0; run < 300; ++run) {
    ExecutorOptions options;
    options.strategy = strategies[run % 3];
    options.workers = 1 + rng() % 5;
    options.chunk_size = 1 + rng() % 8;
    const std::size_t survivor = rng() % options.workers;
    std::vector<std::size_t> fail_after(options.workers, SIZE_MAX);
    for (std::size_t w = 0; w < options.workers; ++w) {
      if (w != survivor && rng() % 2 == 0) {
        fail_after[w] = rng() % 30;
        options.failures.push_back(FailureSpec{w, fail_after[w]});
      }
    }
    const std::size_t n = rng() % 200;
    std::vector<std::atomic<int>> hits(n);
    const auto report =
        executor.run(n, options, [&](std::size_t item, std::size_t worker) {
          ++hits[item];
          if ((item + worker) % 7 == 0) std::this_thread::yield();
        });
    SCOPED_TRACE("run " + std::to_string(run));
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
    ASSERT_EQ(report.items_per_worker.size(), options.workers);
    EXPECT_EQ(std::accumulate(report.items_per_worker.begin(),
                              report.items_per_worker.end(), std::size_t{0}),
              n);
    for (std::size_t w = 0; w < options.workers; ++w) {
      EXPECT_LE(report.items_per_worker[w], fail_after[w]) << w;
    }
    EXPECT_GE(report.surviving_workers,
              options.workers - options.failures.size());
    if (n > 0) {
      EXPECT_GE(report.rounds, 1u);
    }
  }
}

void run_with_every_worker_failing(Strategy strategy) {
  ThreadPool pool(2);
  PartitionedExecutor executor(pool);
  ExecutorOptions options;
  options.strategy = strategy;
  options.workers = 2;
  options.chunk_size = 4;
  options.failures = {FailureSpec{0, 0}, FailureSpec{1, 3}};
  executor.run(10, options, [](std::size_t, std::size_t) {});
}

TEST(ExecutorDeathTest, AllWorkersFailedAborts) {
  for (Strategy s : {Strategy::kSend, Strategy::kIsend, Strategy::kRecv}) {
    EXPECT_DEATH(run_with_every_worker_failing(s), "all workers failed")
        << to_string(s);
  }
}

TEST(ExecutorReportTest, SenderRecoveryTakesExtraRounds) {
  ThreadPool pool(2);
  PartitionedExecutor executor(pool);
  ExecutorOptions options;
  options.strategy = Strategy::kSend;
  options.workers = 2;
  options.failures = {FailureSpec{0, 2}};
  const auto report =
      executor.run(20, options, [](std::size_t, std::size_t) {});
  EXPECT_GE(report.rounds, 2u);
}

}  // namespace
}  // namespace qadist::parallel
