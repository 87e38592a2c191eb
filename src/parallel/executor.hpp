#pragma once

#include <functional>
#include <vector>

#include "parallel/partition.hpp"
#include "parallel/thread_pool.hpp"

namespace qadist::parallel {

/// Failure injection: `worker` permanently dies after it has processed
/// `after_items` items (counted across the whole run). Models the node /
/// network failures the paper's distribution algorithms recover from
/// (Fig. 5c step 4, Fig. 6b step iv).
struct FailureSpec {
  std::size_t worker = 0;
  std::size_t after_items = 0;
};

struct ExecutorOptions {
  Strategy strategy = Strategy::kRecv;
  std::size_t workers = 4;
  std::size_t chunk_size = 40;        ///< RECV only
  std::vector<double> weights;        ///< empty => equal weights
  std::vector<FailureSpec> failures;  ///< injected failures
};

/// What happened during a run — recovery rounds, per-worker item counts.
struct ExecutorReport {
  std::size_t rounds = 0;  ///< dispatch rounds (>1 means recovery happened)
  std::size_t surviving_workers = 0;
  std::vector<std::size_t> items_per_worker;
};

/// Executes an iterative task (items 0..n-1) across host threads using one
/// of the paper's partitioning strategies, with failure recovery:
///
///  * SEND/ISEND (sender-controlled): partitions are dispatched, the sender
///    waits for termination; unprocessed partitions of failed workers are
///    concatenated into a new task and re-dispatched over the survivors —
///    the distribution loop of paper Fig. 5(c).
///  * RECV (receiver-controlled): workers self-schedule over equal chunks;
///    a failing worker's unfinished chunk remainder returns to the chunk
///    set and the worker leaves the pool — paper Fig. 6(b). `workers`
///    counts the calling thread: it runs as worker 0 and the pool runs at
///    most workers - 1 helpers, so a pool of workers - 1 threads gives
///    full width. run() returns as soon as every item is done; it never
///    waits for a helper that has not started. A remainder no running
///    worker will take is drained by the caller, as a new round.
///
/// Guarantee (tested): `fn` is invoked exactly once per item as long as at
/// least one worker survives; otherwise run() aborts via QADIST_CHECK. An
/// exception from `fn` stops further dispatch and is rethrown from run()
/// once no `fn` call is in progress; the pool stays usable.
///
/// `fn(item, worker)` may run concurrently with itself on different items
/// and must be thread-safe with respect to shared state it touches. Two
/// calls with the same `worker` never overlap.
class PartitionedExecutor {
 public:
  explicit PartitionedExecutor(ThreadPool& pool) : pool_(&pool) {}

  using ItemFn = std::function<void(std::size_t item, std::size_t worker)>;

  ExecutorReport run(std::size_t total_items, const ExecutorOptions& options,
                     const ItemFn& fn);

 private:
  ExecutorReport run_sender(std::size_t total_items,
                            const ExecutorOptions& options, const ItemFn& fn);
  ExecutorReport run_receiver(std::size_t total_items,
                              const ExecutorOptions& options, const ItemFn& fn);

  ThreadPool* pool_;
};

}  // namespace qadist::parallel
