#include "parallel/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>

#include "common/check.hpp"

namespace qadist::parallel {

namespace {

/// Which thread, if any, runs as a worker (RECV only).
enum class Owner { kUnstarted, kRunning, kReleased };

/// Per-worker run state shared between dispatch rounds, alone on its cache
/// line: its worker bumps `processed` once per item.
struct alignas(64) WorkerState {
  std::size_t processed = 0;           // items completed so far (whole run)
  std::size_t fail_after = SIZE_MAX;   // injected failure threshold
  bool failed = false;
  std::atomic<Owner> owner{Owner::kUnstarted};
};

std::vector<WorkerState> init_workers(const ExecutorOptions& options) {
  std::vector<WorkerState> workers(options.workers);
  for (const auto& f : options.failures) {
    QADIST_CHECK(f.worker < options.workers,
                 << "failure spec for unknown worker " << f.worker);
    workers[f.worker].fail_after = f.after_items;
  }
  return workers;
}

std::vector<double> effective_weights(const ExecutorOptions& options,
                                      std::size_t count) {
  if (options.weights.empty()) return std::vector<double>(count, 1.0);
  QADIST_CHECK(options.weights.size() == options.workers,
               << "weights arity mismatch");
  return options.weights;
}

void tally(const std::vector<WorkerState>& workers, ExecutorReport& report) {
  for (const auto& w : workers) {
    report.items_per_worker.push_back(w.processed);
    if (!w.failed) ++report.surviving_workers;
  }
}

constexpr std::size_t kNoWorker = SIZE_MAX;

/// One RECV run. The calling thread runs as worker 0 and the pool's helper
/// tasks as workers 1..; every thread claims chunks through one atomic
/// cursor. Helper tasks share ownership of the run, so a helper that starts
/// after run() returned touches nothing but this object: its first claim
/// fails and it never calls `fn`.
///
/// The mutex guards only the remainders of failed workers (and the first
/// error); `running` counts the threads inside serve() so the caller can
/// tell a remainder some worker will still take from a stranded one.
class RecvRun {
 public:
  RecvRun(std::size_t total_items, const ExecutorOptions& options,
          const PartitionedExecutor::ItemFn& fn)
      : fn_(&fn),
        chunks_(make_chunks(total_items, options.chunk_size)),
        workers_(init_workers(options)),
        remaining_(total_items) {
    workers_[0].owner.store(Owner::kRunning);  // the caller
  }

  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  [[nodiscard]] const std::vector<WorkerState>& workers() const {
    return workers_;
  }

  /// A helper task's entry: runs as worker `w` unless the caller has taken
  /// the worker over meanwhile. It counts itself in `running_` before it
  /// claims: if the caller saw `running_` at zero after a stop and
  /// returned, the seq_cst order makes this thread's claim see the stop.
  void help(std::size_t w) {
    running_.fetch_add(1);
    Owner expected = Owner::kUnstarted;
    if (workers_[w].owner.compare_exchange_strong(expected, Owner::kRunning)) {
      serve(w);
    }
    leave();
  }

  /// The caller's part: serves as worker 0, then drains every stranded
  /// remainder itself. Returns the dispatch rounds, counting each drain.
  std::size_t run_caller() {
    for (std::size_t w = 0, rounds = 1;; ++rounds) {
      serve(w);
      leave();
      w = await();
      if (w == kNoWorker) return rounds;
    }
  }

 private:
  /// Claims and processes chunks as worker `w` until none is left, `w`
  /// fails, or the run stops; then releases `w`.
  void serve(std::size_t w) {
    WorkerState& self = workers_[w];
    Chunk chunk;
    while (claim(chunk)) {
      std::size_t item = chunk.begin;
      try {
        for (; item < chunk.end && self.processed < self.fail_after; ++item) {
          (*fn_)(item, w);
          ++self.processed;
        }
      } catch (...) {
        std::lock_guard lock(mutex_);
        if (error_ == nullptr) error_ = std::current_exception();
        stop_.store(true);
        break;
      }
      if (item > chunk.begin) finish(item - chunk.begin);
      if (item < chunk.end) {
        // Die mid-chunk: the unprocessed remainder goes back to the chunk
        // set for a surviving worker (paper Fig. 6b step iv-z).
        std::lock_guard lock(mutex_);
        self.failed = true;
        remainders_.push_back(Chunk{item, chunk.end});
        has_remainders_.store(true);
        break;
      }
    }
    self.owner.store(Owner::kReleased);
  }

  bool claim(Chunk& chunk) {
    if (stop_.load()) return false;
    const std::size_t next = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (next < chunks_.size()) {
      chunk = chunks_[next];
      return true;
    }
    if (!has_remainders_.load()) return false;
    std::lock_guard lock(mutex_);
    if (remainders_.empty()) return false;
    chunk = remainders_.front();
    remainders_.pop_front();
    has_remainders_.store(!remainders_.empty());
    return true;
  }

  void finish(std::size_t items) {
    if (remaining_.fetch_sub(items) == items) {
      std::lock_guard lock(mutex_);
      wake_.notify_one();
    }
  }

  /// A thread leaves serve(). The last one out wakes the caller when a
  /// remainder is stranded or the run stopped: a thread that sets either
  /// flag counts in `running_` and leaves after setting it, so the last
  /// decrement sees the flag.
  void leave() {
    if (running_.fetch_sub(1) == 1 &&
        (stop_.load() || has_remainders_.load())) {
      std::lock_guard lock(mutex_);
      wake_.notify_one();
    }
  }

  /// Blocks until every item is done (returns kNoWorker) or a remainder is
  /// stranded, i.e. no thread serves any more; the caller then takes over
  /// the first surviving worker and returns it. Rethrows the first error
  /// from `fn` once no thread is inside it.
  std::size_t await() {
    for (;;) {
      {
        std::unique_lock lock(mutex_);
        wake_.wait(lock, [this] {
          return remaining_.load() == 0 ||
                 (running_.load() == 0 &&
                  (stop_.load() || !remainders_.empty()));
        });
        if (remaining_.load() == 0) return kNoWorker;
        // Take the error out: the run may outlive this call in a late
        // helper, and the exception must end on the thread that caught it.
        if (stop_.load()) std::rethrow_exception(std::exchange(error_, {}));
      }
      // A worker that is running cannot be taken over; it is alive (a
      // failed worker stops running before the caller wakes), so it will
      // drain the remainder and the caller waits again.
      bool alive = false;
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        Owner from = workers_[w].owner.load();
        if (from == Owner::kRunning) {
          alive = true;
          continue;
        }
        running_.fetch_add(1);
        if (workers_[w].owner.compare_exchange_strong(from, Owner::kRunning)) {
          if (!workers_[w].failed) return w;
          workers_[w].owner.store(from);
        } else {
          alive = true;  // its helper task started meanwhile
        }
        running_.fetch_sub(1);
      }
      QADIST_CHECK(alive, << "all workers failed with items pending");
    }
  }

  // Read on every claim.
  const PartitionedExecutor::ItemFn* fn_;  // called only after a claim
  const std::vector<Chunk> chunks_;
  std::vector<WorkerState> workers_;
  std::atomic<bool> stop_{false};  // an `fn` threw: no more claims
  std::atomic<bool> has_remainders_{false};

  // Written on every claim.
  alignas(64) std::atomic<std::size_t> cursor_{0};
  std::atomic<std::size_t> remaining_;  // items not yet done

  alignas(64) std::atomic<std::size_t> running_{1};  // the caller
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Chunk> remainders_;
  std::exception_ptr error_;
};

}  // namespace

ExecutorReport PartitionedExecutor::run(std::size_t total_items,
                                        const ExecutorOptions& options,
                                        const ItemFn& fn) {
  QADIST_CHECK(options.workers >= 1);
  QADIST_CHECK(fn != nullptr);
  if (options.strategy == Strategy::kRecv) {
    return run_receiver(total_items, options, fn);
  }
  return run_sender(total_items, options, fn);
}

ExecutorReport PartitionedExecutor::run_sender(std::size_t total_items,
                                               const ExecutorOptions& options,
                                               const ItemFn& fn) {
  auto workers = init_workers(options);
  const auto all_weights = effective_weights(options, options.workers);

  // `pending` holds the item ids still to process; each round re-partitions
  // it over the surviving workers (paper Fig. 5c: "build a new task from
  // the unprocessed partitions; jump to Step 1").
  std::vector<std::size_t> pending(total_items);
  for (std::size_t i = 0; i < total_items; ++i) pending[i] = i;

  ExecutorReport report;
  while (!pending.empty()) {
    ++report.rounds;
    std::vector<std::size_t> alive;
    std::vector<double> weights;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (!workers[w].failed) {
        alive.push_back(w);
        weights.push_back(all_weights[w]);
      }
    }
    QADIST_CHECK(!alive.empty(),
                 << "all workers failed with " << pending.size()
                 << " items unprocessed");

    const auto partitions =
        options.strategy == Strategy::kIsend
            ? partition_isend(pending.size(), weights)
            : partition_send(pending.size(), weights);

    // done[] is indexed by position in `pending`; each slot is written by
    // exactly one worker, read by the dispatcher after wait_idle().
    std::vector<char> done(pending.size(), 0);

    for (const auto& partition : partitions) {
      const std::size_t w = alive[partition.worker];
      WorkerState& state = workers[w];
      pool_->submit([&, w, items = partition.items] {
        for (std::size_t idx : items) {
          if (state.processed >= state.fail_after) {
            state.failed = true;
            return;  // dies mid-partition; remainder stays unprocessed
          }
          fn(pending[idx], w);
          done[idx] = 1;
          ++state.processed;
        }
      });
    }
    pool_->wait_idle();

    std::vector<std::size_t> unprocessed;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (done[i] == 0) unprocessed.push_back(pending[i]);
    }
    pending = std::move(unprocessed);
  }

  tally(workers, report);
  return report;
}

ExecutorReport PartitionedExecutor::run_receiver(std::size_t total_items,
                                                 const ExecutorOptions& options,
                                                 const ItemFn& fn) {
  auto run = std::make_shared<RecvRun>(total_items, options, fn);
  // The caller is worker 0, so a pool of workers - 1 threads gives full
  // width; a worker without a chunk to start on is not dispatched.
  const std::size_t width = std::min(options.workers, run->chunk_count());
  for (std::size_t w = 1; w < width; ++w) {
    pool_->submit([run, w] { run->help(w); });
  }
  ExecutorReport report;
  report.rounds = run->run_caller();
  tally(run->workers(), report);
  return report;
}

}  // namespace qadist::parallel
