#pragma once

#include <algorithm>
#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/units.hpp"
#include "simnet/simulation.hpp"

namespace qadist::simnet {

/// Unbounded FIFO message queue between simulated processes.
///
/// `send()` never blocks (the underlying transport's latency is modelled
/// separately by the network link — a mailbox is just the destination
/// buffer). `co_await box.recv()` suspends until a message is available;
/// `co_await box.recv_for(t)` additionally gives up after `t` simulated
/// seconds and produces nullopt — the primitive behind reply timeouts
/// (e.g. a scatter-gather coordinator detecting a dead worker). Multiple
/// receivers are served in arrival order.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim) : sim_(&sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposits a message; wakes the oldest waiting receiver, if any.
  void send(T value) {
    if (!receivers_.empty()) {
      Waiter* r = receivers_.front();
      receivers_.pop_front();
      sim_->cancel(r->timer);  // a timed receive's timeout lost the race
      r->slot = std::move(value);
      auto h = r->handle;
      sim_->schedule(0.0, [h] { h.resume(); });
    } else {
      queue_.push_back(std::move(value));
    }
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] bool has_waiting_receiver() const {
    return !receivers_.empty();
  }

  /// A suspended receiver. A timed receive's timeout event is cancelled
  /// by the send() that serves it, so it never fires after the awaiting
  /// frame has moved on; the timeout in turn dequeues the receiver before
  /// resuming it.
  struct Waiter {
    std::optional<T> slot;
    std::coroutine_handle<> handle;
    EventId timer;  // the pending timeout of a timed receive, else stale
  };

  struct [[nodiscard]] Awaiter : Waiter {
    Mailbox& box;

    explicit Awaiter(Mailbox& b) : box(b) {}

    bool await_ready() {
      if (!box.queue_.empty()) {
        this->slot = std::move(box.queue_.front());
        box.queue_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      box.receivers_.push_back(this);
    }
    T await_resume() {
      QADIST_CHECK(this->slot.has_value());
      return std::move(*this->slot);
    }
  };

  struct [[nodiscard]] TimedAwaiter : Waiter {
    Mailbox& box;
    Seconds timeout;

    TimedAwaiter(Mailbox& b, Seconds t) : box(b), timeout(t) {}

    bool await_ready() {
      if (!box.queue_.empty()) {
        this->slot = std::move(box.queue_.front());
        box.queue_.pop_front();
        return true;
      }
      // A zero/negative timeout with nothing queued settles immediately
      // with nullopt — scheduling a wake-up event for an already-expired
      // deadline would only churn the event queue.
      return timeout <= 0.0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      this->handle = h;
      box.receivers_.push_back(this);
      Mailbox* b = &box;
      Waiter* self = this;
      this->timer = box.sim_->schedule(timeout, [b, self] {
        auto& rs = b->receivers_;
        rs.erase(std::remove(rs.begin(), rs.end(), self), rs.end());
        self->handle.resume();  // slot stays empty -> nullopt
      });
    }
    std::optional<T> await_resume() { return std::move(this->slot); }
  };

  /// Awaitable: produces the next message (FIFO).
  Awaiter recv() { return Awaiter{*this}; }

  /// Awaitable: the next message, or nullopt after `timeout` simulated
  /// seconds without one.
  TimedAwaiter recv_for(Seconds timeout) { return TimedAwaiter{*this, timeout}; }

 private:
  friend struct Awaiter;
  friend struct TimedAwaiter;
  Simulation* sim_;
  std::deque<T> queue_;
  std::deque<Waiter*> receivers_;
};

}  // namespace qadist::simnet
