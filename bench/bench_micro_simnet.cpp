// Micro-benchmarks of the discrete-event engine: raw event throughput,
// coroutine process churn, fair-share server arrival/departure cost
// (O(F) per event — the relevant scaling knob for big clusters), the same
// churn under the monitors' periodic load sampling (each sample replans
// the pending completion), and mailbox hand-offs, untimed and timed.

#include <benchmark/benchmark.h>

#include "simnet/fair_share.hpp"
#include "simnet/mailbox.hpp"
#include "simnet/process.hpp"
#include "simnet/simulation.hpp"

namespace {

using namespace qadist;
using namespace qadist::simnet;

void BM_EventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(static_cast<double>(i % 17), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventThroughput);

SimProcess delay_chain(Simulation& sim, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await Delay(sim, 0.001);
  }
}

void BM_CoroutineDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int p = 0; p < 50; ++p) delay_chain(sim, 20);
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 50 * 20);
}
BENCHMARK(BM_CoroutineDelayChain);

SimProcess consume_work(Simulation& sim, FairShareServer& server,
                        double start, double work) {
  co_await Delay(sim, start);
  co_await server.consume(work);
}

void BM_FairShareChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    FairShareServer server(sim, "srv", 4.0, 1.0);
    for (int f = 0; f < flows; ++f) {
      consume_work(sim, server, 0.01 * f, 1.0 + 0.01 * f);
    }
    sim.run();
    benchmark::DoNotOptimize(server.work_served());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FairShareChurn)->Arg(8)->Arg(64)->Arg(256);

// What a node's load monitor does: read the load integral every period.
SimProcess sample_load(Simulation& sim, FairShareServer& server,
                       Seconds period, int samples) {
  for (int i = 0; i < samples; ++i) {
    co_await Delay(sim, period);
    benchmark::DoNotOptimize(server.load_integral());
  }
}

void BM_FairShareChurnSampled(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    FairShareServer server(sim, "srv", 4.0, 1.0);
    for (int f = 0; f < flows; ++f) {
      consume_work(sim, server, 0.01 * f, 1.0 + 0.01 * f);
    }
    // 250 samples 0.1 s apart span the ~21 s busy period of 64 flows.
    sample_load(sim, server, 0.1, 250);
    sim.run();
    benchmark::DoNotOptimize(server.work_served());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FairShareChurnSampled)->Arg(64);

SimProcess ping(Mailbox<int>& in, Mailbox<int>& out, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    out.send(i);
    benchmark::DoNotOptimize(co_await in.recv());
  }
}

SimProcess pong(Mailbox<int>& in, Mailbox<int>& out, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const int v = co_await in.recv();
    out.send(v);
  }
}

void BM_MailboxPingPong(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    Mailbox<int> a(sim), b(sim);
    ping(a, b, 200);
    pong(b, a, 200);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_MailboxPingPong);

// As ping(), but every receive carries a reply timeout that the reply
// beats, as the scatter-gather coordinators' receives do.
SimProcess timed_ping(Mailbox<int>& in, Mailbox<int>& out, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    out.send(i);
    benchmark::DoNotOptimize(co_await in.recv_for(1.0));
  }
}

void BM_MailboxTimedRecvWon(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    Mailbox<int> a(sim), b(sim);
    timed_ping(a, b, 200);
    pong(b, a, 200);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_MailboxTimedRecvWon);

}  // namespace
