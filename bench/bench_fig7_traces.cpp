// Reproduces paper Figure 7: execution traces of a homogeneous 4-node
// system answering one question, with RECV partitioning for PR/PS and each
// of SEND / ISEND / RECV for AP.
//
// Shape to reproduce: (a) under SEND, equal paragraph counts finish at very
// different times; (b) ISEND legs finish close together; (c) RECV legs
// finish closest. PR collection times vary widely (paper: 0.19s-1.52s),
// which is why the nodes *compete* for collections instead of being
// assigned weighted shares.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/export.hpp"
#include "obs/span.hpp"
#include "support/bench_cli.hpp"
#include "support/bench_report.hpp"
#include "support/bench_world.hpp"

int main(int argc, char** argv) {
  [[maybe_unused]] const auto cli = qadist::bench::BenchCli::parse(argc, argv);
  using namespace qadist;
  using parallel::Strategy;
  const auto& world = bench::bench_world();

  const char* results_env = std::getenv("QADIST_RESULTS_DIR");
  const std::string results_dir =
      (results_env != nullptr && *results_env != '\0') ? results_env
                                                       : "results";
  std::error_code ec;
  std::filesystem::create_directories(results_dir, ec);
  bench::BenchReport report("fig7_traces");
  report.config("nodes", std::int64_t{4});

  // The paper traces question 226; we pick the plan with the most accepted
  // paragraphs so the AP partitioning behaviour is clearly visible.
  std::size_t pick = 0;
  for (std::size_t i = 0; i < world.plans.size(); ++i) {
    if (world.plans[i].ap_units.size() > world.plans[pick].ap_units.size()) {
      pick = i;
    }
  }

  const char* labels[] = {"(a) RECV for PR/PS, SEND for AP",
                          "(b) RECV for PR/PS, ISEND for AP",
                          "(c) RECV for PR/PS, RECV for AP"};
  const Strategy strategies[] = {Strategy::kSend, Strategy::kIsend,
                                 Strategy::kRecv};
  for (int variant = 0; variant < 3; ++variant) {
    simnet::Simulation sim;
    cluster::SystemConfig cfg;
    cfg.nodes = 4;
    cfg.partition.ap_strategy = strategies[variant];
    cfg.partition.ap_chunk = bench::scaled_chunk(world);
    cluster::System system(sim, cfg);
    obs::Tracer tracer;
    system.set_tracer(&tracer);
    system.submit(world.plans[pick], 0.0);
    const auto metrics = system.run();

    std::printf("Figure 7 %s — question '%s'\n%s", labels[variant],
                world.plans[pick].source.text.c_str(),
                obs::render_text(tracer).c_str());
    std::printf("  response time: %.2f s\n\n", metrics.latencies.mean());

    // Machine-readable twins of this text trace: the same event stream as
    // a JSONL log and a Perfetto-loadable Chrome trace.
    const std::string strat{parallel::to_string(strategies[variant])};
    const std::string stem = results_dir + "/TRACE_fig7_ap_" + strat;
    obs::export_jsonl_file(tracer, stem + ".jsonl");
    obs::export_chrome_trace_file(tracer, stem + ".chrome.json");
    report.metric("response_seconds", {{"ap_strategy", strat}},
                  metrics.latencies.mean());
    report.metric("spans", {{"ap_strategy", strat}},
                  static_cast<double>(tracer.spans().size()));
  }
  report.write();
  return 0;
}
