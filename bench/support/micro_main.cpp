// Shared main for the google-benchmark micro benches: the standard
// console output, plus every timing and user counter captured into a
// BenchReport so the micro suite shows up in results/BENCH_*.json (and
// reproduce.sh's INDEX.json) like the macro harnesses. The report name
// derives from the binary name: bench_micro_ir -> BENCH_micro_ir.json.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "support/bench_report.hpp"

namespace {

/// Console reporting plus capture. Only plain iteration runs are recorded
/// (aggregates and errored runs are skipped); times are normalized to
/// seconds per iteration regardless of the benchmark's display unit. The
/// metric prefix "micro_" marks these as wall-clock host measurements,
/// which, unlike the simulated metrics, move from run to run.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  // Tabular counters, no ANSI colour: the console output is committed as
  // results/bench_micro_*.txt.
  explicit CapturingReporter(qadist::bench::BenchReport* report)
      : benchmark::ConsoleReporter(OO_Tabular), report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      const qadist::obs::Labels labels = {
          {"benchmark", run.benchmark_name()}};
      report_->metric("micro_real_seconds_per_op", labels,
                      run.real_accumulated_time / iters);
      report_->metric("micro_cpu_seconds_per_op", labels,
                      run.cpu_accumulated_time / iters);
      // User counters (bytes/s, per-module splits, ...) as reported.
      for (const auto& [name, counter] : run.counters) {
        report_->metric("micro_counter",
                        {{"benchmark", run.benchmark_name()},
                         {"counter", name}},
                        counter.value);
      }
    }
  }

 private:
  qadist::bench::BenchReport* report_;
};

std::string report_name(const char* argv0) {
  std::string name = argv0 != nullptr ? argv0 : "";
  if (const auto slash = name.find_last_of("/\\");
      slash != std::string::npos) {
    name.erase(0, slash + 1);
  }
  if (name.rfind("bench_", 0) == 0) name.erase(0, 6);
  return name.empty() ? "micro" : name;
}

}  // namespace

int main(int argc, char** argv) {
  qadist::bench::BenchReport report(report_name(argc > 0 ? argv[0] : ""));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter(&report);
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (report.metric_count() > 0) report.write();
  return ran == 0 ? 1 : 0;
}
