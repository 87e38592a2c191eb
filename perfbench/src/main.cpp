// qadist_perfbench: runs one benchmark workload and prints its metrics.
//
//   qadist_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--perturb none|score-twice|ps-double]
//   qadist_perfbench --list
//
// Output: human-readable metric lines, one `MANIFEST {...}` line, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when a correctness check failed, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

int usage(const char* msg) {
  std::fprintf(stderr,
               "qadist_perfbench: %s\nusage: qadist_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--perturb "
               "none|score-twice|ps-double] | --list\n",
               msg);
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const auto& w : perfbench::workload_names()) {
        std::printf("workload %s\n", w.c_str());
      }
      for (const auto& [name, unit] : perfbench::end_to_end_catalog()) {
        std::printf("end_to_end %s %s\n", name.c_str(), unit.c_str());
      }
      for (const auto& [name, unit] : perfbench::per_layer_catalog()) {
        std::printf("per_layer %s %s\n", name.c_str(), unit.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--perturb") {
      if (value == "none") {
        o.perturb = perfbench::Perturb::kNone;
      } else if (value == "score-twice") {
        o.perturb = perfbench::Perturb::kScoreTwice;
      } else if (value == "ps-double") {
        o.perturb = perfbench::Perturb::kPsDouble;
      } else {
        return usage("unknown --perturb");
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == o.workload;
  if (!known) return usage(("unknown workload " + o.workload).c_str());

  perfbench::Report r = perfbench::run_workload(o);
  const auto& result = o.trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : result) {
    if (!std::isfinite(m.value)) r.violations.push_back(m.name + " is not finite");
  }

  std::printf("workload %s, seed %llu, %s run\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced");
  if (!o.trace) print_metrics("end-to-end metrics:", r.end_to_end);
  print_metrics("named metrics:", r.named);
  if (o.trace) print_metrics("per-layer metrics:", r.per_layer);
  for (const auto& v : r.violations) std::printf("VIOLATION: %s\n", v.c_str());

  std::string manifest = "{";
  for (std::size_t i = 0; i < r.manifest.size(); ++i) {
    manifest += (i ? ", \"" : "\"") + r.manifest[i].first +
                "\": " + r.manifest[i].second;
  }
  std::printf("MANIFEST %s}\n", manifest.c_str());

  std::string json = std::string("{\"correct\": ") +
                     (r.violations.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < result.size(); ++i) {
    const double v = std::isfinite(result[i].value) ? result[i].value : 0.0;
    json += (i ? ", \"" : "\"") + result[i].name + "\": {\"value\": " +
            number(v) + ", \"unit\": \"" + result[i].unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  return r.violations.empty() ? 0 : 1;
}
