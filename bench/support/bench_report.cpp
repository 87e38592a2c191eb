#include "support/bench_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace qadist::bench {

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::config(std::string key, std::string value) {
  config_.emplace_back(std::move(key), std::move(value));
}

void BenchReport::config(std::string key, double value) {
  config_.emplace_back(std::move(key), value);
}

void BenchReport::config(std::string key, std::int64_t value) {
  config_.emplace_back(std::move(key), value);
}

void BenchReport::push(Metric m, const double* paper) {
  if (paper != nullptr) {
    m.has_paper = true;
    m.paper_expected = *paper;
  }
  metrics_.push_back(std::move(m));
}

void BenchReport::metric(std::string name, obs::Labels labels, double value) {
  Metric m{std::move(name), std::move(labels), 1, value, value, value, value};
  push(std::move(m), nullptr);
}

void BenchReport::metric(std::string name, obs::Labels labels, double value,
                         double paper_expected) {
  Metric m{std::move(name), std::move(labels), 1, value, value, value, value};
  push(std::move(m), &paper_expected);
}

void BenchReport::metric(std::string name, obs::Labels labels,
                         const Samples& samples) {
  Samples sorted = samples;  // const quantiles would copy per call
  sorted.sort();
  Metric m{std::move(name),        std::move(labels),
           sorted.count(),        sorted.mean(),
           sorted.quantile_or(0.5, 0.0), sorted.quantile_or(0.95, 0.0),
           sorted.quantile_or(1.0, 0.0)};
  push(std::move(m), nullptr);
}

void BenchReport::metric(std::string name, obs::Labels labels,
                         const Samples& samples, double paper_expected) {
  Samples sorted = samples;  // const quantiles would copy per call
  sorted.sort();
  Metric m{std::move(name),        std::move(labels),
           sorted.count(),        sorted.mean(),
           sorted.quantile_or(0.5, 0.0), sorted.quantile_or(0.95, 0.0),
           sorted.quantile_or(1.0, 0.0)};
  push(std::move(m), &paper_expected);
}

void BenchReport::metric(std::string name, obs::Labels labels,
                         const RunningStats& stats) {
  Metric m{std::move(name), std::move(labels), stats.count(), stats.mean(),
           stats.mean(),    stats.mean(),      stats.max()};
  push(std::move(m), nullptr);
}

void BenchReport::metric(std::string name, obs::Labels labels,
                         const RunningStats& stats, double paper_expected) {
  Metric m{std::move(name), std::move(labels), stats.count(), stats.mean(),
           stats.mean(),    stats.mean(),      stats.max()};
  push(std::move(m), &paper_expected);
}

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"qadist-bench-v1\",\"bench\":";
  obs::json_string(os, name_);
  os << ",\"config\":{";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i > 0) os << ',';
    obs::json_string(os, config_[i].first);
    os << ':';
    const auto& v = config_[i].second;
    if (const auto* s = std::get_if<std::string>(&v)) {
      obs::json_string(os, *s);
    } else if (const auto* d = std::get_if<double>(&v)) {
      obs::json_number(os, *d);
    } else {
      os << std::get<std::int64_t>(v);
    }
  }
  // One metric per line, so a line diff of two reports shows each moved
  // metric with its labels and both values.
  os << "},\"metrics\":[";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i > 0 ? ",\n" : "\n");
    os << "{\"name\":";
    obs::json_string(os, m.name);
    os << ",\"labels\":{";
    for (std::size_t j = 0; j < m.labels.size(); ++j) {
      if (j > 0) os << ',';
      obs::json_string(os, m.labels[j].first);
      os << ':';
      obs::json_string(os, m.labels[j].second);
    }
    os << "},\"count\":" << m.count;
    os << ",\"mean\":";
    obs::json_number(os, m.mean);
    os << ",\"p50\":";
    obs::json_number(os, m.p50);
    os << ",\"p95\":";
    obs::json_number(os, m.p95);
    os << ",\"max\":";
    obs::json_number(os, m.max);
    if (m.has_paper) {
      os << ",\"paper_expected\":";
      obs::json_number(os, m.paper_expected);
    }
    os << '}';
  }
  os << "\n]}\n";
  return os.str();
}

std::string BenchReport::output_path() const {
  const char* dir = std::getenv("QADIST_RESULTS_DIR");
  const std::string base = (dir != nullptr && *dir != '\0') ? dir : "results";
  return base + "/BENCH_" + name_ + ".json";
}

bool BenchReport::write() const {
  const std::string path = output_path();
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", path.c_str());
    return false;
  }
  out << to_json();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench_report: write to %s failed\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace qadist::bench
