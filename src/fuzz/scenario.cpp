#include "fuzz/scenario.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace qadist::fuzz {

namespace {

constexpr std::string_view kSchema = "qadist-scenario-v1";

// ---- serialization helpers ------------------------------------------------

std::string_view shape_token(workload::ArrivalShape shape) {
  // workload::to_string already emits stable lowercase tokens; reuse them.
  return to_string(shape);
}

workload::ArrivalShape shape_from_token(std::string_view token) {
  using workload::ArrivalShape;
  if (token == "poisson") return ArrivalShape::kPoisson;
  if (token == "mmpp") return ArrivalShape::kMmpp;
  if (token == "diurnal") return ArrivalShape::kDiurnal;
  if (token == "flash_crowd") return ArrivalShape::kFlashCrowd;
  QADIST_CHECK(false, << "scenario: unknown arrival shape \"" << token
                      << "\"");
  return ArrivalShape::kPoisson;  // unreachable
}

std::string_view policy_token(cluster::AdmissionPolicy policy) {
  using cluster::AdmissionPolicy;
  switch (policy) {
    case AdmissionPolicy::kReject:
      return "reject";
    case AdmissionPolicy::kShedOldest:
      return "shed_oldest";
    case AdmissionPolicy::kDegrade:
      return "degrade";
  }
  QADIST_UNREACHABLE("bad AdmissionPolicy");
}

cluster::AdmissionPolicy policy_from_token(std::string_view token) {
  using cluster::AdmissionPolicy;
  if (token == "reject") return AdmissionPolicy::kReject;
  if (token == "shed_oldest") return AdmissionPolicy::kShedOldest;
  if (token == "degrade") return AdmissionPolicy::kDegrade;
  QADIST_CHECK(false, << "scenario: unknown admission policy \"" << token
                      << "\"");
  return AdmissionPolicy::kReject;  // unreachable
}

/// Scenario JSON writer with the canonical fixed field order. Doubles go
/// through format_double (exact round trip), not obs::json_number (12
/// significant digits — fine for reports, lossy for replay).
class Writer {
 public:
  void field(std::string_view key, double value) {
    QADIST_CHECK(std::isfinite(value),
                 << "scenario field " << key << " is not finite");
    open_field(key);
    out_ << format_double(value);
  }
  void field(std::string_view key, std::size_t value) {
    open_field(key);
    out_ << value;
  }
  void field(std::string_view key, std::uint32_t value) {
    open_field(key);
    out_ << value;
  }
  void field(std::string_view key, bool value) {
    open_field(key);
    out_ << (value ? "true" : "false");
  }
  void field(std::string_view key, std::string_view value) {
    open_field(key);
    obs::json_string(out_, value);
  }
  void begin_object(std::string_view key = {}) {
    open_field(key);
    out_ << "{";
    first_.push_back(true);
  }
  void end_object() {
    first_.pop_back();
    out_ << "}";
  }
  void begin_array(std::string_view key) {
    open_field(key);
    out_ << "[";
    first_.push_back(true);
  }
  void end_array() {
    first_.pop_back();
    out_ << "]";
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  void open_field(std::string_view key) {
    if (!first_.empty()) {
      if (!first_.back()) out_ << ",";
      first_.back() = false;
    }
    if (!key.empty()) {
      obs::json_string(out_, key);
      out_ << ":";
    }
  }
  std::ostringstream out_;
  std::vector<char> first_;
};

// ---- parsing helpers ------------------------------------------------------

const obs::JsonValue& member(const obs::JsonValue& object,
                             const std::string& key) {
  const obs::JsonValue& v = object.at(key);
  QADIST_CHECK(!v.is_null(), << "scenario: missing field \"" << key << "\"");
  return v;
}

double num(const obs::JsonValue& object, const std::string& key) {
  const obs::JsonValue& v = member(object, key);
  QADIST_CHECK(v.is_number(),
               << "scenario: field \"" << key << "\" must be a number");
  return v.number;
}

std::size_t count_field(const obs::JsonValue& object, const std::string& key) {
  const double v = num(object, key);
  QADIST_CHECK(v >= 0.0 && v == std::floor(v),
               << "scenario: field \"" << key
               << "\" must be a non-negative integer, got " << v);
  return static_cast<std::size_t>(v);
}

bool bool_field(const obs::JsonValue& object, const std::string& key) {
  const obs::JsonValue& v = member(object, key);
  QADIST_CHECK(v.is_bool(),
               << "scenario: field \"" << key << "\" must be a boolean");
  return v.boolean;
}

std::string string_field(const obs::JsonValue& object,
                         const std::string& key) {
  const obs::JsonValue& v = member(object, key);
  QADIST_CHECK(v.is_string(),
               << "scenario: field \"" << key << "\" must be a string");
  return v.string;
}

// Seeds use the full 64-bit range, which JSON numbers (doubles) cannot
// carry exactly — they travel as decimal strings instead.
std::uint64_t u64_field(const obs::JsonValue& object, const std::string& key) {
  const std::string text = string_field(object, key);
  QADIST_CHECK(!text.empty() &&
                   text.find_first_not_of("0123456789") == std::string::npos,
               << "scenario: field \"" << key
               << "\" must be a decimal digit string, got \"" << text << "\"");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  QADIST_CHECK(errno == 0 && end == text.c_str() + text.size(),
               << "scenario: field \"" << key << "\" out of range: " << text);
  return static_cast<std::uint64_t>(value);
}

}  // namespace

std::string format_double(double value) {
  QADIST_CHECK(std::isfinite(value), << "cannot serialize non-finite double");
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string to_json(const Scenario& s) {
  Writer w;
  w.begin_object();
  w.field("schema", kSchema);
  w.field("name", std::string_view(s.name));
  const std::string system_seed = std::to_string(s.seed);
  w.field("seed", std::string_view(system_seed));
  w.field("nodes", s.nodes);

  w.begin_object("traffic");
  w.field("shape", shape_token(s.traffic.shape));
  w.field("rate_qps", s.traffic.rate_qps);
  w.field("count", s.traffic.count);
  const std::string traffic_seed = std::to_string(s.traffic.seed);
  w.field("seed", std::string_view(traffic_seed));
  w.field("burst_rate_multiplier", s.traffic.burst_rate_multiplier);
  w.field("mean_burst_seconds", s.traffic.mean_burst_seconds);
  w.field("mean_calm_seconds", s.traffic.mean_calm_seconds);
  w.field("diurnal_period", s.traffic.diurnal_period);
  w.field("diurnal_amplitude", s.traffic.diurnal_amplitude);
  w.field("flash_at", s.traffic.flash_at);
  w.field("flash_duration", s.traffic.flash_duration);
  w.field("flash_multiplier", s.traffic.flash_multiplier);
  w.field("repeat_exponent", s.traffic.repeat_exponent);
  w.field("distinct_questions", s.traffic.distinct_questions);
  w.end_object();

  w.field("plan_offset", s.plan_offset);
  w.field("plan_stride", s.plan_stride);
  w.field("ap_chunk", s.ap_chunk);
  w.field("num_shards", s.num_shards);
  w.field("replication", s.replication);
  w.field("brokers", s.brokers);
  w.field("selectivity", s.selectivity);
  w.field("top_k", s.top_k);

  w.begin_array("crashes");
  for (const cluster::FaultEvent& crash : s.crashes) {
    w.begin_object();
    w.field("node", crash.node);
    w.field("at", crash.at);
    w.field("restart_after", crash.restart_after);
    w.end_object();
  }
  w.end_array();

  w.begin_object("link");
  w.field("drop_probability", s.drop_probability);
  w.field("duplicate_probability", s.duplicate_probability);
  w.field("jitter_min", s.jitter_min);
  w.field("jitter_max", s.jitter_max);
  w.begin_array("partitions");
  for (const simnet::PartitionWindow& window : s.partitions) {
    w.begin_object();
    w.field("from", window.from);
    w.field("until", window.until);
    w.begin_array("isolated");
    for (const std::uint32_t node : window.isolated) {
      w.begin_object();
      w.field("node", node);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.begin_array("gray");
  for (const simnet::GrayFaultEvent& event : s.gray) {
    w.begin_object();
    w.field("node", event.node);
    w.field("at", event.at);
    w.field("recover_after", event.recover_after);
    w.field("cpu_factor", event.cpu_factor);
    w.field("disk_factor", event.disk_factor);
    w.field("extra_latency", event.extra_latency);
    w.end_object();
  }
  w.end_array();

  w.begin_object("admission");
  w.field("max_concurrent", s.max_concurrent);
  w.field("queue_capacity", s.queue_capacity);
  w.field("policy", policy_token(s.admission_policy));
  w.field("load_threshold", s.load_threshold);
  w.end_object();

  w.begin_object("tail");
  w.field("hedge", s.hedge);
  w.field("tied", s.tied);
  w.field("latency_aware", s.latency_aware);
  w.field("hedge_quantile", s.hedge_quantile);
  w.end_object();

  w.begin_object("cache");
  w.field("answer_entries", s.answer_cache_entries);
  w.field("paragraph_entries", s.paragraph_cache_entries);
  w.field("ttl", s.cache_ttl);
  w.end_object();

  w.field("question_deadline", s.question_deadline);

  if (s.pin.present) {
    w.begin_object("pin");
    w.field("p99_seconds", s.pin.p99_seconds);
    w.field("degraded_fraction", s.pin.degraded_fraction);
    w.field("baseline_p99_seconds", s.pin.baseline_p99_seconds);
    w.field("slack", s.pin.slack);
    if (!s.pin.digest.empty()) w.field("digest", s.pin.digest);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

Scenario scenario_from_json(std::string_view text) {
  const auto parsed = obs::parse_json(text);
  QADIST_CHECK(parsed.has_value(),
               << "scenario: malformed or truncated JSON ("
               << text.size() << " bytes)");
  const obs::JsonValue& root = *parsed;
  QADIST_CHECK(root.is_object(), << "scenario: root must be an object");
  const std::string schema = string_field(root, "schema");
  QADIST_CHECK(schema == kSchema,
               << "scenario: schema mismatch, expected \"" << kSchema
               << "\", got \"" << schema << "\"");

  Scenario s;
  s.name = string_field(root, "name");
  s.seed = u64_field(root, "seed");
  s.nodes = count_field(root, "nodes");

  const obs::JsonValue& traffic = member(root, "traffic");
  QADIST_CHECK(traffic.is_object(),
               << "scenario: field \"traffic\" must be an object");
  s.traffic.shape = shape_from_token(string_field(traffic, "shape"));
  s.traffic.rate_qps = num(traffic, "rate_qps");
  s.traffic.count = count_field(traffic, "count");
  s.traffic.seed = u64_field(traffic, "seed");
  s.traffic.burst_rate_multiplier = num(traffic, "burst_rate_multiplier");
  s.traffic.mean_burst_seconds = num(traffic, "mean_burst_seconds");
  s.traffic.mean_calm_seconds = num(traffic, "mean_calm_seconds");
  s.traffic.diurnal_period = num(traffic, "diurnal_period");
  s.traffic.diurnal_amplitude = num(traffic, "diurnal_amplitude");
  s.traffic.flash_at = num(traffic, "flash_at");
  s.traffic.flash_duration = num(traffic, "flash_duration");
  s.traffic.flash_multiplier = num(traffic, "flash_multiplier");
  s.traffic.repeat_exponent = num(traffic, "repeat_exponent");
  s.traffic.distinct_questions = count_field(traffic, "distinct_questions");

  s.plan_offset = count_field(root, "plan_offset");
  s.plan_stride = count_field(root, "plan_stride");
  s.ap_chunk = count_field(root, "ap_chunk");
  s.num_shards = count_field(root, "num_shards");
  s.replication = count_field(root, "replication");
  s.brokers = count_field(root, "brokers");
  s.selectivity = num(root, "selectivity");
  s.top_k = count_field(root, "top_k");

  for (const obs::JsonValue& crash : member(root, "crashes").items()) {
    cluster::FaultEvent event;
    event.node =
        static_cast<sched::NodeId>(count_field(crash, "node"));
    event.at = num(crash, "at");
    event.restart_after = num(crash, "restart_after");
    s.crashes.push_back(event);
  }

  const obs::JsonValue& link = member(root, "link");
  s.drop_probability = num(link, "drop_probability");
  s.duplicate_probability = num(link, "duplicate_probability");
  s.jitter_min = num(link, "jitter_min");
  s.jitter_max = num(link, "jitter_max");
  for (const obs::JsonValue& window : member(link, "partitions").items()) {
    simnet::PartitionWindow w;
    w.from = num(window, "from");
    w.until = num(window, "until");
    for (const obs::JsonValue& node : member(window, "isolated").items()) {
      w.isolated.push_back(
          static_cast<std::uint32_t>(count_field(node, "node")));
    }
    s.partitions.push_back(std::move(w));
  }

  for (const obs::JsonValue& event : member(root, "gray").items()) {
    simnet::GrayFaultEvent g;
    g.node = static_cast<std::uint32_t>(count_field(event, "node"));
    g.at = num(event, "at");
    g.recover_after = num(event, "recover_after");
    g.cpu_factor = num(event, "cpu_factor");
    g.disk_factor = num(event, "disk_factor");
    g.extra_latency = num(event, "extra_latency");
    s.gray.push_back(g);
  }

  const obs::JsonValue& admission = member(root, "admission");
  s.max_concurrent = count_field(admission, "max_concurrent");
  s.queue_capacity = count_field(admission, "queue_capacity");
  s.admission_policy = policy_from_token(string_field(admission, "policy"));
  s.load_threshold = num(admission, "load_threshold");

  const obs::JsonValue& tail = member(root, "tail");
  s.hedge = bool_field(tail, "hedge");
  s.tied = bool_field(tail, "tied");
  s.latency_aware = bool_field(tail, "latency_aware");
  s.hedge_quantile = num(tail, "hedge_quantile");

  const obs::JsonValue& cache = member(root, "cache");
  s.answer_cache_entries = count_field(cache, "answer_entries");
  s.paragraph_cache_entries = count_field(cache, "paragraph_entries");
  s.cache_ttl = num(cache, "ttl");

  s.question_deadline = num(root, "question_deadline");

  const obs::JsonValue& pin = root.at("pin");
  if (!pin.is_null()) {
    s.pin.present = true;
    s.pin.p99_seconds = num(pin, "p99_seconds");
    s.pin.degraded_fraction = num(pin, "degraded_fraction");
    s.pin.baseline_p99_seconds = num(pin, "baseline_p99_seconds");
    s.pin.slack = num(pin, "slack");
    if (!pin.at("digest").is_null()) {
      s.pin.digest = string_field(pin, "digest");
    }
  }
  return s;
}

std::vector<std::size_t> Scenario::plan_subset(std::size_t plan_count) const {
  std::vector<std::size_t> subset;
  if (plan_stride == 0) return subset;
  for (std::size_t i = plan_offset; i < plan_count; i += plan_stride) {
    subset.push_back(i);
  }
  return subset;
}

Seconds Scenario::last_arrival() const {
  const auto times = workload::arrival_times(traffic);
  return times.empty() ? 0.0 : times.back();
}

std::optional<std::string> Scenario::problem(std::size_t plan_count) const {
  const auto fail = [](std::string message) {
    return std::optional<std::string>(std::move(message));
  };
  const auto finite_in = [](double v, double lo, double hi) {
    return std::isfinite(v) && v >= lo && v <= hi;
  };

  if (nodes < 2 || nodes > 64) return fail("nodes must be in [2, 64]");
  if (plan_stride < 1) return fail("plan_stride must be >= 1");
  if (plan_subset(plan_count).empty()) {
    return fail("plan skew selects no plans (offset past the plan set)");
  }
  if (ap_chunk < 1) return fail("ap_chunk must be >= 1");
  if (num_shards > 0 &&
      (replication < 1 || replication > nodes)) {
    return fail("replication must be in [1, nodes] when sharded");
  }
  if (!finite_in(selectivity, 0.0, 1.0) || selectivity <= 0.0) {
    return fail("selectivity must be in (0, 1]");
  }
  if (brokers > nodes) return fail("brokers must be <= nodes");
  if (num_shards == 0 &&
      (brokers > 0 || selectivity < 1.0 || top_k > 0)) {
    return fail("broker/selection knobs require a sharded corpus");
  }

  // Traffic. Bounds chosen so every valid scenario runs in bounded time:
  // the fuzzer's fitness loop depends on runs being seconds, not minutes.
  const workload::ArrivalProcessConfig& t = traffic;
  if (t.count < 1 || t.count > 100000) {
    return fail("traffic.count must be in [1, 100000]");
  }
  if (!std::isfinite(t.rate_qps) || t.rate_qps <= 0.0) {
    return fail("traffic.rate_qps must be finite and positive");
  }
  if (!finite_in(t.burst_rate_multiplier, 1.0, 64.0)) {
    return fail("traffic.burst_rate_multiplier must be in [1, 64]");
  }
  if (!std::isfinite(t.mean_burst_seconds) || t.mean_burst_seconds <= 0.0 ||
      !std::isfinite(t.mean_calm_seconds) || t.mean_calm_seconds <= 0.0) {
    return fail("traffic MMPP dwell means must be finite and positive");
  }
  if (!std::isfinite(t.diurnal_period) || t.diurnal_period <= 0.0) {
    return fail("traffic.diurnal_period must be finite and positive");
  }
  if (!finite_in(t.diurnal_amplitude, 0.0, 0.99)) {
    return fail("traffic.diurnal_amplitude must be in [0, 0.99]");
  }
  if (!std::isfinite(t.flash_at) || t.flash_at < 0.0 ||
      !std::isfinite(t.flash_duration) || t.flash_duration < 0.0) {
    return fail("traffic flash window must be finite and non-negative");
  }
  if (!finite_in(t.flash_multiplier, 1.0, 64.0)) {
    return fail("traffic.flash_multiplier must be in [1, 64]");
  }
  if (!std::isfinite(t.repeat_exponent) || t.repeat_exponent < 0.0) {
    return fail("traffic.repeat_exponent must be finite and >= 0");
  }

  // Fault schedules. Event instants must land inside the stream horizon
  // plus the Driver's drain allowance — exactly the Driver's own check, so
  // a scenario that validates here never panics there.
  const Seconds horizon = last_arrival();
  const Seconds limit = horizon + workload::Driver::drain_allowance(horizon);
  for (const cluster::FaultEvent& crash : crashes) {
    if (crash.node >= nodes) return fail("crash targets unknown node");
    if (!finite_in(crash.at, 0.0, limit)) {
      return fail("crash instant outside [0, horizon + drain allowance]");
    }
    if (std::isnan(crash.restart_after)) {
      return fail("crash restart_after must not be NaN");
    }
  }
  if (!finite_in(drop_probability, 0.0, 0.5)) {
    return fail("drop_probability must be in [0, 0.5]");
  }
  if (!finite_in(duplicate_probability, 0.0, 0.5)) {
    return fail("duplicate_probability must be in [0, 0.5]");
  }
  if (!std::isfinite(jitter_min) || !std::isfinite(jitter_max) ||
      jitter_min < 0.0 || jitter_max < jitter_min) {
    return fail("jitter window must satisfy 0 <= jitter_min <= jitter_max");
  }
  for (const simnet::PartitionWindow& window : partitions) {
    if (!finite_in(window.from, 0.0, limit) ||
        !std::isfinite(window.until) || window.until <= window.from) {
      return fail("partition window must satisfy 0 <= from < until and "
                  "start inside the horizon");
    }
    if (window.isolated.empty() || window.isolated.size() >= nodes) {
      return fail("partition must isolate at least one node and leave at "
                  "least one connected");
    }
    for (const std::uint32_t node : window.isolated) {
      if (node >= nodes) return fail("partition isolates unknown node");
    }
  }
  for (const simnet::GrayFaultEvent& event : gray) {
    if (event.node >= nodes) return fail("gray window targets unknown node");
    if (!finite_in(event.at, 0.0, limit)) {
      return fail("gray onset outside [0, horizon + drain allowance]");
    }
    if (std::isnan(event.recover_after)) {
      return fail("gray recover_after must not be NaN");
    }
    if (!finite_in(event.cpu_factor, 1.0, 64.0) ||
        !finite_in(event.disk_factor, 1.0, 64.0)) {
      return fail("gray factors must be in [1, 64]");
    }
    if (!finite_in(event.extra_latency, 0.0, 10.0)) {
      return fail("gray extra_latency must be in [0, 10] seconds");
    }
  }

  if (max_concurrent > 0 && queue_capacity > 100000) {
    return fail("queue_capacity must be <= 100000");
  }
  if (!std::isfinite(load_threshold) || load_threshold < 0.0) {
    return fail("load_threshold must be finite and >= 0");
  }
  if (!finite_in(hedge_quantile, 0.0, 1.0)) {
    return fail("hedge_quantile must be in [0, 1]");
  }
  if (!std::isfinite(cache_ttl) || cache_ttl < 0.0) {
    return fail("cache ttl must be finite and >= 0");
  }
  // Liveness by construction: a positive deadline guarantees that under
  // any fault schedule a question degrades rather than hangs.
  if (!finite_in(question_deadline, 10.0, 3600.0)) {
    return fail("question_deadline must be in [10, 3600] seconds");
  }
  return std::nullopt;
}

cluster::SystemConfig Scenario::system_config() const {
  cluster::SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  cfg.dispatch.policy = cluster::Policy::kDqa;
  cfg.partition.ap_chunk = ap_chunk;
  cfg.net.faults.drop_probability = drop_probability;
  cfg.net.faults.duplicate_probability = duplicate_probability;
  cfg.net.faults.jitter_min = jitter_min;
  cfg.net.faults.jitter_max = jitter_max;
  cfg.net.faults.partitions = partitions;
  cfg.net.reliability.question_deadline = question_deadline;
  cfg.faults.crashes = crashes;
  cfg.gray.events = gray;
  cfg.admission.max_concurrent = max_concurrent;
  cfg.admission.queue_capacity = queue_capacity;
  cfg.admission.policy = admission_policy;
  cfg.admission.load_threshold = load_threshold;
  cfg.tail.hedge = hedge;
  cfg.tail.tied = tied;
  cfg.tail.latency_aware = latency_aware;
  cfg.tail.hedge_quantile = hedge_quantile;
  cfg.cache.answers.max_entries = answer_cache_entries;
  cfg.cache.answers.ttl = cache_ttl;
  cfg.cache.paragraphs.max_entries = paragraph_cache_entries;
  cfg.cache.paragraphs.ttl = cache_ttl;
  cfg.shard.num_shards = num_shards;
  cfg.shard.replication = replication;
  cfg.broker.brokers = brokers;
  cfg.broker.selectivity = selectivity;
  cfg.broker.top_k = top_k;
  return cfg;
}

workload::RunSpec Scenario::run_spec() const {
  workload::RunSpec spec;
  spec.shape = workload::WorkloadShape::kOpenLoop;
  spec.open_loop = traffic;
  return spec;
}

Scenario reference_scenario(std::size_t nodes, double mean_service_seconds,
                            std::uint64_t seed) {
  QADIST_CHECK(mean_service_seconds > 0.0);
  Scenario s;
  s.name = "reference";
  s.seed = seed;
  s.nodes = nodes;
  s.traffic.shape = workload::ArrivalShape::kPoisson;
  // Half the aggregate service rate: comfortably under saturation, so the
  // baseline tail is a healthy tail and a 3x blowup means something.
  s.traffic.rate_qps =
      0.5 * static_cast<double>(nodes) / mean_service_seconds;
  s.traffic.count = 8 * nodes;
  s.traffic.seed = seed;
  return s;
}

}  // namespace qadist::fuzz
