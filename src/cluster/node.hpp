#pragma once

#include <memory>

#include "common/units.hpp"
#include "obs/registry.hpp"
#include "sched/load.hpp"
#include "simnet/fair_share.hpp"

namespace qadist::cluster {

/// Local disk bandwidth of every node.
inline constexpr Bandwidth kDiskBandwidth = Bandwidth::from_mbps(250);

/// Questions a node's 256 MB hold without swapping (paper Sec. 4.2: a
/// question needs 25-40 MB, and more than ~4 simultaneous questions cause
/// "excessive page swapping").
inline constexpr int kMemorySlots = 4;

/// Hardware of one simulated cluster node, mirroring the paper's testbed:
/// a single-CPU Pentium III box with a local disk (kDiskBandwidth) and
/// 256 MB of RAM. The CPU and disk are fair-share servers — time-sharing
/// under load is what makes overloaded nodes slow, which is what load
/// balancing exists to avoid.
struct NodeConfig {
  /// Memory-pressure model: while more than kMemorySlots questions are
  /// resident, every unit of work on the node is inflated by
  /// (resident/kMemorySlots)^thrash_exponent. The default exponent of 0
  /// disables the model (pure CPU/disk time-sharing), which is what the
  /// calibrated experiments use; bench_ablations measures its effect.
  double thrash_exponent = 0.0;

  /// Relative CPU speed (1.0 = the reference Pentium III). The paper's
  /// testbed is homogeneous; heterogeneous speeds are an extension that
  /// exercises the meta-scheduler's weighted partitioning for real —
  /// slower nodes accumulate backlog, broadcast higher loads, and receive
  /// smaller partitions.
  double cpu_speed = 1.0;
};

class Node {
 public:
  Node(simnet::Simulation& sim, sched::NodeId id, const NodeConfig& config);

  [[nodiscard]] sched::NodeId id() const { return id_; }
  [[nodiscard]] simnet::FairShareServer& cpu() { return *cpu_; }
  [[nodiscard]] simnet::FairShareServer& disk() { return *disk_; }

  /// Registers this node's observability instruments (labeled by node id):
  /// `node_cpu_load` / `node_disk_load` gauges refreshed on every load
  /// sample, and a `node_questions_hosted` counter. The registry must
  /// outlive the node; called by System at construction, optional for
  /// standalone nodes in tests.
  void attach_registry(obs::MetricsRegistry& registry);

  /// Resident-question tracking for the memory model. The System calls
  /// these when a question starts/finishes on this node as its host.
  void question_arrived() {
    ++resident_questions_;
    if (hosted_counter_ != nullptr) hosted_counter_->inc();
  }
  void question_departed();
  [[nodiscard]] int resident_questions() const { return resident_questions_; }

  /// Fault injection: a crash halts CPU and disk (in-flight work resumes
  /// unserved — customers must check the owning System's crash flag after
  /// every co_await) and forgets the resident questions, which die with
  /// the process. restart() brings the hardware back empty.
  void crash();
  void restart();
  [[nodiscard]] bool crashed() const { return cpu_->halted(); }

  /// Work inflation factor from memory pressure; 1.0 while the model is
  /// disabled or the node is within its memory budget.
  [[nodiscard]] double work_multiplier() const;

  /// Gray degradation (simnet::GrayFaultPlan): service-time stretch factors
  /// applied on top of work_multiplier() while a gray window is open.
  /// Defaults to 1.0 on both resources, which multiplies work demands by
  /// exactly 1.0 — bit-identical to a build without the gray-fault path.
  /// Unlike crash(), gray degradation is invisible to the failure detector:
  /// heartbeats keep flowing, only data-path service times stretch.
  void set_gray(double cpu_factor, double disk_factor) {
    gray_cpu_factor_ = cpu_factor;
    gray_disk_factor_ = disk_factor;
  }
  void clear_gray() { set_gray(1.0, 1.0); }
  [[nodiscard]] double gray_cpu_factor() const { return gray_cpu_factor_; }
  [[nodiscard]] double gray_disk_factor() const { return gray_disk_factor_; }
  [[nodiscard]] bool gray() const {
    return gray_cpu_factor_ != 1.0 || gray_disk_factor_ != 1.0;
  }

  /// Service demand of `work` on this node right now: the memory-pressure
  /// multiplier (or a `thrash` sampled earlier) times the gray stretch of
  /// the resource. Evaluated left to right, as `work * thrash * factor`.
  [[nodiscard]] double cpu_work(double work) const {
    return cpu_work(work, work_multiplier());
  }
  [[nodiscard]] double cpu_work(double work, double thrash) const {
    return work * thrash * gray_cpu_factor_;
  }
  [[nodiscard]] double disk_work(double work, double thrash) const {
    return work * thrash * gray_disk_factor_;
  }
  /// Gray stretch only, for work the memory model does not inflate.
  [[nodiscard]] double gray_cpu_work(double work) const {
    return work * gray_cpu_factor_;
  }
  [[nodiscard]] double gray_disk_work(double work) const {
    return work * gray_disk_factor_;
  }

  /// Time-averaged resource loads since the previous call — the load
  /// monitor's per-period measurement (average active customers per
  /// resource over the period).
  [[nodiscard]] sched::ResourceLoad sample_load();

 private:
  sched::NodeId id_;
  simnet::Simulation* sim_;
  NodeConfig config_;
  std::unique_ptr<simnet::FairShareServer> cpu_;
  std::unique_ptr<simnet::FairShareServer> disk_;
  int resident_questions_ = 0;
  double gray_cpu_factor_ = 1.0;
  double gray_disk_factor_ = 1.0;
  Seconds last_sample_ = 0.0;
  double last_cpu_integral_ = 0.0;
  double last_disk_integral_ = 0.0;
  obs::Gauge* cpu_load_gauge_ = nullptr;
  obs::Gauge* disk_load_gauge_ = nullptr;
  obs::Counter* hosted_counter_ = nullptr;
};

}  // namespace qadist::cluster
