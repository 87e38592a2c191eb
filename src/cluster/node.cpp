#include "cluster/node.hpp"

#include <cmath>
#include <string>

#include "common/check.hpp"

namespace qadist::cluster {

Node::Node(simnet::Simulation& sim, sched::NodeId id, const NodeConfig& config)
    : id_(id), sim_(&sim), config_(config) {
  QADIST_CHECK(config.thrash_exponent >= 0.0);
  QADIST_CHECK(config.cpu_speed > 0.0);
  const std::string base = "node" + std::to_string(id);
  cpu_ = std::make_unique<simnet::FairShareServer>(
      sim, base + ".cpu", config.cpu_speed,
      /*max_rate_per_customer=*/config.cpu_speed);
  disk_ = std::make_unique<simnet::FairShareServer>(
      sim, base + ".disk", kDiskBandwidth.bytes_per_second,
      kDiskBandwidth.bytes_per_second);
  last_sample_ = sim.now();
}

void Node::attach_registry(obs::MetricsRegistry& registry) {
  const obs::Labels labels{{"node", std::to_string(id_)}};
  cpu_load_gauge_ = &registry.gauge("node_cpu_load", labels);
  disk_load_gauge_ = &registry.gauge("node_disk_load", labels);
  hosted_counter_ = &registry.counter("node_questions_hosted", labels);
}

void Node::question_departed() {
  QADIST_CHECK(resident_questions_ > 0,
               << "node " << id_ << ": departure without arrival");
  --resident_questions_;
}

void Node::crash() {
  cpu_->halt();
  disk_->halt();
  resident_questions_ = 0;  // the hosted questions died with the process
}

void Node::restart() {
  cpu_->restart();
  disk_->restart();
}

double Node::work_multiplier() const {
  if (config_.thrash_exponent == 0.0 || resident_questions_ <= kMemorySlots) {
    return 1.0;
  }
  return std::pow(static_cast<double>(resident_questions_) /
                      static_cast<double>(kMemorySlots),
                  config_.thrash_exponent);
}

sched::ResourceLoad Node::sample_load() {
  const Seconds now = sim_->now();
  const double cpu_integral = cpu_->load_integral();
  const double disk_integral = disk_->load_integral();
  sched::ResourceLoad load;
  const Seconds dt = now - last_sample_;
  if (dt > 0.0) {
    load.cpu = (cpu_integral - last_cpu_integral_) / dt;
    load.disk = (disk_integral - last_disk_integral_) / dt;
  } else {
    // Zero-length period: report instantaneous occupancy.
    load.cpu = cpu_->active();
    load.disk = disk_->active();
  }
  last_sample_ = now;
  last_cpu_integral_ = cpu_integral;
  last_disk_integral_ = disk_integral;
  if (cpu_load_gauge_ != nullptr) {
    cpu_load_gauge_->set(load.cpu);
    disk_load_gauge_->set(load.disk);
  }
  return load;
}

}  // namespace qadist::cluster
