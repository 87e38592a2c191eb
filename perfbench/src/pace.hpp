#pragma once

// Host-speed normalisation. On a shared host the same single-threaded work
// takes anywhere from 1x to 1.6x its CPU time from one minute to the next
// (other tenants on the same physical cores and caches), and CPU time does
// not see that. HostPace times a fixed reference kernel next to each timed
// block; the block's time is then scaled to what it would have been at the
// kernel's nominal speed:
//
//   paced = measured x kNominalSeconds / (mean of the kernel's CPU time just
//                                         before and just after the block)
//
// The kernel is the benchmark's own code and never calls the library, so a
// change to the library moves the measured time and not the kernel: a
// library change that saves 10% reads as 10% less paced time.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class HostPace {
 public:
  /// About the kernel's CPU time on a calm host (one 2.1 GHz Xeon vCPU):
  /// the speed every paced time is expressed at.
  static constexpr double kNominalSeconds = 0.01;

  /// Builds the kernel's fixed inputs and runs it once to warm up.
  HostPace();

  /// CPU seconds of one run of the kernel: string hash-table probes and a
  /// sort (the Q/A pipeline's kind of inner loop), and a discrete-event
  /// loop over heap-allocated node records (the simulator's), over a few
  /// MB.
  double sample();

  /// Factor that brings CPU time measured between the kernel samples
  /// `before` and `after` to the nominal speed.
  [[nodiscard]] static double scale(double before, double after);

  /// Every sample taken so far (for the run manifest).
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::uint64_t run_kernel();

  std::vector<std::string> words_;
  std::unordered_map<std::string, std::uint32_t> table_;
  std::vector<std::uint64_t> keys_;
  std::vector<double> samples_;
};

/// Paces a stream of timed samples block by block: a kernel sample opens the
/// stream and closes every block of `block_size` samples, and each block's
/// samples are scaled by the kernel samples on either side of it. Short
/// blocks follow the host's speed more closely than one pair of kernel
/// samples around a long run.
class PacedSamples {
 public:
  PacedSamples(HostPace& pace, std::size_t block_size);

  void add(double time);

  /// Closes the open block and returns every paced sample since the last
  /// take(), in the order they were added.
  std::vector<double> take();

 private:
  void close_block();

  HostPace& pace_;
  std::size_t block_size_;
  double before_;
  std::vector<double> open_;
  std::vector<double> paced_;
};

/// Runs `block` and returns its process CPU seconds, paced by kernel
/// samples on either side.
template <typename Block>
double paced_cpu_seconds(HostPace& pace, Block&& block) {
  const double before = pace.sample();
  const double t0 = process_cpu_seconds();
  block();
  const double cpu = process_cpu_seconds() - t0;
  return cpu * HostPace::scale(before, pace.sample());
}

}  // namespace perfbench
