#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace qadist::cache {

/// Knobs of one bounded cache. `max_entries == 0` disables the cache
/// entirely — the cluster never probes it, so uncached runs stay
/// bit-identical to the pre-cache system.
struct BoundedCacheConfig {
  std::size_t max_entries = 0;  ///< 0 disables the cache
  std::size_t max_bytes = 0;    ///< 0 = no byte budget
  Seconds ttl = 0.0;            ///< <= 0 = entries never expire

  [[nodiscard]] bool enabled() const { return max_entries > 0; }
};

/// CPU cost of one cache probe on the host (hash + map walk in a real
/// deployment). Charged per probe, hit or miss.
inline constexpr Seconds kLookupCpu = 2e-3;

/// Per-node cache plan for the cluster: an answer cache keyed by the
/// normalized question text (a hit short-circuits the whole QP→PR→PS→PO→AP
/// pipeline) and a paragraph cache keyed by the same question signature (a
/// hit on an answer-cache miss still skips the disk-bound PR module — the
/// accepted paragraphs are already on the host's disk). Both default to
/// disabled so existing experiments are unaffected.
struct CacheConfig {
  BoundedCacheConfig answers;
  BoundedCacheConfig paragraphs;

  [[nodiscard]] bool enabled() const {
    return answers.enabled() || paragraphs.enabled();
  }
};

}  // namespace qadist::cache
