#pragma once

#include <cstddef>
#include <string_view>

#include "obs/span.hpp"

namespace qadist::testing {

/// Instant events whose text contains `needle` — lets tests assert on
/// crash/recovery activity without parsing a rendering.
inline std::size_t count_instants(const obs::Tracer& tracer,
                                  std::string_view needle) {
  std::size_t count = 0;
  for (const auto& e : tracer.instants()) {
    if (e.text.find(needle) != std::string_view::npos) ++count;
  }
  return count;
}

}  // namespace qadist::testing
