#pragma once

#include <optional>
#include <span>
#include <string>

namespace qadist::bench {

/// The shared command line of every bench binary. A bench runs one
/// configuration, the published experiment, so the only flags are:
///
///   --out DIR        results directory (sets QADIST_RESULTS_DIR)
///   --help           usage and exit
///
/// The directory may be attached with '=' ("--out=dir") or follow as the
/// next argument ("--out dir").
struct BenchCli {
  std::optional<std::string> out;

  /// Pure parsing core (no exit, no environment writes): nullopt plus a
  /// message in `error` on a bad or unknown flag. `args` excludes the
  /// program name.
  [[nodiscard]] static std::optional<BenchCli> try_parse(
      std::span<const char* const> args, std::string* error);

  /// Bench-main entry point: parses argv, prints usage and exits on
  /// --help (status 0) or a parse error (status 2), and exports --out to
  /// QADIST_RESULTS_DIR so BenchReport picks it up.
  [[nodiscard]] static BenchCli parse(int argc, char** argv);
};

}  // namespace qadist::bench
