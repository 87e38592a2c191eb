#include "support/bench_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace qadist::bench {

namespace {

constexpr const char* kUsage =
    "usage: [--out DIR] [--help]\n"
    "\n"
    "  --out DIR        results directory (default: results)\n";

constexpr std::string_view kOutAttached = "--out=";

}  // namespace

std::optional<BenchCli> BenchCli::try_parse(std::span<const char* const> args,
                                            std::string* error) {
  const auto fail = [&](std::string message) -> std::optional<BenchCli> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  BenchCli cli;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    if (arg == "--help" || arg == "-h") {
      return fail("help");
    }
    std::optional<std::string_view> dir;
    if (arg == "--out") {
      if (i + 1 < args.size()) dir = args[++i];
    } else if (arg.starts_with(kOutAttached)) {
      dir = arg.substr(kOutAttached.size());
    } else {
      return fail("unknown argument '" + std::string(arg) + "'");
    }
    if (!dir.has_value() || dir->empty()) {
      return fail("--out expects a directory");
    }
    cli.out = std::string(*dir);
  }
  return cli;
}

BenchCli BenchCli::parse(int argc, char** argv) {
  std::string error;
  const auto cli = try_parse(
      std::span<const char* const>(
          const_cast<const char* const*>(argv) + (argc > 0 ? 1 : 0),
          argc > 0 ? static_cast<std::size_t>(argc - 1) : 0),
      &error);
  const char* program = argc > 0 ? argv[0] : "bench";
  if (!cli.has_value()) {
    if (error == "help") {
      std::printf("%s %s", program, kUsage);
      std::exit(0);
    }
    std::fprintf(stderr, "%s: %s\n%s %s", program, error.c_str(), program,
                 kUsage);
    std::exit(2);
  }
  if (cli->out.has_value()) {
    // BenchReport resolves its directory from the environment, so one
    // export covers every report the binary writes.
    ::setenv("QADIST_RESULTS_DIR", cli->out->c_str(), /*overwrite=*/1);
  }
  return *cli;
}

}  // namespace qadist::bench
