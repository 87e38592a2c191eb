#include "support/bench_cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace qadist::bench {
namespace {

std::optional<BenchCli> parse(std::vector<const char*> args,
                              std::string* error = nullptr) {
  return BenchCli::try_parse(
      std::span<const char* const>(args.data(), args.size()), error);
}

TEST(BenchCliTest, NoArgumentsYieldsAllDefaults) {
  const auto cli = parse({});
  ASSERT_TRUE(cli.has_value());
  EXPECT_FALSE(cli->out.has_value());
}

TEST(BenchCliTest, ParsesSeparateAndAttachedOut) {
  EXPECT_EQ(parse({"--out", "tmp/results"})->out.value_or(""), "tmp/results");
  EXPECT_EQ(parse({"--out=tmp/results"})->out.value_or(""), "tmp/results");
}

TEST(BenchCliTest, RejectsOutWithoutADirectory) {
  std::string error;
  EXPECT_FALSE(parse({"--out="}, &error).has_value());
  EXPECT_NE(error.find("--out"), std::string::npos);
  EXPECT_FALSE(parse({"--out"}, &error).has_value());
}

TEST(BenchCliTest, RejectsUnknownArguments) {
  std::string error;
  EXPECT_FALSE(parse({"--frobnicate"}, &error).has_value());
  EXPECT_NE(error.find("--frobnicate"), std::string::npos);
  EXPECT_FALSE(parse({"extra"}, &error).has_value());
  // Every bench runs its published configuration only: an invocation
  // written for the retired size and override flags fails instead of
  // running something else.
  EXPECT_FALSE(parse({"--smoke", "--out", "dir"}, &error).has_value());
  EXPECT_NE(error.find("--smoke"), std::string::npos);
  EXPECT_FALSE(parse({"--nodes", "8"}, &error).has_value());
  EXPECT_NE(error.find("--nodes"), std::string::npos);
}

TEST(BenchCliTest, HelpIsSignalledThroughTheErrorChannel) {
  std::string error;
  EXPECT_FALSE(parse({"--help"}, &error).has_value());
  EXPECT_EQ(error, "help");
  EXPECT_FALSE(parse({"-h"}, &error).has_value());
  EXPECT_EQ(error, "help");
}

}  // namespace
}  // namespace qadist::bench
