// Utility tests: Status/Result, RNG, args parsing, timer.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "util/args.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace lubt {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  const Status s = Status::Infeasible("no tree");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
  EXPECT_EQ(s.ToString(), "INFEASIBLE: no tree");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnbounded), "UNBOUNDED");
}

TEST(StatusTest, ResultValueAndError) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, ResultMoveOut) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(124);
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= (a2.Next() != c.Next());
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(8);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(9);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = (sum_sq - kSamples * mean * mean) / (kSamples - 1);
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// ---- ArgParser --------------------------------------------------------------------

Result<ArgParser> ParseArgs(std::vector<const char*> argv,
                            std::vector<std::string> flags) {
  argv.insert(argv.begin(), "prog");
  return ArgParser::Parse(static_cast<int>(argv.size()), argv.data(),
                          std::move(flags));
}

TEST(ArgsTest, SpaceAndEqualsForms) {
  auto args = ParseArgs({"--alpha", "3.5", "--name=net1", "--flag"},
                        {"alpha", "name", "flag"});
  ASSERT_TRUE(args.ok()) << args.status();
  EXPECT_DOUBLE_EQ(args->GetDouble("alpha", 0.0), 3.5);
  EXPECT_EQ(args->GetString("name", ""), "net1");
  EXPECT_TRUE(args->GetBool("flag", false));
  EXPECT_FALSE(args->Has("missing"));
  EXPECT_EQ(args->GetInt("missing", 9), 9);
}

TEST(ArgsTest, UnknownFlagRejected) {
  auto args = ParseArgs({"--bogus", "1"}, {"alpha"});
  EXPECT_FALSE(args.ok());
  EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArgsTest, PositionalArguments) {
  auto args = ParseArgs({"file1", "--alpha", "2", "file2"}, {"alpha"});
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args->Positional().size(), 2u);
  EXPECT_EQ(args->Positional()[0], "file1");
  EXPECT_EQ(args->Positional()[1], "file2");
}

TEST(ArgsTest, BooleanSwitchBeforeAnotherFlag) {
  auto args = ParseArgs({"--verbose", "--alpha", "1"}, {"verbose", "alpha"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->GetBool("verbose", false));
  EXPECT_EQ(args->GetInt("alpha", 0), 1);
}

TEST(ArgsTest, ExplicitBooleanValues) {
  auto args =
      ParseArgs({"--a=true", "--b=0", "--c", "yes"}, {"a", "b", "c"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->GetBool("a", false));
  EXPECT_FALSE(args->GetBool("b", true));
  EXPECT_TRUE(args->GetBool("c", false));
}

// ---- Timer ----------------------------------------------------------------------

TEST(TimerTest, MonotoneAndRestartable) {
  Timer t;
  const double a = t.Seconds();
  const double b = t.Seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
  t.Restart();
  EXPECT_LT(t.Seconds(), 1.0);
  EXPECT_NEAR(t.Millis(), t.Seconds() * 1e3, 1.0);
}

}  // namespace
}  // namespace lubt
