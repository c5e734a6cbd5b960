// Tests for the analysis/report module and the CLI flag parser.

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/generators.h"
#include "util/flags.h"

namespace lrb {
namespace {

TEST(Analysis, BalancedClusterHasUnitImbalanceAndZeroGini) {
  const auto inst = make_instance({5, 5, 5}, {0, 1, 2}, 3);
  const auto report = analyze_initial(inst);
  EXPECT_EQ(report.makespan, 5);
  EXPECT_EQ(report.min_load, 5);
  EXPECT_DOUBLE_EQ(report.mean_load, 5.0);
  EXPECT_DOUBLE_EQ(report.stddev, 0.0);
  EXPECT_DOUBLE_EQ(report.imbalance, 1.0);
  EXPECT_NEAR(report.gini, 0.0, 1e-12);
}

TEST(Analysis, SkewedClusterMetrics) {
  const auto inst = make_instance({12, 4}, {0, 0}, 4);  // loads {16,0,0,0}
  const auto report = analyze_initial(inst);
  EXPECT_EQ(report.makespan, 16);
  EXPECT_EQ(report.min_load, 0);
  // Fractional optimum = max(ceil(16/4), 12) = 12 -> imbalance 16/12.
  EXPECT_NEAR(report.imbalance, 16.0 / 12.0, 1e-12);
  // One processor holds everything: Gini = (n-1)/n = 0.75.
  EXPECT_NEAR(report.gini, 0.75, 1e-12);
}

TEST(Analysis, AnalyzeArbitraryAssignment) {
  const auto inst = make_instance({12, 4}, {0, 0}, 4);
  const Assignment spread{0, 1};
  const auto report = analyze(inst, spread);
  EXPECT_EQ(report.makespan, 12);
  EXPECT_NEAR(report.imbalance, 1.0, 1e-12);
}

TEST(Analysis, HistogramShape) {
  const auto inst = make_instance({10, 5}, {0, 1}, 2);
  const auto report = analyze_initial(inst);
  const auto chart = load_histogram(report, 10);
  EXPECT_NE(chart.find("P0"), std::string::npos);
  EXPECT_NE(chart.find("##########"), std::string::npos);  // full bar for P0
  EXPECT_NE(chart.find("10"), std::string::npos);
  EXPECT_NE(chart.find("5"), std::string::npos);
}

TEST(Analysis, GiniGrowsWithConcentration) {
  GeneratorOptions even;
  even.num_jobs = 200;
  even.num_procs = 8;
  even.placement = PlacementPolicy::kBalanced;
  GeneratorOptions skew = even;
  skew.placement = PlacementPolicy::kSingleProc;
  const auto balanced = analyze_initial(random_instance(even, 1));
  const auto piled = analyze_initial(random_instance(skew, 1));
  EXPECT_LT(balanced.gini, 0.2);
  EXPECT_GT(piled.gini, 0.8);
}

TEST(Flags, ParsesPairsEqualsAndBooleans) {
  const char* argv[] = {"tool",      "--jobs", "50",     "--dist=zipf",
                        "input.lrb", "--verbose", "--eps", "0.25"};
  const Flags flags(8, argv);
  EXPECT_EQ(flags.get_int("jobs", 0), 50);
  EXPECT_EQ(flags.get_or("dist", ""), "zipf");
  EXPECT_TRUE(flags.has("verbose"));
  EXPECT_EQ(flags.get_or("verbose", ""), "true");
  EXPECT_DOUBLE_EQ(flags.get_double("eps", 0), 0.25);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.lrb");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"tool"};
  const Flags flags(1, argv);
  EXPECT_FALSE(flags.get("anything").has_value());
  EXPECT_EQ(flags.get_int("k", 7), 7);
  EXPECT_EQ(flags.get_count("workers", 3), 3);
  EXPECT_EQ(flags.get_or("algo", "greedy"), "greedy");
  EXPECT_TRUE(flags.positional().empty());
}

TEST(Flags, NegativeNumbersAsValues) {
  const char* argv[] = {"tool", "--offset", "-3", "--workers", "x"};
  const Flags flags(5, argv);
  // "-3" does not start with "--", so it binds as the value.
  EXPECT_EQ(flags.get_int("offset", 0), -3);
  // A count refuses it, and anything that is not a whole number.
  EXPECT_FALSE(flags.get_count("offset", 0).has_value());
  EXPECT_FALSE(flags.get_count("workers", 0).has_value());
  EXPECT_EQ(parse_count("0"), 0);
  EXPECT_EQ(parse_count("12"), 12);
  EXPECT_FALSE(parse_count("").has_value());
  EXPECT_FALSE(parse_count("4x").has_value());
  EXPECT_FALSE(parse_count("99999999999999999999").has_value());
}

TEST(Flags, KeysEnumerated) {
  const char* argv[] = {"tool", "--a", "1", "--b=2"};
  const Flags flags(4, argv);
  const auto keys = flags.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

}  // namespace
}  // namespace lrb
