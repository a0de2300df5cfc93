// Unit tests for the support library: checks, PRNGs, stats, strings,
// tables, option parsing, and CPU feature detection.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/ops_simd.hpp"
#include "support/check.hpp"
#include "support/cpu_features.hpp"
#include "support/options.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace earthred {
namespace {

TEST(Check, ExpectsThrowsPreconditionError) {
  EXPECT_THROW(ER_EXPECTS(1 == 2), precondition_error);
  EXPECT_NO_THROW(ER_EXPECTS(1 == 1));
}

TEST(Check, EnsuresThrowsInternalError) {
  EXPECT_THROW(ER_ENSURES(false), internal_error);
}

TEST(Check, CheckThrowsCheckErrorWithMessage) {
  try {
    ER_CHECK_MSG(false, "bad mesh");
    FAIL() << "should have thrown";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad mesh"), std::string::npos);
  }
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 g(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Xoshiro, BelowIsInRangeAndRoughlyUniform) {
  Xoshiro256 g(9);
  constexpr std::uint64_t n = 10;
  std::vector<int> counts(n, 0);
  constexpr int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const auto v = g.below(n);
    ASSERT_LT(v, n);
    ++counts[v];
  }
  for (auto c : counts) {
    EXPECT_GT(c, draws / static_cast<int>(n) / 2);
    EXPECT_LT(c, draws * 2 / static_cast<int>(n));
  }
}

TEST(Xoshiro, RangeInclusive) {
  Xoshiro256 g(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = g.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro, JumpProducesDecorrelatedStream) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(NasRandlc, MatchesNpbReferenceFirstValues) {
  // The NPB reference: x0 = 314159265, a = 5^13; first output is
  // a*x0 mod 2^46 scaled by 2^-46. Computed independently with exact
  // integer arithmetic: 1220703125 * 314159265 = 383495196533203125;
  // mod 2^46 (= 70368744177664) that is 55909509111989.
  NasRandlc r;
  const double first = r.next();
  EXPECT_NEAR(first, 55909509111989.0 / 70368744177664.0, 1e-15);
  EXPECT_DOUBLE_EQ(r.state(), 55909509111989.0);
}

TEST(NasRandlc, StaysInUnitIntervalAndVaries) {
  NasRandlc r;
  double prev = -1.0;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next();
    ASSERT_GT(v, 0.0);
    ASSERT_LT(v, 1.0);
    ASSERT_NE(v, prev);
    prev = v;
  }
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesBulk) {
  Xoshiro256 g(3);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = g.uniform(-10, 10);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, SummarizeOrderStatistics) {
  std::vector<double> xs{5, 1, 4, 2, 3};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Stats, ImbalanceFactor) {
  std::vector<std::uint64_t> balanced{10, 10, 10, 10};
  std::vector<std::uint64_t> skewed{40, 0, 0, 0};
  EXPECT_DOUBLE_EQ(imbalance_factor(balanced), 1.0);
  EXPECT_DOUBLE_EQ(imbalance_factor(skewed), 4.0);
  EXPECT_DOUBLE_EQ(imbalance_factor({}), 0.0);
}

TEST(Stats, CoefficientOfVariation) {
  std::vector<std::uint64_t> balanced{10, 10, 10, 10};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(balanced), 0.0);
  std::vector<std::uint64_t> skewed{0, 20};
  EXPECT_GT(coefficient_of_variation(skewed), 1.0);
}

TEST(Str, FormatHelpers) {
  EXPECT_EQ(fmt_f(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_f(2.0, 0), "2");
  EXPECT_EQ(fmt_group(0), "0");
  EXPECT_EQ(fmt_group(999), "999");
  EXPECT_EQ(fmt_group(1000), "1,000");
  EXPECT_EQ(fmt_group(1853104), "1,853,104");
  EXPECT_EQ(fmt_group(-75000), "-75,000");
}

TEST(Str, SplitTrimStartsWith) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  x y \t"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("--procs", "--"));
  EXPECT_FALSE(starts_with("-p", "--"));
}

TEST(Str, Padding) {
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("long", 2), "long");
}

TEST(Table, RendersAlignedRows) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RulesSpanTheRows) {
  Table t("widths");
  t.set_header({"name", "value", "note"});
  t.add_row({"alpha", "1", ""});
  t.add_rule();
  t.add_row({"b", "22222", "x"});
  std::istringstream lines(t.to_string());
  std::string line;
  std::size_t rules = 0, rows = 0, row_width = 0;
  std::vector<std::size_t> rule_widths;
  while (std::getline(lines, line)) {
    if (line.rfind("==", 0) == 0) continue;  // title
    if (line.find_first_not_of('-') == std::string::npos) {
      ++rules;
      rule_widths.push_back(line.size());
    } else {
      ++rows;
      if (row_width == 0) row_width = line.size();
      EXPECT_EQ(line.size(), row_width) << line;
    }
  }
  EXPECT_EQ(rows, 3u);   // header + 2 data rows
  EXPECT_EQ(rules, 4u);  // top, under the header, group, bottom
  for (const std::size_t w : rule_widths) EXPECT_EQ(w, row_width);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), precondition_error);
}

TEST(Options, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--procs=32", "--k=2", "--verbose",
                        "input.txt"};
  Options o(5, argv);
  EXPECT_EQ(o.get_int("procs", 0), 32);
  EXPECT_EQ(o.get_int("k", 0), 2);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_FALSE(o.get_bool("quiet", false));
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "input.txt");
  EXPECT_EQ(o.get_int("missing", 7), 7);
}

TEST(Options, IntListAndErrors) {
  const char* argv[] = {"prog", "--procs=1,2,4,8", "--bad=xy"};
  Options o(3, argv);
  const auto list = o.get_int_list("procs", {});
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[3], 8);
  EXPECT_THROW(o.get_int("bad", 0), check_error);
  const auto fallback = o.get_int_list("absent", {5});
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0], 5);
}

TEST(Options, RejectUnknownNamesTheFirstUnknownFlag) {
  const std::string_view known[] = {"kernel", "engine", "no-batch"};
  const char* ok[] = {"prog", "--kernel=fig1", "--no-batch", "positional"};
  EXPECT_NO_THROW(Options(4, ok).reject_unknown("earthred run", known));
  EXPECT_NO_THROW(Options(1, ok).reject_unknown("earthred run", known));

  const char* bad[] = {"prog", "--kernel=fig1", "--no-such-flag",
                       "--zz-typo=3"};
  try {
    Options(4, bad).reject_unknown("earthred run", known);
    FAIL() << "unknown flag accepted";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("E-CLI-FLAG"), std::string::npos) << what;
    EXPECT_NE(what.find("'--no-such-flag'"), std::string::npos) << what;
    EXPECT_NE(what.find("earthred run"), std::string::npos) << what;
  }
  // A known name with a value, or a value-less spelling of one, is fine;
  // nothing is known to an empty list.
  const char* valued[] = {"prog", "--engine"};
  EXPECT_NO_THROW(Options(2, valued).reject_unknown("earthred run", known));
  EXPECT_THROW(Options(2, valued).reject_unknown("earthred version", {}),
               check_error);
}

// ---- CPU feature detection: what the batch loops dispatch on ----------

TEST(CpuFeatures, DetectedFlagsAreInternallyConsistent) {
  // Probed once and cached; the batch loops run the tier the flag names.
  const support::CpuFeatures& f = support::host_cpu_features();
  EXPECT_EQ(&f, &support::host_cpu_features());
  EXPECT_STREQ(kernels::ops::batch_tier(), f.avx512f ? "avx512" : "scalar");
}

TEST(CpuFeatures, TestOverrideControlsDetection) {
  const bool detected = support::host_cpu_features().avx512f;
  const support::CpuFeatures no_avx512{};
  support::set_cpu_features_for_test(&no_avx512);
  EXPECT_FALSE(support::host_cpu_features().avx512f);
  EXPECT_STREQ(kernels::ops::batch_tier(), "scalar");
  support::set_cpu_features_for_test(nullptr);
  EXPECT_EQ(support::host_cpu_features().avx512f, detected);
}

TEST(CpuFeatures, HardwareThreadsIsPositive) {
  EXPECT_GE(support::hardware_threads(), 1u);
}

}  // namespace
}  // namespace earthred
