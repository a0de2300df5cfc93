// Coverage for the remaining small surfaces: logging, table rules,
// machine-stats helpers, strformat, and compiled kernels on the native
// thread engine.
#include <gtest/gtest.h>

#include "compiler/compiler.hpp"
#include "core/native_engine.hpp"
#include "earth/stats.hpp"
#include "support/log.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "support/prng.hpp"

namespace earthred {
namespace {

TEST(Log, LevelRoundTrips) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  set_log_level(LogLevel::Off);
  EXPECT_EQ(log_level(), LogLevel::Off);
  // Emitting below the threshold must be a no-op (and not crash).
  ER_LOG(Info) << "suppressed " << 42;
  set_log_level(before);
}

TEST(Log, StreamsArbitraryTypes) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  ER_LOG(Error) << "value=" << 3.5 << " name=" << std::string("x");
  set_log_level(before);
}

TEST(Table, RuleSeparatesGroups) {
  Table t;
  t.set_header({"a"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string out = t.to_string();
  // header rule + group rule + top/bottom: at least 4 dashes lines.
  std::size_t rules = 0;
  for (std::size_t pos = out.find("---"); pos != std::string::npos;
       pos = out.find("---", pos + 1))
    ++rules;
  EXPECT_GE(rules, 4u);
  EXPECT_EQ(t.rows(), 3u);  // 2 data rows + 1 rule
}

TEST(Table, LeftAlignmentOption) {
  Table t;
  t.set_header({"name", "val"}, {Align::Left, Align::Left});
  t.add_row({"x", "1"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| x    |"), std::string::npos);
}

TEST(Str, StrformatHandlesTypes) {
  EXPECT_EQ(strformat("%d-%s-%.1f", 7, "ab", 2.5), "7-ab-2.5");
  EXPECT_EQ(strformat("%s", ""), "");
}

TEST(MachineStats, AggregateHelpers) {
  earth::MachineStats s;
  s.makespan = 1000;
  s.node.resize(2);
  s.node[0].msgs_sent = 3;
  s.node[0].bytes_sent = 100;
  s.node[0].eu_busy = 600;
  s.node[0].cache_hits = 90;
  s.node[0].cache_misses = 10;
  s.node[1].msgs_sent = 2;
  s.node[1].bytes_sent = 50;
  s.node[1].eu_busy = 400;
  EXPECT_EQ(s.total_msgs(), 5u);
  EXPECT_EQ(s.total_bytes(), 150u);
  EXPECT_DOUBLE_EQ(s.cache_miss_rate(), 0.1);
  EXPECT_DOUBLE_EQ(s.eu_utilization(), 0.5);

  earth::MachineStats empty;
  EXPECT_DOUBLE_EQ(empty.cache_miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(empty.eu_utilization(), 0.0);
}

TEST(CompiledKernel, RunsOnNativeThreadEngine) {
  const char* src = R"(
    param n, m;
    array real X[n];
    array int IA1[m]; array int IA2[m];
    array real Y[m];
    forall (i : 0 .. m) {
      X[IA1[i]] += Y[i] * 2.0;
      X[IA2[i]] -= Y[i];
    }
  )";
  compiler::DataEnv env;
  env.params["n"] = 48;
  env.params["m"] = 240;
  Xoshiro256 rng(12);
  std::vector<std::uint32_t> ia1, ia2;
  std::vector<double> y;
  for (int i = 0; i < 240; ++i) {
    ia1.push_back(static_cast<std::uint32_t>(rng.below(48)));
    ia2.push_back(static_cast<std::uint32_t>(rng.below(48)));
    y.push_back(static_cast<double>(rng.range(-4, 4)));
  }
  env.int_arrays["IA1"] = std::move(ia1);
  env.int_arrays["IA2"] = std::move(ia2);
  env.real_arrays["Y"] = std::move(y);

  const auto compiled = compiler::compile(src, {.optimize = true});
  const auto kernel = compiler::bind(compiled, 0, env);
  const auto want = kernel->interpret_reference();

  core::PlanOptions plan_opt;
  core::SweepOptions sweep_opt;
  plan_opt.num_procs = 4;
  plan_opt.k = 2;
  sweep_opt.sweeps = 2;
  const core::NativeResult r =
      core::run_native_engine(*kernel, plan_opt, sweep_opt);
  const auto& x = want.at("X");
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(r.reduction[0][i], x[i]) << "element " << i;
}

}  // namespace
}  // namespace earthred
