// The compiler's static lowering pass: E-STRATEGY-EXTENT-MIX,
// W-STRATEGY-DUP-SCATTER and the opt-in I-STRATEGY-CHAIN explain notes.
#include <gtest/gtest.h>

#include <string>

#include "compiler/strategy.hpp"

namespace earthred {
namespace {

constexpr const char* kFig1Source = R"(
param num_nodes, num_edges;
array real X[num_nodes];
array int  IA1[num_edges];
array int  IA2[num_edges];
array real Y[num_edges];

forall (i : 0 .. num_edges) {
  X[IA1[i]] += Y[i] * 2.0;
  X[IA2[i]] += Y[i] * 2.0;
}
)";

TEST(StrategyPass, ExtentMixIsAnError) {
  const compiler::CheckReport report = compiler::check_source(R"(
param num_nodes, num_cells, num_edges;
array real X[num_nodes];
array real C[num_cells];
array int  IA[num_edges];
array real Y[num_edges];

forall (e : 0 .. num_edges) {
  X[IA[e]] += Y[e];
  C[IA[e]] += Y[e];
}
)");
  ASSERT_TRUE(report.has_errors());
  EXPECT_NE(report.first_error().find("E-STRATEGY-EXTENT-MIX"),
            std::string::npos)
      << report.first_error();
}

TEST(StrategyPass, DuplicateScatterWarns) {
  const compiler::CheckReport report = compiler::check_source(R"(
param num_nodes, num_edges;
array real X[num_nodes];
array int  IA[num_edges];
array real Y[num_edges];

forall (e : 0 .. num_edges) {
  X[IA[e]] += Y[e];
  X[IA[e]] += Y[e] * 0.5;
}
)");
  EXPECT_FALSE(report.has_errors());
  ASSERT_EQ(report.warning_count(), 1u);
  bool found = false;
  for (const Diagnostic& d : report.diagnostics)
    found = found || d.code == "W-STRATEGY-DUP-SCATTER";
  EXPECT_TRUE(found);
}

TEST(StrategyPass, ExplainNotesAreOptIn) {
  compiler::StrategyContext quiet;
  const compiler::StrategyReport silent =
      compiler::check_source_with_strategies(kFig1Source, quiet);
  EXPECT_TRUE(silent.check.diagnostics.empty())
      << silent.check.render();  // the golden-corpus contract

  compiler::StrategyContext ctx;
  ctx.explain = true;
  const compiler::StrategyReport sr =
      compiler::check_source_with_strategies(kFig1Source, ctx);
  // One note, for the one classified chain: X via {IA1,IA2}.
  ASSERT_EQ(sr.check.diagnostics.size(), 1u) << sr.check.render();
  EXPECT_EQ(sr.check.diagnostics[0].code, "I-STRATEGY-CHAIN");
  EXPECT_EQ(sr.check.diagnostics[0].severity, Severity::Note);

  ASSERT_EQ(sr.lowering.loops.size(), 1u);
  const compiler::LoopStrategy& ls = sr.lowering.loops[0];
  EXPECT_TRUE(ls.legal);
  ASSERT_EQ(ls.chains.size(), 1u);
  EXPECT_EQ(ls.chains[0].array, "X");
  EXPECT_EQ(ls.chains[0].updates_per_iteration, 2u);
  EXPECT_EQ(ls.chains[0].elem, compiler::ElemType::Real);
  EXPECT_FALSE(ls.chains[0].has_subtract);
  const std::string rendered = sr.lowering.render();
  EXPECT_NE(rendered.find("phased rotation"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("chain X via {IA1,IA2}"), std::string::npos)
      << rendered;
}

TEST(StrategyPass, IllegalLoopsAreNotScored) {
  // An illegal loop is not lowered: no explain notes even when asked.
  compiler::StrategyContext ctx;
  ctx.explain = true;
  const compiler::StrategyReport sr =
      compiler::check_source_with_strategies(R"(
param num_nodes, num_edges;
array real X[num_nodes];
array int  IA[num_edges];
array real Y[num_edges];

forall (e : 0 .. num_edges) {
  X[IA[e]] += Y[e] + X[IA[e]];
}
)",
                                             ctx);
  EXPECT_TRUE(sr.check.has_errors());
  for (const Diagnostic& d : sr.check.diagnostics)
    EXPECT_NE(d.code, "I-STRATEGY-CHAIN");
  ASSERT_EQ(sr.lowering.loops.size(), 1u);
  EXPECT_FALSE(sr.lowering.loops[0].legal);
  EXPECT_NE(sr.lowering.render().find("not a legal irregular reduction"),
            std::string::npos);
}

}  // namespace
}  // namespace earthred
