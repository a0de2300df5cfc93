// Lowering analysis for the paper's phased strategy (`earthred check
// --explain`).
//
// Runs after check_reduction_legality and, per loop, classifies every
// reduction chain — the (array, indirections) pairs the Sec. 4
// reference-group analysis produced — by operator class (the DSL's
// `+=`/`-=` are both the additive class: associative and commutative up
// to FP rounding), accumulator element type and updates per iteration,
// and checks the loop can be lowered onto one rotation of portions.
//
// Codes emitted here (catalogued in docs/dsl.md):
//   E-STRATEGY-EXTENT-MIX  reduction arrays reached through one
//                          indirection set declare different extents —
//                          one ownership map cannot partition two
//                          element spaces
//   W-STRATEGY-DUP-SCATTER the same (array, indirection) pair is
//                          scattered to by several statements in one
//                          iteration; fusing them would halve the
//                          scatter traffic
//   I-STRATEGY-CHAIN       (explain) one note per classified chain
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/analysis.hpp"
#include "compiler/ast.hpp"
#include "compiler/check.hpp"
#include "compiler/diagnostics.hpp"

namespace earthred::compiler {

struct StrategyContext {
  /// Emit an I-STRATEGY-CHAIN note per classified chain. Off by default
  /// so clean sources stay diagnostic-free (the golden corpus contract);
  /// W/E codes are emitted regardless.
  bool explain = false;
};

/// One classified reduction chain: a reduction array and the indirection
/// set it is scattered through.
struct ChainInfo {
  std::string array;
  std::vector<std::string> indirections;
  ElemType elem = ElemType::Real;
  /// Accumulate statements targeting the array per iteration.
  std::size_t updates_per_iteration = 0;
  bool has_subtract = false;
  std::uint32_t line = 0;
  std::uint32_t column = 0;
};

/// Per-loop result.
struct LoopStrategy {
  std::uint32_t line = 0;  ///< source line of the loop header
  /// A legal irregular reduction with no mixed extents: it lowers onto
  /// the phased rotation.
  bool legal = false;
  std::vector<ChainInfo> chains;
};

/// The pass result: one LoopStrategy per program loop (parallel to
/// Program::loops, like CheckReport::loops).
struct LoweringPlan {
  std::vector<LoopStrategy> loops;

  /// Human-readable multi-line rendering (what --explain prints).
  std::string render() const;
};

/// The analysis pass. `legality` is check_reduction_legality's verdict
/// (loops it marked illegal are classified but get no notes). Emits the
/// W/E codes above always and I-STRATEGY-CHAIN when ctx.explain.
LoweringPlan select_strategies(const Program& program,
                               const AnalysisResult& analysis,
                               const std::vector<LoopLegality>& legality,
                               const StrategyContext& ctx,
                               DiagnosticSink& sink);

/// CheckReport plus the lowering plan — what `earthred check --explain`
/// and its --json form render.
struct StrategyReport {
  CheckReport check;
  LoweringPlan lowering;
};

/// check_source + select_strategies in one call, sharing one sink so
/// diagnostics interleave in emission order.
StrategyReport check_source_with_strategies(std::string_view source,
                                            const StrategyContext& ctx);

}  // namespace earthred::compiler
