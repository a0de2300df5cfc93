// Reduction-aware lowering-strategy analysis (`earthred check --explain`).
//
// Runs after check_reduction_legality and, per legal loop:
//
//   (a) classifies every reduction chain — the (array, indirections)
//       pairs the Sec. 4 reference-group analysis produced — by operator
//       class (the DSL's `+=`/`-=` are both the additive class:
//       associative and commutative up to FP rounding), accumulator
//       element type, and estimated target fan-in (updates per element,
//       from the reference groups plus mesh connectivity stats when a
//       mesh is bound);
//   (b) scores the two lowering strategies through the same explainable
//       cost model the runtime uses (core/strategy.hpp), so static
//       advice and run_native_plan's auto dispatch agree; and
//   (c) emits a LoweringPlan plus diagnostics explaining every choice.
//
// Codes emitted here (catalogued in docs/dsl.md):
//   E-STRATEGY-EXTENT-MIX  reduction arrays reached through one
//                          indirection set declare different extents —
//                          no strategy can partition two element spaces
//                          with one ownership map
//   W-STRATEGY-DUP-SCATTER the same (array, indirection) pair is
//                          scattered to by several statements in one
//                          iteration; fusing them would halve the
//                          scatter traffic every strategy pays for
//   I-STRATEGY-CHAIN       (explain) one note per classified chain
//   I-STRATEGY-COST        (explain) one note per scored strategy
//   I-STRATEGY-CHOICE      (explain) the chosen strategy + rationale
//   I-STRATEGY-LAYOUT      (explain) estimated reduction-array cache-line
//                          reuse the --layout pass would unlock per loop
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/analysis.hpp"
#include "compiler/ast.hpp"
#include "compiler/check.hpp"
#include "compiler/diagnostics.hpp"
#include "core/strategy.hpp"

namespace earthred::compiler {

/// Connectivity statistics of a bound mesh. When absent (plain
/// `earthred check` on a DSL file has no data), fan-in estimates fall
/// back to the service's default shape (1000 nodes / 5000 edges) so the
/// symbolic scores stay comparable with runtime defaults.
struct MeshStats {
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  double mean_degree = 0.0;  ///< mean edges incident per node
  double degree_cv = 0.0;    ///< coefficient of variation of degree
  bool bound() const { return num_nodes > 0 && num_edges > 0; }
};

/// Computes MeshStats (mean/CV of the node-degree distribution) from a
/// degree histogram, e.g. mesh::node_degrees().
MeshStats mesh_stats_from_degrees(const std::vector<std::uint32_t>& degrees,
                                  std::uint64_t num_edges);

/// What the pass knows about the execution environment.
struct StrategyContext {
  std::uint32_t num_procs = 4;
  std::uint32_t k = 2;
  /// Forced strategy (--strategy= / strategy= job key); Auto scores and
  /// picks, a concrete value is honored and explained.
  core::StrategyKind forced = core::StrategyKind::Auto;
  /// Emit I-STRATEGY-* notes for every classification, score and choice.
  /// Off by default so clean sources stay diagnostic-free (the golden
  /// corpus contract); W/E codes are emitted regardless.
  bool explain = false;
  MeshStats mesh;
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
  /// Estimated updates per target element per sweep.
  double fanin = 0.0;
  std::uint32_t line = 0;
  std::uint32_t column = 0;
};

/// Per-loop decision.
struct LoopStrategy {
  std::uint32_t line = 0;  ///< source line of the loop header
  bool legal = false;      ///< illegal loops are not scored
  std::vector<ChainInfo> chains;
  /// Phased, Privatized — in that fixed order (core scorer).
  std::vector<core::StrategyCost> scores;
  core::StrategyKind chosen = core::StrategyKind::Phased;
  std::string rationale;
  /// Estimated scattered updates served per reduction-array cache-line
  /// fetch once the layout pass localizes the targets (mean fan-in x
  /// accumulator elements per line). The layout=none baseline on a
  /// DRAM-resident array is ~1 update per fetch; 0 when not scored.
  double est_line_reuse = 0.0;
};

/// The pass result: one LoopStrategy per program loop (parallel to
/// Program::loops, like CheckReport::loops).
struct LoweringPlan {
  std::vector<LoopStrategy> loops;

  /// Human-readable multi-line rendering (what --explain prints).
  std::string render() const;
};

/// The analysis pass. `legality` is check_reduction_legality's verdict
/// (loops it marked illegal are classified but not scored). Emits the
/// W/E codes above always and the I-STRATEGY-* notes when ctx.explain.
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
