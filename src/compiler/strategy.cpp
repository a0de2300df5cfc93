#include "compiler/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "compiler/parser.hpp"
#include "support/cpu_features.hpp"
#include "support/str.hpp"

namespace earthred::compiler {

namespace {

/// The service's default mesh shape — the symbolic fallback when no mesh
/// is bound, chosen so a plain `earthred check --explain` scores the same
/// inputs a default `earthred run` would execute.
constexpr std::uint64_t kDefaultNodes = 1000;
constexpr std::uint64_t kDefaultEdges = 5000;

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ",";
    out += n;
  }
  return out;
}

const ArrayDecl* find_decl(const Program& program, const std::string& name) {
  for (const ArrayDecl& a : program.arrays)
    if (a.name == name) return &a;
  return nullptr;
}

/// Classifies the reduction chains of one loop from its reference groups:
/// one chain per (reduction array, indirection set) with its statement
/// count, operator flavor and element type read back off the AST.
std::vector<ChainInfo> classify_chains(const Program& program,
                                       const Loop& loop,
                                       const LoopAnalysis& la,
                                       const MeshStats& mesh) {
  const double nodes = static_cast<double>(
      mesh.bound() ? mesh.num_nodes : kDefaultNodes);
  const double edges = static_cast<double>(
      mesh.bound() ? mesh.num_edges : kDefaultEdges);

  std::vector<ChainInfo> chains;
  for (const ReferenceGroup& group : la.groups) {
    for (const std::string& array : group.reduction_arrays) {
      ChainInfo chain;
      chain.array = array;
      chain.indirections = group.indirection_arrays;
      if (const ArrayDecl* decl = find_decl(program, array))
        chain.elem = decl->type;
      for (const std::size_t si : group.statement_indices) {
        const Stmt& s = loop.body[si];
        if (s.kind != StmtKind::Accumulate || s.target != array) continue;
        if (chain.updates_per_iteration == 0) {
          chain.line = s.line;
          chain.column = s.column;
        }
        ++chain.updates_per_iteration;
        chain.has_subtract = chain.has_subtract || s.subtract;
      }
      chain.fanin = static_cast<double>(chain.updates_per_iteration) *
                    edges / nodes;
      chains.push_back(std::move(chain));
    }
  }
  return chains;
}

/// E-STRATEGY-EXTENT-MIX: every reduction array inside one reference
/// group must declare the same extent — the group is lowered with a
/// single element-ownership partition (one LightInspector per group),
/// and a partition of 0..num_nodes cannot also own 0..num_cells.
/// Returns true when the loop has a mixed group (it is then not scored:
/// no strategy can lower it until the source is fissioned by hand).
bool check_extent_mix(const Program& program, const Loop& loop,
                      const LoopAnalysis& la, DiagnosticSink& sink) {
  bool mixed = false;
  for (const ReferenceGroup& group : la.groups) {
    std::set<std::string> extents;
    for (const std::string& array : group.reduction_arrays)
      if (const ArrayDecl* decl = find_decl(program, array))
        extents.insert(decl->size_param);
    if (extents.size() > 1) {
      mixed = true;
      sink.error(loop.line, loop.column, "E-STRATEGY-EXTENT-MIX",
                 strformat("reference group {%s} via {%s} mixes reduction "
                           "extents {%s}; one element-ownership partition "
                           "cannot cover two element spaces — split the "
                           "accumulates into separate loops",
                           join(group.reduction_arrays).c_str(),
                           join(group.indirection_arrays).c_str(),
                           join(std::vector<std::string>(
                                    extents.begin(), extents.end()))
                               .c_str()));
    }
  }
  return mixed;
}

/// W-STRATEGY-DUP-SCATTER: several statements scattering into the same
/// (array, indirection) pair in one iteration each pay the full gather +
/// scatter price; fused into one accumulate they would pay it once.
void check_dup_scatter(const Loop& loop, DiagnosticSink& sink) {
  std::map<std::pair<std::string, std::string>, std::size_t> seen;
  for (const Stmt& s : loop.body) {
    if (s.kind != StmtKind::Accumulate || s.index.is_direct()) continue;
    const std::size_t count = ++seen[{s.target, s.index.indirection}];
    if (count == 2)  // warn once, at the first duplicate
      sink.warning(s.line, s.column, "W-STRATEGY-DUP-SCATTER",
                   strformat("'%s' is scattered through '%s' more than "
                             "once per iteration; fusing the accumulates "
                             "into one statement halves the scatter "
                             "traffic every strategy pays",
                             s.target.c_str(),
                             s.index.indirection.c_str()));
  }
}

/// Aggregates a loop's chains into the cost-model inputs. Multi-group
/// loops are scored as a whole (the fissioned fragments run back to back,
/// so the per-edge blend is what the sweep actually costs).
core::StrategyInputs loop_inputs(const std::vector<ChainInfo>& chains,
                                 const StrategyContext& ctx) {
  core::StrategyInputs in;
  in.num_nodes = ctx.mesh.bound() ? ctx.mesh.num_nodes : kDefaultNodes;
  in.num_edges = ctx.mesh.bound() ? ctx.mesh.num_edges : kDefaultEdges;
  in.num_procs = ctx.num_procs == 0 ? 1 : ctx.num_procs;
  in.k = ctx.k == 0 ? 1 : ctx.k;

  std::set<std::string> refs;
  std::set<std::string> arrays;
  double fanin_sum = 0.0;
  for (const ChainInfo& c : chains) {
    refs.insert(c.indirections.begin(), c.indirections.end());
    arrays.insert(c.array);
    fanin_sum += c.fanin;
  }
  in.num_refs = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(refs.size()));
  in.num_reduction_arrays = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(arrays.size()));
  in.fanin_mean = chains.empty()
                      ? 0.0
                      : fanin_sum / static_cast<double>(chains.size());
  return in;
}

std::string chain_note(const ChainInfo& c) {
  return strformat("chain %s via {%s}: %s, %zu update%s/iteration%s, "
                   "est. fan-in %.2f/element",
                   c.array.c_str(), join(c.indirections).c_str(),
                   c.elem == ElemType::Real ? "real" : "int",
                   c.updates_per_iteration,
                   c.updates_per_iteration == 1 ? "" : "s",
                   c.has_subtract ? " (uses -=)" : "", c.fanin);
}

}  // namespace

MeshStats mesh_stats_from_degrees(const std::vector<std::uint32_t>& degrees,
                                  std::uint64_t num_edges) {
  MeshStats stats;
  stats.num_nodes = degrees.size();
  stats.num_edges = num_edges;
  if (degrees.empty()) return stats;
  double sum = 0.0;
  for (const std::uint32_t d : degrees) sum += d;
  stats.mean_degree = sum / static_cast<double>(degrees.size());
  double var = 0.0;
  for (const std::uint32_t d : degrees) {
    const double delta = d - stats.mean_degree;
    var += delta * delta;
  }
  var /= static_cast<double>(degrees.size());
  stats.degree_cv =
      stats.mean_degree > 0.0 ? std::sqrt(var) / stats.mean_degree : 0.0;
  return stats;
}

LoweringPlan select_strategies(const Program& program,
                               const AnalysisResult& analysis,
                               const std::vector<LoopLegality>& legality,
                               const StrategyContext& ctx,
                               DiagnosticSink& sink) {
  LoweringPlan plan;
  plan.loops.reserve(program.loops.size());

  for (std::size_t i = 0; i < program.loops.size(); ++i) {
    const Loop& loop = program.loops[i];
    LoopStrategy out;
    out.line = loop.line;
    out.legal = i < legality.size() && legality[i].legal;

    check_dup_scatter(loop, sink);

    const bool analyzed = i < analysis.loops.size();
    if (analyzed)
      out.chains = classify_chains(program, loop, analysis.loops[i],
                                   ctx.mesh);
    const bool extent_mix =
        analyzed && check_extent_mix(program, loop, analysis.loops[i], sink);

    if (!out.legal || extent_mix || out.chains.empty()) {
      out.legal = out.legal && !extent_mix;
      out.rationale = !analyzed || out.chains.empty()
                          ? "not scored: no reduction chains"
                          : extent_mix
                                ? "not scored: mixed reduction extents "
                                  "(E-STRATEGY-EXTENT-MIX)"
                                : "not scored: loop is not a legal "
                                  "irregular reduction";
      plan.loops.push_back(std::move(out));
      continue;
    }

    const core::StrategyInputs in = loop_inputs(out.chains, ctx);
    out.scores = core::score_strategies(in);

    // Cache-line reuse the layout pass would unlock: once targets are
    // renumbered contiguous and the edge order is sorted by target, the
    // fan-in of a whole line of accumulators is served by one fetch.
    // Element width follows the chains (real = 8 B, int = 4 B).
    {
      const std::uint32_t line_bytes =
          support::host_cache_info().line_bytes
              ? support::host_cache_info().line_bytes
              : 64;
      bool fp = false;
      for (const ChainInfo& c : out.chains)
        fp = fp || c.elem == ElemType::Real;
      const double line_elems =
          static_cast<double>(line_bytes) / (fp ? 8.0 : 4.0);
      out.est_line_reuse = in.fanin_mean * line_elems;
    }

    // The auto pick and the runner-up it beat. Scores come as {phased,
    // privatized}; ties go to phased, as in core::choose_strategy.
    const bool privatized_wins =
        out.scores[1].cost_per_edge < out.scores[0].cost_per_edge;
    const core::StrategyCost& best = out.scores[privatized_wins ? 1 : 0];
    const core::StrategyCost& other = out.scores[privatized_wins ? 0 : 1];

    if (ctx.forced != core::StrategyKind::Auto) {
      out.chosen = ctx.forced;
      const core::StrategyCost& fc =
          out.scores[static_cast<std::size_t>(ctx.forced) - 1];
      out.rationale = strformat(
          "forced --strategy=%s (%.2f/edge; auto would pick %s at "
          "%.2f/edge)",
          std::string(core::to_string(ctx.forced)).c_str(),
          fc.cost_per_edge,
          std::string(core::to_string(best.strategy)).c_str(),
          best.cost_per_edge);
    } else {
      out.chosen = best.strategy;
      // Name the runner-up so the choice is a comparison, not a verdict.
      out.rationale = strformat(
          "auto: %s wins at %.2f/edge vs %s at %.2f/edge",
          std::string(core::to_string(best.strategy)).c_str(),
          best.cost_per_edge,
          std::string(core::to_string(other.strategy)).c_str(),
          other.cost_per_edge);
    }

    if (ctx.explain) {
      for (const ChainInfo& c : out.chains)
        sink.note(c.line, c.column, "I-STRATEGY-CHAIN",
                  chain_note(c));
      for (const core::StrategyCost& c : out.scores)
        sink.note(loop.line, loop.column, "I-STRATEGY-COST",
                  strformat("%s %.2f/edge: %s",
                            std::string(core::to_string(c.strategy)).c_str(),
                            c.cost_per_edge, c.rationale.c_str()));
      sink.note(loop.line, loop.column, "I-STRATEGY-CHOICE",
                strformat("lowering as %s: %s",
                          std::string(core::to_string(out.chosen)).c_str(),
                          out.rationale.c_str()));
      sink.note(loop.line, loop.column, "I-STRATEGY-LAYOUT",
                strformat("est. reduction cache-line reuse with "
                          "--layout=rcm: %.1f updates/line fetch (~1 at "
                          "layout=none on a DRAM-resident array)",
                          out.est_line_reuse));
    }
    plan.loops.push_back(std::move(out));
  }
  return plan;
}

std::string LoweringPlan::render() const {
  std::string out;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const LoopStrategy& ls = loops[i];
    out += strformat("loop #%zu (line %u): ", i, ls.line);
    if (ls.scores.empty()) {
      out += ls.rationale + "\n";
      continue;
    }
    out += strformat("strategy=%s — %s\n",
                     std::string(core::to_string(ls.chosen)).c_str(),
                     ls.rationale.c_str());
    out += strformat("  est. line reuse with --layout=rcm: %.1f "
                     "updates/fetch (~1 at layout=none)\n",
                     ls.est_line_reuse);
    for (const ChainInfo& c : ls.chains)
      out += "  " + chain_note(c) + "\n";
    for (const core::StrategyCost& c : ls.scores)
      out += strformat("  %-10s %8.2f/edge  %s\n",
                       std::string(core::to_string(c.strategy)).c_str(),
                       c.cost_per_edge, c.rationale.c_str());
  }
  return out;
}

StrategyReport check_source_with_strategies(std::string_view source,
                                            const StrategyContext& ctx) {
  DiagnosticSink sink;
  sink.attach_source(source);
  StrategyReport out;
  out.check.program = parse(source, sink);
  if (!sink.has_errors()) {
    out.check.analysis = analyze(out.check.program, sink);
    out.check.loops = check_reduction_legality(out.check.program,
                                               out.check.analysis, sink);
    // LoopLegality only records the legality pass's own errors; analysis
    // errors (E-RED-READ, E-EXTENT, ...) also disqualify a loop from
    // strategy scoring — a lowering recommendation for a loop that does
    // not compile would be noise.
    std::vector<LoopLegality> scorable = out.check.loops;
    if (sink.has_errors())
      for (LoopLegality& l : scorable) l.legal = false;
    out.lowering = select_strategies(out.check.program, out.check.analysis,
                                     scorable, ctx, sink);
  }
  out.check.diagnostics = sink.diagnostics();
  return out;
}

}  // namespace earthred::compiler
