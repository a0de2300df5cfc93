#include "compiler/strategy.hpp"

#include <map>
#include <set>

#include "compiler/parser.hpp"
#include "support/str.hpp"

namespace earthred::compiler {

namespace {

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
                                       const LoopAnalysis& la) {
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
      chains.push_back(std::move(chain));
    }
  }
  return chains;
}

/// E-STRATEGY-EXTENT-MIX: every reduction array inside one reference
/// group must declare the same extent — the group is lowered with a
/// single element-ownership partition (one LightInspector per group),
/// and a partition of 0..num_nodes cannot also own 0..num_cells.
/// Returns true when the loop has a mixed group (it cannot be lowered
/// until the source is fissioned by hand).
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

std::string chain_note(const ChainInfo& c) {
  return strformat("chain %s via {%s}: %s, %zu update%s/iteration%s",
                   c.array.c_str(), join(c.indirections).c_str(),
                   c.elem == ElemType::Real ? "real" : "int",
                   c.updates_per_iteration,
                   c.updates_per_iteration == 1 ? "" : "s",
                   c.has_subtract ? " (uses -=)" : "");
}

}  // namespace

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
    if (analyzed) {
      out.chains = classify_chains(program, loop, analysis.loops[i]);
      out.legal =
          !check_extent_mix(program, loop, analysis.loops[i], sink) &&
          out.legal;
    }

    if (ctx.explain && out.legal)
      for (const ChainInfo& c : out.chains)
        sink.note(c.line, c.column, "I-STRATEGY-CHAIN", chain_note(c));
    plan.loops.push_back(std::move(out));
  }
  return plan;
}

std::string LoweringPlan::render() const {
  std::string out;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const LoopStrategy& ls = loops[i];
    out += strformat("loop #%zu (line %u): %s\n", i, ls.line,
                     !ls.legal           ? "not a legal irregular reduction"
                     : ls.chains.empty() ? "no reduction chains"
                                         : "phased rotation");
    if (!ls.legal) continue;
    for (const ChainInfo& c : ls.chains) out += "  " + chain_note(c) + "\n";
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
    // lowering — notes on a loop that does not compile would be noise.
    std::vector<LoopLegality> lowerable = out.check.loops;
    if (sink.has_errors())
      for (LoopLegality& l : lowerable) l.legal = false;
    out.lowering = select_strategies(out.check.program, out.check.analysis,
                                     lowerable, ctx, sink);
  }
  out.check.diagnostics = sink.diagnostics();
  return out;
}

}  // namespace earthred::compiler
