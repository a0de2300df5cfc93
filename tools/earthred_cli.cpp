// earthred — command-line front end to the library.
//
//   earthred gen-mesh   --preset=euler-small|euler-large|moldyn-small|
//                        moldyn-large | --nodes=N --edges=E [--seed=S]
//                        --out=mesh.txt
//   earthred gen-matrix --class=s|w|a|b --out=matrix.mtx
//   earthred info       --mesh=mesh.txt
//   earthred run        --kernel=euler|moldyn|fig1 [--mesh=mesh.txt]
//                        [--procs=P] [--k=K] [--dist=block|cyclic|bc]
//                        [--sweeps=N] [--engine=rotation|classic|native]
//                        [--gantt]
//                        native engine only:
//                        [--batch|--no-batch] (batched compute_phase hot
//                        path, default on) [--pin] (worker pinning +
//                        first-touch) [--parallel-build[=T]] (plan build
//                        task pool; T omitted = all cores)
//                        fault injection (engine=rotation only):
//                        [--fault-drop=p] [--fault-corrupt=p]
//                        [--fault-dup=p] [--fault-delay=p]
//                        [--fault-delay-cycles=C] [--fault-seed=S]
//                        [--fault-dead-link=src:dst] [--reliable]
//   earthred compile    --file=loop.dsl [--emit]
//   earthred check      <loop.dsl> | --file=loop.dsl
//                        [--explain] [--json] [--Werror]
//                        (reduction-legality analysis + per-loop
//                        reduction chains: prints every diagnostic with
//                        source snippets; --explain adds
//                        I-STRATEGY-CHAIN notes and the rendered lowering
//                        plan; --json emits one machine-readable object
//                        (diagnostics + per-loop chains) on stdout. Exit
//                        1 on errors, 2 with --Werror when warnings
//                        remain, else 0.)
//   earthred batch      --jobs=jobs.txt [--workers=W] [--queue=N]
//                        [--cache-mb=M] [--no-cache] [--deadline=S]
//                        [--plan-store=DIR] (persistent plan tier: plans
//                        load zero-copy from DIR and new builds persist)
//                        [--json=out.jsonl] [--quiet]
//   earthred serve      (batch mode reading the job list from stdin)
//   earthred serve      --listen=PORT [--host=H] [--max-conns=N]
//                        [--max-inflight=N] [--drain-grace=S] plus the
//                        batch scheduler flags: networked front end
//                        speaking the framed binary protocol of
//                        src/net/wire.hpp; file-referencing jobs
//                        (mesh=/dsl=) are refused (E-JOB-FILEIO) since
//                        remote peers must not name server-side paths
//   earthred submit     --connect=HOST:PORT --job="..." | --jobs=FILE
//                        [--retries=N] [--timeout-ms=T]: submits job
//                        lines to a remote server with jittered
//                        exponential-backoff retries and a circuit
//                        breaker (src/net/client.hpp); prints each
//                        outcome with its result digest
//   earthred ping       --connect=HOST:PORT: health probe (queue depth,
//                        in-flight, drain state)
//   earthred route      --shards=HOST:PORT,... | --shard-file=FILE
//                        [--listen=PORT] [--host=H] [--max-conns=N]
//                        [--shard-inflight=N] [--retries=N]
//                        [--timeout-ms=T] [--drain-grace=S] [--json=F]:
//                        shard-router front end — speaks the same wire
//                        protocol as serve on both faces and forwards
//                        each Submit to the shard owning its plan
//                        content key (rendezvous hashing, so identical
//                        jobs always hit the same warm PlanCache); a
//                        dead or breaker-open shard fails over along the
//                        HRW rank order and the Result is flagged
//                        X-rerouted. Prints `LISTENING <port>` on
//                        stdout once bound. First signal drains the
//                        whole fleet (shards first, router last).
//   earthred fleet      status|drain --connect=HOST:PORT |
//                        --shards=HOST:PORT,... | --shard-file=FILE:
//                        fleet orchestration. `status` pings every
//                        endpoint and tables queue depth, drain state
//                        and the advertised plan-cache identity (entry
//                        count + content-key digest). `drain` sends the
//                        Drain control frame — pointed at a router it
//                        quiesces the whole fleet router-last.
//   earthred version    (also --version): build info, the tier the
//                        batch loops run on this host (avx512 when
//                        CPUID/xgetbv report AVX-512F, else scalar), and
//                        the detected cache sizes (L1d/L2/LLC + line
//                        width)
//   earthred plan       save|load|ls --store=DIR
//                        save/load take the same kernel/mesh keys as run
//                        (--kernel --preset/--mesh/--nodes --edges --seed)
//                        plus --procs --k --dist [--bc=N] [--dedup]:
//                        `save` builds + verifies + persists the plan,
//                        `load` round-trips it through the full validation
//                        chain (exit 1 with the E-STORE-* code on any
//                        rejection), `ls` tables every *.plan file.
//
// `run` additionally accepts --check: build the execution plan, prove the
// rotation invariants AND cross-check every scheduled reference against
// the kernel's indirection (core::verify_execution_plan) before any sweep
// runs; violations print to stderr and exit 1.
//
// Job list format (batch/serve): one job per line, `key=value` tokens
// separated by whitespace; blank lines and lines starting with '#' are
// skipped. Keys: kernel=euler|moldyn|fig1, mesh=<file> or
// preset=<name> or nodes=N edges=E [seed=S], procs=P, k=K,
// dist=block|cyclic|bc [bc=CHUNK], sweeps=N, [dedup], [deadline=S],
// [engine=native|sim], [name=LABEL], [no-batch], [pin],
// [parallel-build[=T]], [verify=on|off] (plan verification before the
// sweeps; defaults to the build type's PlanOptions::verify). Jobs on the
// same mesh share one cached execution plan (see
// src/service/plan_cache.hpp).
//
// Adaptive jobs: mutate=N [mutate-seed=S] rewires N random interactions
// of the job's mesh and submits the mutated kernel with the *base* mesh's
// fingerprint as its patch base — the service patches the cached base
// plan incrementally (PlanCache::patch_or_build) instead of rebuilding,
// falling back transparently if no base plan is resident.
//
// DSL jobs: dsl=<loop.dsl> replaces kernel=/mesh= — the program is
// admission-checked by the service (illegal loops are Rejected with the
// first diagnostic and counted in the stats), and a legal program is
// compiled, bound to a synthesized environment (nodes=N edges=E seed=S
// keys size it), and submitted as one job per fissioned loop.
//
// Exit status: 0 on success, 1 on usage/data errors (message on stderr);
// batch/serve exit 1 if any job failed or was rejected (malformed job
// lines are reported as coded rows, they do not abort the batch).
//
// Graceful drain: batch/serve install SIGINT/SIGTERM handlers. The first
// signal stops admission and drains — in-flight jobs finish, queued jobs
// past their deadline are rejected with the deadline reason — and the
// second signal aborts everything still queued. A run ended by the
// second signal exits 3, so scripts can tell a forced shutdown from a
// clean (even if partly failed) drain.
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "compiler/check.hpp"
#include "compiler/codegen.hpp"
#include "compiler/compiler.hpp"
#include "compiler/strategy.hpp"
#include "core/classic_engine.hpp"
#include "core/native_engine.hpp"
#include "core/reduction_engine.hpp"
#include "core/sequential.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/ops_simd.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "mesh/mesh.hpp"
#include "net/client.hpp"
#include "service/job_builder.hpp"
#include "service/job_scheduler.hpp"
#include "service/plan_store.hpp"
#include "service/serve_loop.hpp"
#include "service/signals.hpp"
#include "shard/shard_map.hpp"
#include "shard/shard_router.hpp"
#include "sparse/io.hpp"
#include "sparse/nas_cg.hpp"
#include "support/check.hpp"
#include "support/cpu_features.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace earthred {
namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: earthred "
      "<gen-mesh|gen-matrix|info|run|compile|check|batch|serve|submit|"
      "ping|route|fleet|plan|version> "
      "[--flags]\n(see the header of tools/earthred_cli.cpp)\n");
  return 1;
}

std::unique_ptr<core::PhasedKernel> make_kernel(const std::string& kname,
                                                mesh::Mesh m) {
  if (kname == "euler")
    return std::make_unique<kernels::EulerKernel>(std::move(m));
  if (kname == "moldyn")
    return std::make_unique<kernels::MoldynKernel>(std::move(m));
  if (kname == "fig1")
    return std::make_unique<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(std::move(m)));
  throw check_error("unknown kernel '" + kname + "' (euler|moldyn|fig1)");
}

mesh::Mesh mesh_from_options(const Options& opt) {
  const std::string preset = opt.get("preset");
  if (preset == "euler-small") return mesh::euler_mesh_small();
  if (preset == "euler-large") return mesh::euler_mesh_large();
  if (preset == "moldyn-small") return mesh::moldyn_small();
  if (preset == "moldyn-large") return mesh::moldyn_large();
  if (!preset.empty())
    throw check_error("unknown preset '" + preset + "'");
  if (opt.has("mesh")) return mesh::load_mesh(opt.get("mesh"));
  const auto nodes = static_cast<std::uint32_t>(opt.get_int("nodes", 1000));
  const auto edges =
      static_cast<std::uint64_t>(opt.get_int("edges", 5000));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 42));
  return mesh::make_geometric_mesh({nodes, edges, seed});
}

int cmd_gen_mesh(const Options& opt) {
  const mesh::Mesh m = mesh_from_options(opt);
  const std::string out = opt.get("out");
  if (out.empty()) {
    mesh::write_mesh(std::cout, m);
  } else {
    mesh::save_mesh(out, m);
    std::printf("wrote %u nodes, %llu edges to %s\n", m.num_nodes,
                static_cast<unsigned long long>(m.num_edges()),
                out.c_str());
  }
  return 0;
}

int cmd_gen_matrix(const Options& opt) {
  const std::string cls = opt.get("class", "s");
  sparse::NasCgParams params;
  if (cls == "s") params = sparse::nas_class_s();
  else if (cls == "w") params = sparse::nas_class_w();
  else if (cls == "a") params = sparse::nas_class_a();
  else if (cls == "b") params = sparse::nas_class_b();
  else throw check_error("unknown class '" + cls + "' (s|w|a|b)");
  const sparse::CsrMatrix m = sparse::make_nas_cg_matrix(params);
  const std::string out = opt.get("out");
  if (out.empty()) {
    sparse::write_matrix_market(std::cout, m);
  } else {
    sparse::save_matrix_market(out, m);
    std::printf("wrote %s rows, %s nonzeros to %s\n",
                fmt_group(m.nrows()).c_str(),
                fmt_group(static_cast<long long>(m.nnz())).c_str(),
                out.c_str());
  }
  return 0;
}

int cmd_info(const Options& opt) {
  const mesh::Mesh m = mesh_from_options(opt);
  const auto deg = mesh::node_degrees(m);
  std::vector<double> degd(deg.begin(), deg.end());
  const Summary s = summarize(degd);
  Table t("mesh info");
  t.set_header({"property", "value"});
  t.add_row({"nodes", fmt_group(m.num_nodes)});
  t.add_row({"edges", fmt_group(static_cast<long long>(m.num_edges()))});
  t.add_row({"degree mean", fmt_f(s.mean, 2)});
  t.add_row({"degree max", fmt_f(s.max, 0)});
  t.add_row({"bandwidth",
             fmt_group(static_cast<long long>(mesh::mesh_bandwidth(m)))});
  t.add_row({"has coords", m.coords.empty() ? "no" : "yes"});
  t.print(std::cout);
  return 0;
}

/// Parsing of the native-engine hot-path `run` flags: --batch/--no-batch,
/// --pin, --parallel-build[=T] (T omitted = one build thread per core).
void hotpath_from_options(const Options& opt, core::PlanOptions& popt,
                          core::SweepOptions& sopt) {
  sopt.batch = opt.has("no-batch") ? false : opt.get_bool("batch", true);
  if (opt.get_bool("pin", false)) {
    sopt.affinity.pin_threads = true;
    sopt.affinity.first_touch = true;
  }
  if (opt.has("parallel-build"))
    popt.build_threads =
        static_cast<std::uint32_t>(opt.get_int("parallel-build", 0));
}

earth::FaultConfig fault_from_options(const Options& opt) {
  earth::FaultConfig fc;
  fc.drop = opt.get_double("fault-drop", 0.0);
  fc.corrupt = opt.get_double("fault-corrupt", 0.0);
  fc.duplicate = opt.get_double("fault-dup", 0.0);
  fc.delay = opt.get_double("fault-delay", 0.0);
  fc.delay_cycles =
      static_cast<earth::Cycles>(opt.get_int("fault-delay-cycles", 400));
  fc.seed = static_cast<std::uint64_t>(opt.get_int("fault-seed", 0x5eed));
  const std::string link = opt.get("fault-dead-link");
  if (!link.empty()) {
    const auto colon = link.find(':');
    const auto numeric = [](const std::string& s) {
      return !s.empty() && s.find_first_not_of("0123456789") ==
                               std::string::npos;
    };
    ER_CHECK_MSG(colon != std::string::npos &&
                     numeric(link.substr(0, colon)) &&
                     numeric(link.substr(colon + 1)),
                 "--fault-dead-link expects src:dst (numeric node ids), "
                 "got '" + link + "'");
    fc.dead_links.emplace_back(
        static_cast<earth::NodeId>(std::stoul(link.substr(0, colon))),
        static_cast<earth::NodeId>(std::stoul(link.substr(colon + 1))));
  }
  fc.enabled = fc.drop > 0.0 || fc.corrupt > 0.0 || fc.duplicate > 0.0 ||
               fc.delay > 0.0 || !fc.dead_links.empty();
  return fc;
}

/// Reads a whole text file (DSL sources for check/compile and `dsl=` job
/// keys).
std::string read_file(const std::string& path) {
  std::ifstream is(path);
  ER_CHECK_MSG(is.good(), "cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

int cmd_run(const Options& opt) {
  const std::string kname = opt.get("kernel", "euler");
  const std::unique_ptr<core::PhasedKernel> kernel =
      make_kernel(kname, mesh_from_options(opt));

  const auto procs = static_cast<std::uint32_t>(opt.get_int("procs", 8));
  const auto k = static_cast<std::uint32_t>(opt.get_int("k", 2));
  const auto sweeps = static_cast<std::uint32_t>(opt.get_int("sweeps", 10));
  const auto dist = inspector::parse_distribution(opt.get("dist", "cyclic"));
  const std::string engine = opt.get("engine", "rotation");

  if (opt.get_bool("check", false)) {
    // Prove the plan before running anything: full structural invariants
    // plus the kernel indirection cross-check. Engine-independent — the
    // same rotation schedule underlies native and simulated execution.
    core::PlanOptions popt;
    popt.num_procs = procs;
    popt.k = k;
    popt.distribution = dist;
    popt.verify = false;  // the explicit full check below supersedes it
    const core::ExecutionPlan plan =
        core::build_execution_plan(*kernel, popt);
    const inspector::PlanVerifyReport vr =
        core::verify_execution_plan(plan, kernel.get());
    if (!vr.ok()) {
      std::fprintf(stderr, "%splan verification failed: %llu violation(s)\n",
                   vr.render().c_str(),
                   static_cast<unsigned long long>(vr.violations));
      return 1;
    }
    std::printf("plan verified: %s iterations, %s references, %s fold-backs "
                "— all rotation invariants hold\n",
                fmt_group(static_cast<long long>(vr.checked_iterations))
                    .c_str(),
                fmt_group(static_cast<long long>(vr.checked_refs)).c_str(),
                fmt_group(static_cast<long long>(vr.checked_folds)).c_str());
  }

  core::SequentialOptions sopt;
  sopt.sweeps = sweeps;
  sopt.collect_results = false;
  const core::RunResult seq = core::run_sequential_kernel(*kernel, sopt);

  Table t("run: " + kname + " P=" + std::to_string(procs) +
          " k=" + std::to_string(k) + " " + to_string(dist));
  t.set_header({"metric", "value"});
  if (engine == "native") {
    core::PlanOptions popt;
    popt.num_procs = procs;
    popt.k = k;
    popt.distribution = dist;
    core::SweepOptions wopt;
    wopt.sweeps = sweeps;
    hotpath_from_options(opt, popt, wopt);
    const core::ExecutionPlan plan = core::build_execution_plan(*kernel, popt);
    const core::NativeResult r = core::run_native_plan(*kernel, plan, wopt);
    t.add_row({"plan build seconds", fmt_f(plan.build_seconds, 4)});
    t.add_row({"wall seconds (host threads)", fmt_f(r.wall_seconds, 4)});
    t.add_row({"executor", wopt.batch ? strformat("batched (%s)",
                                                  kernels::ops::batch_tier())
                                        : "per-edge"});
  } else {
    core::RunResult r;
    if (engine == "classic") {
      core::ClassicOptions copt;
      copt.num_procs = procs;
      copt.distribution = dist;
      copt.sweeps = sweeps;
      copt.collect_results = false;
      r = core::run_classic_engine(*kernel, copt);
    } else if (engine == "rotation") {
      core::RotationOptions ropt;
      ropt.num_procs = procs;
      ropt.k = k;
      ropt.distribution = dist;
      ropt.sweeps = sweeps;
      ropt.collect_results = false;
      ropt.machine.trace = opt.get_bool("gantt", false);
      // Faults without --reliable are allowed: a lost message then
      // surfaces as the machine's quiescence check_error, which is the
      // watchdog demonstration, not a usage error.
      ropt.machine.fault = fault_from_options(opt);
      ropt.reliable = opt.get_bool("reliable", false);
      r = core::run_rotation_engine(*kernel, ropt);
    } else {
      throw check_error("unknown engine '" + engine +
                        "' (rotation|classic|native)");
    }
    t.add_row({"cycles", fmt_group(static_cast<long long>(r.total_cycles))});
    t.add_row({"inspector cycles",
               fmt_group(static_cast<long long>(r.inspector_cycles))});
    t.add_row({"speedup vs sequential",
               fmt_f(static_cast<double>(seq.total_cycles) /
                         static_cast<double>(r.total_cycles),
                     2)});
    t.add_row({"messages",
               fmt_group(static_cast<long long>(r.machine.total_msgs()))});
    t.add_row({"bytes",
               fmt_group(static_cast<long long>(r.machine.total_bytes()))});
    t.add_row({"cache miss rate", fmt_f(r.machine.cache_miss_rate(), 3)});
    t.add_row({"EU utilization", fmt_f(r.machine.eu_utilization(), 2)});
    t.add_row({"phase imbalance (CoV)",
               fmt_f(coefficient_of_variation(r.phase_iterations), 3)});
    if (r.machine.faults.injected() != 0 || r.reliable.sent != 0) {
      t.add_row({"faults injected",
                 fmt_group(static_cast<long long>(
                     r.machine.faults.injected())) +
                     " (drop " + std::to_string(r.machine.faults.dropped) +
                     ", corrupt " +
                     std::to_string(r.machine.faults.corrupted) + ", dup " +
                     std::to_string(r.machine.faults.duplicated) +
                     ", delay " +
                     std::to_string(r.machine.faults.delayed) + ")"});
      t.add_row({"reliable payloads",
                 fmt_group(static_cast<long long>(r.reliable.sent))});
      t.add_row({"retransmits",
                 fmt_group(static_cast<long long>(r.reliable.retransmits))});
      t.add_row({"acks sent",
                 fmt_group(static_cast<long long>(r.reliable.acks_sent))});
      t.add_row(
          {"frames rejected",
           std::to_string(r.reliable.rejected_stale) + " stale, " +
               std::to_string(r.reliable.rejected_corrupt) + " corrupt"});
    }
    t.print(std::cout);
    if (!r.gantt.empty()) std::printf("\n%s", r.gantt.c_str());
    return 0;
  }
  t.print(std::cout);
  return 0;
}

int cmd_compile(const Options& opt) {
  const std::string path = opt.get("file");
  if (path.empty()) throw check_error("compile needs --file=loop.dsl");

  compiler::CompileOptions copt;
  copt.optimize = opt.get_bool("optimize", false);
  const compiler::CompileResult result =
      compiler::compile(read_file(path), copt);
  if (copt.optimize)
    std::printf("optimizer: %zu folds, %zu propagations, %zu dead scalars "
                "removed\n",
                result.optimize_stats.folded,
                result.optimize_stats.propagated,
                result.optimize_stats.dead_removed);
  for (std::size_t li = 0; li < result.analysis.loops.size(); ++li) {
    const auto& la = result.analysis.loops[li];
    std::printf("loop %zu: %zu reduction section(s), %zu indirection "
                "section(s), %zu reference group(s)%s\n",
                li, la.reduction_sections.size(),
                la.indirection_sections.size(), la.groups.size(),
                la.needs_fission() ? " -> loop fission" : "");
    for (const auto& sec : la.reduction_sections)
      std::printf("  reduction   %s\n", sec.triplet().c_str());
    for (const auto& sec : la.indirection_sections)
      std::printf("  indirection %s\n", sec.triplet().c_str());
  }
  if (opt.get_bool("emit", false)) {
    for (std::size_t i = 0; i < result.threaded_c.size(); ++i)
      std::printf("\n// ---- fissioned loop %zu ----\n%s", i,
                  result.threaded_c[i].c_str());
  }
  return 0;
}

/// Serializes a StrategyReport's lowering plan as a JSON array of loops.
std::string lowering_plan_json(const compiler::LoweringPlan& plan) {
  std::vector<std::string> loops;
  for (const compiler::LoopStrategy& ls : plan.loops) {
    std::vector<std::string> chains;
    for (const compiler::ChainInfo& c : ls.chains) {
      std::vector<std::string> vias;
      for (const std::string& v : c.indirections)
        vias.push_back("\"" + json_escape(v) + "\"");
      JsonWriter cw;
      cw.field("array", c.array)
          .raw_field("indirections", json_array(vias))
          .field("elem",
                 c.elem == compiler::ElemType::Real ? "real" : "int")
          .field("updates_per_iteration",
                 static_cast<std::uint64_t>(c.updates_per_iteration))
          .field("has_subtract", c.has_subtract);
      chains.push_back(cw.str());
    }
    JsonWriter lw;
    lw.field("line", ls.line)
        .field("legal", ls.legal)
        .raw_field("chains", json_array(chains));
    loops.push_back(lw.str());
  }
  return json_array(loops);
}

int cmd_check(const Options& opt) {
  std::string path = opt.get("file");
  if (path.empty() && !opt.positional().empty())
    path = opt.positional().front();
  if (path.empty())
    throw check_error("check needs a DSL file: earthred check loop.dsl");
  const std::string source = read_file(path);

  compiler::StrategyContext ctx;
  ctx.explain = opt.get_bool("explain", false);
  const compiler::StrategyReport sr =
      compiler::check_source_with_strategies(source, ctx);
  const compiler::CheckReport& report = sr.check;

  const bool werror = opt.get_bool("Werror", false);
  const int exit_code = report.has_errors() ? 1
                        : werror && report.warning_count() > 0 ? 2
                                                               : 0;

  if (opt.get_bool("json", false)) {
    // One machine-readable object on stdout: what CI's lint gate and
    // editor integrations consume instead of scraping the text form.
    std::vector<std::string> diags;
    for (const Diagnostic& d : report.diagnostics) {
      JsonWriter dw;
      dw.field("line", d.line)
          .field("col", d.column)
          .field("severity", earthred::to_string(d.severity))
          .field("code", d.code)
          .field("message", d.message);
      diags.push_back(dw.str());
    }
    JsonWriter w;
    w.field("file", path)
        .field("errors", static_cast<std::uint64_t>(report.error_count()))
        .field("warnings",
               static_cast<std::uint64_t>(report.warning_count()))
        .field("werror", werror)
        .field("exit", static_cast<std::int64_t>(exit_code))
        .raw_field("diagnostics", json_array(diags))
        .raw_field("loops", lowering_plan_json(sr.lowering));
    std::printf("%s\n", w.str().c_str());
    return exit_code;
  }

  for (const Diagnostic& d : report.diagnostics)
    std::printf("%s:%s\n", path.c_str(), d.to_string().c_str());
  if (report.has_errors()) {
    std::printf("%s: %zu error(s), %zu warning(s) — not a legal irregular "
                "reduction\n",
                path.c_str(), report.error_count(), report.warning_count());
    return 1;
  }
  if (ctx.explain) std::printf("%s", sr.lowering.render().c_str());
  std::size_t reductions = 0;
  for (const compiler::LoopLegality& l : report.loops)
    reductions += l.reduction_writes;
  std::printf("%s: ok — %zu loop(s), %zu reduction statement(s), %zu "
              "warning(s)%s\n",
              path.c_str(), report.loops.size(), reductions,
              report.warning_count(),
              exit_code == 2 ? " [--Werror: warnings are fatal]" : "");
  return exit_code;
}

// ---- batch/serve: drive the reduction service from a job list ----------
// Job-line parsing lives in service::JobBuilder (shared with the
// networked ServeLoop and tests); the CLI only schedules, waits, and
// reports.

const char* to_string(service::JobState s) {
  switch (s) {
    case service::JobState::Pending: return "pending";
    case service::JobState::Rejected: return "rejected";
    case service::JobState::Done: return "done";
    case service::JobState::Failed: return "failed";
  }
  return "?";
}

const char* to_string(service::PlanCache::Outcome o) {
  switch (o) {
    case service::PlanCache::Outcome::Hit: return "cached";
    case service::PlanCache::Outcome::Coalesced: return "coalesced";
    case service::PlanCache::Outcome::Built: return "built";
    case service::PlanCache::Outcome::DiskLoaded: return "disk";
    case service::PlanCache::Outcome::Patched: return "patched";
  }
  return "?";
}

/// Scheduler configuration shared by batch, stdin serve, and the
/// networked `serve --listen`.
service::JobScheduler::Config scheduler_config(const Options& opt) {
  service::JobScheduler::Config cfg;
  cfg.workers = static_cast<std::uint32_t>(opt.get_int("workers", 4));
  cfg.queue_capacity =
      static_cast<std::size_t>(opt.get_int("queue", 256));
  cfg.default_deadline = opt.get_double("deadline", 30.0);
  cfg.cache.byte_budget =
      opt.get_bool("no-cache", false)
          ? 0
          : static_cast<std::uint64_t>(opt.get_int("cache-mb", 256)) << 20;
  if (opt.has("plan-store"))
    cfg.cache.store =
        std::make_shared<service::PlanStore>(opt.get("plan-store"));
  return cfg;
}

int run_service(std::istream& jobs_in, const Options& opt) {
  service::JobScheduler sched(scheduler_config(opt));
  service::JobBuilder builder;  // local front end: file IO allowed

  service::install_shutdown_signals();

  struct ParseReject {
    std::string name, code, detail;
  };
  std::vector<ParseReject> parse_rejects;
  std::vector<service::JobHandle> handles;
  std::string line;
  std::size_t lineno = 0;
  while (service::shutdown_signal_count() == 0 &&
         std::getline(jobs_in, line)) {
    ++lineno;
    service::JobBuild b = builder.build(line, lineno);
    if (!b.ok()) {
      // Malformed lines become coded rows in the report, not a batch
      // abort; blank/comment lines are simply not jobs.
      if (b.code != "E-JOB-EMPTY")
        parse_rejects.push_back(
            {"line " + std::to_string(lineno), b.code, b.detail});
      continue;
    }
    for (service::JobRequest& req : b.requests)
      handles.push_back(sched.submit(std::move(req)));
  }

  // Signal-aware wait: poll readiness instead of blocking, so the first
  // signal can start a drain (in-flight jobs finish, expired queued jobs
  // reject at pickup) and a second can abort what is still queued.
  bool forced = false;
  int signals_seen = 0;
  std::size_t unresolved = handles.size();
  std::vector<bool> resolved(handles.size(), false);
  while (unresolved > 0) {
    const int sigs = service::shutdown_signal_count();
    if (sigs != signals_seen) {
      if (signals_seen == 0 && sigs >= 1) {
        std::fprintf(stderr,
                     "earthred: draining (signal again to force)\n");
        sched.begin_drain();
      }
      if (sigs >= 2 && !forced) {
        forced = true;
        std::fprintf(stderr,
                     "earthred: forced shutdown, aborting queued jobs\n");
        sched.abort_queued("shutdown forced by second signal");
      }
      signals_seen = sigs;
    }
    bool progressed = false;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (resolved[i] || !handles[i].ready()) continue;
      resolved[i] = true;
      --unresolved;
      progressed = true;
    }
    if (unresolved > 0 && !progressed)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Every handle resolves — rejected jobs report their reason here rather
  // than disappearing.
  Table t("service jobs");
  t.set_header({"job", "state", "plan", "queue ms", "setup ms", "exec s",
                "detail"});
  std::uint64_t bad = 0;
  for (const ParseReject& r : parse_rejects) {
    ++bad;
    t.add_row({r.name, "rejected", "-", "-", "-", "-",
               r.code + ": " + r.detail});
    if (opt.has("json")) {
      JsonWriter w;
      w.field("job", r.name)
          .field("state", "rejected")
          .field("error", r.code + ": " + r.detail);
      append_json_line(opt.get("json"), w.str());
    }
  }
  for (const service::JobHandle& h : handles) {
    const service::JobOutcome& o = h.wait();
    if (o.state != service::JobState::Done) ++bad;
    std::string detail = o.error;
    if (o.state == service::JobState::Done && o.simulated_run.total_cycles)
      detail = fmt_group(static_cast<long long>(
                   o.simulated_run.total_cycles)) + " cycles";
    t.add_row({o.name, to_string(o.state),
               o.state == service::JobState::Rejected
                   ? "-"
                   : (o.simulated ? "sim" : to_string(o.plan_source)),
               fmt_f(o.queue_seconds * 1e3, 2),
               fmt_f(o.setup_seconds * 1e3, 3), fmt_f(o.exec_seconds, 4),
               detail});
    if (opt.has("json")) {
      JsonWriter w;
      w.field("job", o.name)
          .field("state", to_string(o.state))
          .field("cache_hit", o.cache_hit)
          .field("plan_source", o.simulated ? "sim" : to_string(o.plan_source))
          .field("queue_seconds", o.queue_seconds)
          .field("setup_seconds", o.setup_seconds)
          .field("plan_build_seconds", o.plan_build_seconds)
          .field("exec_seconds", o.exec_seconds)
          .field("total_seconds", o.total_seconds);
      if (o.state == service::JobState::Done && !o.simulated)
        w.field("digest",
                strformat("%016llx",
                          static_cast<unsigned long long>(
                              service::result_digest(o.native))));
      if (!o.error.empty()) w.field("error", o.error);
      append_json_line(opt.get("json"), w.str());
    }
  }
  const service::ServiceStats stats = sched.stats();
  if (opt.has("json")) {
    // Summary record after the per-job lines: the service-level latency
    // percentiles and cache/store tallies a client can't derive from the
    // individual outcomes.
    JsonWriter w;
    w.field("record", "service_stats")
        .field("submitted", stats.submitted)
        .field("completed", stats.completed)
        .field("failed", stats.failed)
        .field("rejected", stats.rejected)
        .field("p50_latency_s", stats.p50_latency)
        .field("p95_latency_s", stats.p95_latency)
        .field("p99_latency_s", stats.p99_latency)
        .field("cache_hit_rate", stats.cache.hit_rate())
        .field("disk_hits", stats.cache.disk_hits)
        .field("disk_misses", stats.cache.disk_misses)
        .field("disk_fallbacks", stats.cache.disk_fallbacks)
        .field("plans_persisted", stats.cache.persisted)
        .field("plans_patched", stats.cache.patched)
        .field("patch_fallbacks", stats.cache.patch_fallbacks);
    append_json_line(opt.get("json"), w.str());
  }
  if (!opt.get_bool("quiet", false)) {
    t.print(std::cout);
    stats.print(std::cout);
  }
  if (forced) return 3;
  return bad == 0 ? 0 : 1;
}

// ---- plan: operate on the persistent plan store directly ---------------

/// Builds the (kernel, options, key) triple the save/load subcommands
/// share, from the same flags `run` uses.
struct PlanVerbContext {
  std::unique_ptr<core::PhasedKernel> kernel;
  core::PlanOptions popt;
  service::PlanKey key;
};

PlanVerbContext plan_verb_context(const Options& opt) {
  PlanVerbContext ctx;
  ctx.kernel = make_kernel(opt.get("kernel", "euler"), mesh_from_options(opt));
  ctx.popt.num_procs = static_cast<std::uint32_t>(opt.get_int("procs", 8));
  ctx.popt.k = static_cast<std::uint32_t>(opt.get_int("k", 2));
  ctx.popt.distribution =
      inspector::parse_distribution(opt.get("dist", "cyclic"));
  ctx.popt.block_cyclic_size =
      static_cast<std::uint32_t>(opt.get_int("bc", 16));
  ctx.popt.inspector.dedup_buffers = opt.get_bool("dedup", false);
  ctx.key = service::make_plan_key(*ctx.kernel, ctx.popt);
  return ctx;
}

int cmd_plan(const Options& opt) {
  const std::string sub =
      opt.positional().empty() ? "" : opt.positional().front();
  if (sub != "save" && sub != "load" && sub != "ls")
    throw check_error("plan needs a subcommand: save|load|ls");
  const service::PlanStore store(opt.get("store", "plans"));

  if (sub == "ls") {
    Table t("plan store: " + store.directory());
    t.set_header({"file", "bytes", "procs", "k", "mesh", "status"});
    for (const service::PlanStore::ListEntry& e : store.list()) {
      if (e.error_code.empty()) {
        t.add_row({e.filename,
                   fmt_group(static_cast<long long>(e.file_bytes)),
                   std::to_string(e.header.num_procs),
                   std::to_string(e.header.k),
                   fmt_group(e.header.num_nodes) + " nodes / " +
                       fmt_group(static_cast<long long>(
                           e.header.num_edges)) +
                       " edges",
                   "ok"});
      } else {
        t.add_row({e.filename,
                   fmt_group(static_cast<long long>(e.file_bytes)), "-",
                   "-", "-", e.error_code});
      }
    }
    t.print(std::cout);
    return 0;
  }

  const PlanVerbContext ctx = plan_verb_context(opt);
  if (sub == "save") {
    core::PlanOptions build_opt = ctx.popt;
    build_opt.verify = true;  // never persist an unproven plan
    const core::ExecutionPlan plan =
        core::build_execution_plan(*ctx.kernel, build_opt);
    std::string error;
    if (!store.save(ctx.key, plan, &error))
      throw check_error("plan save failed: " + error);
    std::printf("saved %s (built in %.4f s)\n",
                store.path_for(ctx.key).c_str(), plan.build_seconds);
    return 0;
  }

  // load: the full untrusted-input validation chain, surfaced verbatim.
  const core::PlanLoadResult r = store.load(ctx.key);
  if (!r.ok()) {
    std::fprintf(stderr, "plan load rejected [%s]: %s\n",
                 r.error_code.c_str(), r.detail.c_str());
    return 1;
  }
  std::printf("loaded %s: %s phases x %u procs, %s bytes resident, "
              "%szero-copy, verifier clean\n",
              store.path_for(ctx.key).c_str(),
              fmt_group(static_cast<long long>(
                  r.plan->insp.empty() ? 0 : r.plan->insp[0].phases.size()))
                  .c_str(),
              r.plan->options.num_procs,
              fmt_group(static_cast<long long>(r.plan->byte_size())).c_str(),
              r.zero_copy ? "" : "NOT ");
  return 0;
}

int cmd_batch(const Options& opt) {
  const std::string path = opt.get("jobs");
  if (path.empty()) throw check_error("batch needs --jobs=<file>");
  std::ifstream is(path);
  ER_CHECK_MSG(is.good(), "cannot open '" + path + "'");
  return run_service(is, opt);
}

// ---- serve --listen / submit / ping: the networked front end -----------

int run_netserve(const Options& opt) {
  service::JobScheduler sched(scheduler_config(opt));
  // Remote peers must not name server-side files.
  service::JobLimits limits;
  limits.allow_file_io = false;
  auto builder = std::make_shared<service::JobBuilder>(limits);
  auto lineno = std::make_shared<std::size_t>(0);

  service::ServeConfig scfg;
  scfg.host = opt.get("host", "127.0.0.1");
  scfg.port = static_cast<std::uint16_t>(opt.get_int("listen", 0));
  scfg.max_connections =
      static_cast<std::uint32_t>(opt.get_int("max-conns", 64));
  scfg.max_inflight =
      static_cast<std::uint32_t>(opt.get_int("max-inflight", 128));
  scfg.drain_grace_seconds = opt.get_double("drain-grace", 30.0);

  service::ServeLoop loop(
      sched,
      [builder, lineno](std::string_view job_line) {
        return builder->build(job_line, ++*lineno);
      },
      scfg);
  std::string error;
  if (!loop.start(&error)) {
    std::fprintf(stderr, "earthred serve: %s\n", error.c_str());
    return 1;
  }
  // Machine-readable first line: launchers (CI, fleet scripts) that bind
  // port 0 parse the actual port from here.
  std::printf("LISTENING %u\n", loop.port());
  std::printf("earthred: serving on %s:%u (signal once to drain, twice "
              "to force)\n",
              scfg.host.c_str(), loop.port());
  std::printf("earthred: batch loops: %s\n", kernels::ops::batch_tier());
  std::fflush(stdout);

  service::install_shutdown_signals();
  bool forced = false;
  int signals_seen = 0;
  while (loop.running()) {
    const int sigs = service::shutdown_signal_count();
    if (sigs != signals_seen) {
      if (signals_seen == 0 && sigs >= 1) {
        std::fprintf(stderr,
                     "earthred: draining (signal again to force)\n");
        loop.request_drain();
      }
      if (sigs >= 2 && !forced) {
        forced = true;
        std::fprintf(stderr, "earthred: forced shutdown\n");
        loop.request_abort();
      }
      signals_seen = sigs;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  loop.wait();
  sched.drain();

  const service::ServeStats ns = loop.stats();
  Table t("serve transport");
  t.set_header({"counter", "value"});
  const auto row = [&t](const char* name, std::uint64_t v) {
    t.add_row({name, fmt_group(static_cast<long long>(v))});
  };
  row("connections accepted", ns.accepted);
  row("frames in", ns.frames_in);
  row("frames out", ns.frames_out);
  row("submits", ns.submits);
  row("results sent", ns.results_sent);
  row("rejects sent", ns.rejects_sent);
  row("bad frames", ns.bad_frames);
  row("shed (max-conns)", ns.shed_maxconn);
  row("shed (busy)", ns.shed_busy);
  row("shed (draining)", ns.shed_draining);
  row("parse rejects", ns.parse_rejects);
  row("timeouts (read/write)", ns.read_timeouts + ns.write_timeouts);
  row("orphaned results", ns.orphaned_results);
  t.print(std::cout);
  sched.stats().print(std::cout);
  return forced ? 3 : 0;
}

net::ClientConfig client_config(const Options& opt) {
  const std::string ep = opt.get("connect");
  if (ep.empty()) throw check_error("need --connect=host:port");
  const std::size_t colon = ep.rfind(':');
  ER_CHECK_MSG(colon != std::string::npos && colon + 1 < ep.size(),
               "--connect expects host:port, got '" + ep + "'");
  net::ClientConfig cfg;
  cfg.host = ep.substr(0, colon);
  unsigned long port = 0;
  try {
    port = std::stoul(ep.substr(colon + 1));
  } catch (const std::exception&) {
    port = 0;
  }
  ER_CHECK_MSG(port > 0 && port <= 65535,
               "--connect port must be 1..65535, got '" +
                   ep.substr(colon + 1) + "'");
  cfg.port = static_cast<std::uint16_t>(port);
  cfg.request_timeout_ms =
      static_cast<int>(opt.get_int("timeout-ms", 10000));
  cfg.max_attempts =
      static_cast<std::uint32_t>(opt.get_int("retries", 3)) + 1;
  return cfg;
}

int cmd_submit(const Options& opt) {
  net::Client client(client_config(opt));
  std::vector<std::string> lines;
  if (opt.has("job")) {
    lines.push_back(opt.get("job"));
  } else if (opt.has("jobs")) {
    std::ifstream is(opt.get("jobs"));
    ER_CHECK_MSG(is.good(), "cannot open '" + opt.get("jobs") + "'");
    std::string l;
    while (std::getline(is, l)) {
      const std::string_view s = trim(l);
      if (!s.empty() && s.front() != '#') lines.push_back(l);
    }
  } else {
    throw check_error("submit needs --job=\"...\" or --jobs=<file>");
  }

  Table t("submitted jobs");
  t.set_header({"job", "state", "plan", "exec s", "digest", "tries",
                "detail"});
  std::uint64_t bad = 0;
  for (const std::string& l : lines) {
    const net::Client::Reply r = client.submit(l);
    if (!r.ok()) {
      ++bad;
      t.add_row({l.size() > 32 ? l.substr(0, 29) + "..." : l, "error",
                 "-", "-", "-", std::to_string(r.attempts),
                 r.code + ": " + r.detail});
      continue;
    }
    const auto state = static_cast<service::JobState>(r.result.state);
    if (state != service::JobState::Done) ++bad;
    t.add_row(
        {r.result.name, to_string(state),
         state == service::JobState::Rejected
             ? "-"
             : to_string(static_cast<service::PlanCache::Outcome>(
                   r.result.plan_source)),
         fmt_f(r.result.exec_seconds, 4),
         r.result.digest
             ? strformat("%016llx", static_cast<unsigned long long>(
                                        r.result.digest))
             : "-",
         std::to_string(r.attempts), r.result.error});
  }
  t.print(std::cout);
  const net::ClientStats& cs = client.stats();
  std::printf("client: %llu call(s), %llu attempt(s), %llu retries, "
              "%llu reconnect(s), breaker %s\n",
              static_cast<unsigned long long>(cs.calls),
              static_cast<unsigned long long>(cs.attempts),
              static_cast<unsigned long long>(cs.retries),
              static_cast<unsigned long long>(cs.reconnects),
              net::to_string(client.breaker_state()));
  return bad == 0 ? 0 : 1;
}

int cmd_ping(const Options& opt) {
  net::Client client(client_config(opt));
  const net::Client::PingReply r = client.ping();
  if (!r.ok()) {
    std::fprintf(stderr, "ping failed [%s]: %s (after %u attempt(s))\n",
                 r.code.c_str(), r.detail.c_str(), r.attempts);
    return 1;
  }
  std::printf("pong (protocol v%u): queue %llu, in-flight %llu, "
              "completed %llu, rejected %llu%s\n",
              r.pong.version,
              static_cast<unsigned long long>(r.pong.queue_depth),
              static_cast<unsigned long long>(r.pong.in_flight),
              static_cast<unsigned long long>(r.pong.completed),
              static_cast<unsigned long long>(r.pong.rejected),
              r.pong.draining ? ", DRAINING" : "");
  return 0;
}

int cmd_serve(const Options& opt) {
  if (opt.has("listen")) return run_netserve(opt);
  return run_service(std::cin, opt);
}

// ---- route / fleet: the shard-router fleet front end --------------------

shard::ShardMap shard_map_from_options(const Options& opt) {
  std::string error;
  shard::ShardMap map;
  if (opt.has("shard-file"))
    map = shard::ShardMap::load(opt.get("shard-file"), &error);
  else if (opt.has("shards"))
    map = shard::ShardMap::from_spec(opt.get("shards"), &error);
  else
    throw check_error(
        "need --shards=host:port,... or --shard-file=<file>");
  ER_CHECK_MSG(!map.empty(),
               error.empty() ? "shard map is empty" : error);
  return map;
}

int cmd_route(const Options& opt) {
  shard::RouterConfig rcfg;
  rcfg.host = opt.get("host", "127.0.0.1");
  rcfg.port = static_cast<std::uint16_t>(opt.get_int("listen", 0));
  rcfg.max_connections =
      static_cast<std::uint32_t>(opt.get_int("max-conns", 64));
  rcfg.drain_grace_seconds = opt.get_double("drain-grace", 30.0);
  rcfg.pool.max_inflight_per_shard =
      static_cast<std::uint32_t>(opt.get_int("shard-inflight", 32));
  rcfg.pool.client.request_timeout_ms =
      static_cast<int>(opt.get_int("timeout-ms", 10000));
  rcfg.pool.client.max_attempts =
      static_cast<std::uint32_t>(opt.get_int("retries", 3)) + 1;

  shard::ShardRouter router(shard_map_from_options(opt), rcfg);
  std::string error;
  if (!router.start(&error)) {
    std::fprintf(stderr, "earthred route: %s\n", error.c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", router.port());
  std::printf("earthred: routing on %s:%u across %zu shard(s) (signal "
              "once to drain the fleet, twice to force)\n",
              rcfg.host.c_str(), router.port(), router.map().size());
  std::fflush(stdout);

  service::install_shutdown_signals();
  bool forced = false;
  int signals_seen = 0;
  while (router.running()) {
    const int sigs = service::shutdown_signal_count();
    if (sigs != signals_seen) {
      if (signals_seen == 0 && sigs >= 1) {
        std::fprintf(stderr,
                     "earthred: draining fleet, shards first (signal "
                     "again to force)\n");
        router.drain_fleet();
      }
      if (sigs >= 2 && !forced) {
        forced = true;
        std::fprintf(stderr, "earthred: forced shutdown\n");
        router.request_abort();
      }
      signals_seen = sigs;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  router.wait();

  const std::vector<shard::ShardSnapshot> shards = router.pool().snapshot();
  Table st("shard stats");
  st.set_header({"shard", "forwards", "done", "rejected", "rerouted",
                 "failovers", "busy", "brk-skip", "breaker", "p50 ms",
                 "p95 ms", "p99 ms"});
  for (const shard::ShardSnapshot& s : shards) {
    st.add_row({s.name, fmt_group(static_cast<long long>(s.forwards)),
                fmt_group(static_cast<long long>(s.done)),
                fmt_group(static_cast<long long>(s.rejected)),
                fmt_group(static_cast<long long>(s.rerouted_in)),
                fmt_group(static_cast<long long>(s.failovers)),
                fmt_group(static_cast<long long>(s.busy_shed)),
                fmt_group(static_cast<long long>(s.breaker_skips)),
                net::to_string(s.breaker), fmt_f(s.p50_ms, 2),
                fmt_f(s.p95_ms, 2), fmt_f(s.p99_ms, 2)});
  }
  st.print(std::cout);

  const shard::RouterStats rs = router.stats();
  Table t("router transport");
  t.set_header({"counter", "value"});
  const auto row = [&t](const char* name, std::uint64_t v) {
    t.add_row({name, fmt_group(static_cast<long long>(v))});
  };
  row("connections accepted", rs.accepted);
  row("frames in", rs.frames_in);
  row("frames out", rs.frames_out);
  row("submits", rs.submits);
  row("results sent", rs.results_sent);
  row("submit rejects", rs.submit_rejects);
  row("rejects sent (all)", rs.rejects_sent);
  row("reroutes", rs.reroutes);
  row("bad frames", rs.bad_frames);
  row("shed (max-conns)", rs.shed_maxconn);
  row("shed (draining)", rs.shed_draining);
  row("drain frames", rs.drain_frames);
  t.print(std::cout);

  if (opt.has("json")) {
    for (const shard::ShardSnapshot& s : shards) {
      JsonWriter w;
      w.field("record", "shard_stats")
          .field("shard", s.name)
          .field("endpoint", s.endpoint)
          .field("forwards", s.forwards)
          .field("done", s.done)
          .field("rejected", s.rejected)
          .field("rerouted_in", s.rerouted_in)
          .field("failovers", s.failovers)
          .field("busy_shed", s.busy_shed)
          .field("breaker_skips", s.breaker_skips)
          .field("breaker", net::to_string(s.breaker))
          .field("breaker_opens", s.client.breaker_trips)
          .field("breaker_closes", s.client.breaker_closes)
          .field("reconnects", s.client.reconnects)
          .field("transport_failures", s.client.transport_failures)
          .field("backoff_sleeps", s.client.backoff_sleeps)
          .field("backoff_ms_total", s.client.backoff_ms_total)
          .field("latency_samples", s.latency_samples)
          .field("p50_ms", s.p50_ms)
          .field("p95_ms", s.p95_ms)
          .field("p99_ms", s.p99_ms);
      append_json_line(opt.get("json"), w.str());
    }
    JsonWriter w;
    w.field("record", "router_stats")
        .field("accepted", rs.accepted)
        .field("submits", rs.submits)
        .field("results_sent", rs.results_sent)
        .field("submit_rejects", rs.submit_rejects)
        .field("rejects_sent", rs.rejects_sent)
        .field("reroutes", rs.reroutes)
        .field("bad_frames", rs.bad_frames)
        .field("shed_maxconn", rs.shed_maxconn)
        .field("shed_draining", rs.shed_draining)
        .field("drain_frames", rs.drain_frames);
    append_json_line(opt.get("json"), w.str());
  }
  return forced ? 3 : 0;
}

int cmd_fleet(const Options& opt) {
  const std::string sub =
      opt.positional().empty() ? "" : opt.positional().front();
  if (sub != "status" && sub != "drain")
    throw check_error("fleet needs a subcommand: status|drain");

  // Target list: one router (--connect) or the shard endpoints directly.
  std::vector<shard::ShardEndpoint> targets;
  if (opt.has("connect")) {
    const net::ClientConfig cfg = client_config(opt);
    targets.push_back({cfg.host + ":" + std::to_string(cfg.port),
                       cfg.host, cfg.port});
  } else {
    const shard::ShardMap map = shard_map_from_options(opt);
    targets = map.shards();
  }

  Table t("fleet " + sub);
  t.set_header({"endpoint", "state", "queue", "in-flight", "completed",
                "rejected", "cache", "cache digest", "cache hits"});
  int bad = 0;
  for (const shard::ShardEndpoint& ep : targets) {
    net::ClientConfig cfg;
    cfg.host = ep.host;
    cfg.port = ep.port;
    cfg.request_timeout_ms =
        static_cast<int>(opt.get_int("timeout-ms", 10000));
    cfg.max_attempts =
        static_cast<std::uint32_t>(opt.get_int("retries", 1)) + 1;
    net::Client client(cfg);
    const net::Client::PingReply r =
        sub == "drain" ? client.drain() : client.ping();
    if (!r.ok()) {
      ++bad;
      t.add_row({ep.name, r.code + ": " + r.detail, "-", "-", "-", "-",
                 "-", "-", "-"});
      continue;
    }
    t.add_row(
        {ep.name, r.pong.draining ? "draining" : "up",
         fmt_group(static_cast<long long>(r.pong.queue_depth)),
         fmt_group(static_cast<long long>(r.pong.in_flight)),
         fmt_group(static_cast<long long>(r.pong.completed)),
         fmt_group(static_cast<long long>(r.pong.rejected)),
         fmt_group(static_cast<long long>(r.pong.cache_entries)),
         r.pong.cache_key_digest
             ? strformat("%016llx", static_cast<unsigned long long>(
                                        r.pong.cache_key_digest))
             : "-",
         fmt_group(static_cast<long long>(r.pong.cache_hits))});
  }
  t.print(std::cout);
  return bad == 0 ? 0 : 1;
}

int cmd_version() {
  std::printf("earthred (irregular-reduction service)\n");
  // The batch loops pick their tier from CPUID: AVX-512 when the host
  // reports AVX-512F (and the OS saves ZMM state), scalar otherwise.
  std::printf("batch loops: %s\n", kernels::ops::batch_tier());
  std::printf("hardware threads: %u\n", support::hardware_threads());
  std::printf("caches: %s\n",
              support::to_string(support::host_cache_info()).c_str());
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "version" || cmd == "--version") return cmd_version();
  const Options opt(argc - 1, argv + 1);
  if (cmd == "gen-mesh") return cmd_gen_mesh(opt);
  if (cmd == "gen-matrix") return cmd_gen_matrix(opt);
  if (cmd == "info") return cmd_info(opt);
  if (cmd == "run") return cmd_run(opt);
  if (cmd == "compile") return cmd_compile(opt);
  if (cmd == "check") return cmd_check(opt);
  if (cmd == "batch") return cmd_batch(opt);
  if (cmd == "serve") return cmd_serve(opt);
  if (cmd == "submit") return cmd_submit(opt);
  if (cmd == "ping") return cmd_ping(opt);
  if (cmd == "route") return cmd_route(opt);
  if (cmd == "fleet") return cmd_fleet(opt);
  if (cmd == "plan") return cmd_plan(opt);
  return usage();
}

}  // namespace
}  // namespace earthred

int main(int argc, char** argv) {
  try {
    return earthred::dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "earthred: %s\n", e.what());
    return 1;
  }
}
