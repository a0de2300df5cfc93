// bench_hotpath: host-side hot-path profile of the native engine — the
// batched compute_phase executor against the per-edge virtual-dispatch
// fallback, and parallel against serial plan construction.
//
// Part 1 (executor): for each kernel (fig1, euler, moldyn), build one
// ExecutionPlan and run the same sweeps twice — once with
// SweepOptions::batch = false (per-edge compute_edge calls with a
// heap-backed `redirected` scatter copy) and once with batch = true (one
// compute_phase call per phase streaming the flattened indirection
// block). Reports edges/second for both and the speedup; also verifies
// the two executors produce bit-identical reduction and node-read arrays
// (the batch path performs the same FP operations in the same order).
//
// Part 2 (plan build): times build_execution_plan at build_threads = 1
// (serial, the pre-batching behavior) and build_threads = 0 (one task
// per hardware core). Each processor's reference gather + LightInspector
// run is independent, so the build should scale near-linearly in P on a
// multi-core host (on a single-core container both modes tie).
//
// Part 3 (plan verifier): times the unverified cold build, then the
// budget-mode structural invariant pass (inspector/plan_verifier.hpp)
// that PlanOptions::verify appends to it. The pass is budgeted at <5%
// of cold plan-build time — that is what lets CI leave it on for every
// Debug build. The pass must also come back clean on the built plan.
//
// Part 1c (lowering strategies): reruns the batched path once per
// lowering strategy (phased rotation and privatized replicas) on
// per-strategy plans (the strategy is a plan knob — it forks the plan
// key). Privatized must agree with phased bit-for-bit on the
// integer-valued fig1 kernel (exact sums commute) and to 1e-9 relative
// tolerance on the FP kernels (the two strategies legally differ in
// summation association). In full mode the cost model's Auto pick
// must land within 10% of the best measured strategy (>= 0.9x) on every
// bench mesh — the gate that keeps the model honest against the
// hardware. --strategy-json=<path> appends the comparison as a JSONL
// record (BENCH_strategy.json in the repo).
//
// Part 1d (data layout): builds a layout=none and a layout=auto plan for
// euler on a large *shuffled* geometric mesh (node ids carry no locality
// — the worst case the layout pass exists for) and runs the batched path
// on both. The layout knob forks the plan, never the answer: the rcm
// plan must be bit-identical to layout=none (same FP operations at
// relabeled addresses — gated always), and in full mode the localized
// gathers + sequential scatters + cache-blocked tiles must buy >= 1.2x
// batched edges/s over layout=none on the DRAM-resident mesh.
// --layout-json=<path> appends the comparison as a JSONL record
// (BENCH_layout.json in the repo).
//
// Exit code: 0 when every kernel's executors agree bit-identically AND
// every strategy agrees within its contract AND the layout=auto results
// are bit-identical to layout=none AND (full mode only) the best batched
// speedup reaches 2x on euler or moldyn AND (full mode only) the Auto
// strategy pick stays
// >= 0.9x of the best measured strategy AND (full mode only) the
// layout=auto plan reaches 1.2x of layout=none on the shuffled mesh AND
// (full mode only) the verifier overhead stays under 5%; nonzero
// otherwise. --small shrinks meshes/reps for CI smoke runs and drops the
// throughput gates (shared runners are too noisy to gate on throughput)
// — bit-identity stays gated.
//
// Flags: --small, --procs=P (default 4), --k=K (default 2),
//        --sweeps=S, --reps=R, --json=<path> (JSONL records),
//        --strategy-json=<path> (strategy-comparison JSONL record),
//        --layout-json=<path> (layout-comparison JSONL record).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/native_engine.hpp"
#include "core/strategy.hpp"
#include "support/cpu_features.hpp"
#include "inspector/plan_verifier.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "support/options.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"

namespace earthred {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  std::string name;
  std::unique_ptr<const core::PhasedKernel> kernel;
  std::uint64_t num_edges = 0;
  /// Integer-valued sums (fig1): every strategy's result is exact, so
  /// phased and privatized must agree bit-for-bit despite reassociating.
  bool exact_sums = false;
};

std::vector<Workload> make_workloads(bool small) {
  std::vector<Workload> w;
  const auto add = [&](std::string name,
                       std::unique_ptr<const core::PhasedKernel> kernel,
                       bool exact_sums) {
    Workload wl;
    wl.name = std::move(name);
    wl.num_edges = kernel->shape().num_edges;
    wl.kernel = std::move(kernel);
    wl.exact_sums = exact_sums;
    w.push_back(std::move(wl));
  };
  add("fig1",
      std::make_unique<kernels::Fig1Kernel>(
          kernels::Fig1Kernel::with_integer_values(mesh::make_geometric_mesh(
              small ? mesh::GeomMeshParams{1500, 9000, 11}
                    : mesh::GeomMeshParams{9428, 59863, 11}))),
      /*exact_sums=*/true);
  add("euler",
      std::make_unique<kernels::EulerKernel>(small ? mesh::euler_mesh_small()
                                                   : mesh::euler_mesh_large()),
      /*exact_sums=*/false);
  add("moldyn",
      std::make_unique<kernels::MoldynKernel>(small ? mesh::moldyn_small()
                                                    : mesh::moldyn_large()),
      /*exact_sums=*/false);
  return w;
}

/// |a-b| <= tol * max(1, |a|, |b|) element-wise — the contract for
/// strategies that legally reassociate FP sums.
bool near_arrays(const std::vector<std::vector<double>>& a,
                 const std::vector<std::vector<double>>& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      const double mag =
          std::max({1.0, std::abs(a[i][j]), std::abs(b[i][j])});
      if (std::abs(a[i][j] - b[i][j]) > tol * mag) return false;
    }
  }
  return true;
}

bool same_arrays(const std::vector<std::vector<double>>& a,
                 const std::vector<std::vector<double>>& b) {
  return a == b;  // exact comparison: the executors must be bit-identical
}

/// Best-of-reps wall seconds for one executor mode.
double best_run(const core::PhasedKernel& kernel,
                const core::ExecutionPlan& plan, core::SweepOptions sopt,
                std::uint32_t reps, core::NativeResult* out) {
  double best = 0.0;
  for (std::uint32_t r = 0; r < reps; ++r) {
    core::NativeResult res = core::run_native_plan(kernel, plan, sopt);
    if (r == 0 || res.wall_seconds < best) best = res.wall_seconds;
    if (out && r == 0) *out = std::move(res);
  }
  return best;
}

int run(const Options& opt) {
  const bool small = opt.get_bool("small", false);
  const auto procs =
      static_cast<std::uint32_t>(opt.get_int("procs", 4));
  const auto k = static_cast<std::uint32_t>(opt.get_int("k", 2));
  const auto sweeps = static_cast<std::uint32_t>(
      opt.get_int("sweeps", small ? 2 : 10));
  const auto reps =
      static_cast<std::uint32_t>(opt.get_int("reps", small ? 2 : 5));

  const std::vector<Workload> workloads = make_workloads(small);

  // ---- Part 1: per-edge vs batched executor ---------------------------
  Table t("native sweep hot path: per-edge vs batched executor (P=" +
          std::to_string(procs) + ", k=" + std::to_string(k) +
          ", sweeps=" + std::to_string(sweeps) + ", best of " +
          std::to_string(reps) + ")");
  t.set_header({"kernel", "edges", "per-edge Medges/s", "batched Medges/s",
                "speedup", "bit-identical"});

  bool all_identical = true;
  double best_speedup = 0.0;
  std::vector<std::string> exec_json;
  for (const Workload& w : workloads) {
    core::PlanOptions popt;
    popt.num_procs = procs;
    popt.k = k;
    // Part 1 profiles (and bit-identity-gates) the phased hot path; pin
    // the strategy so EARTHRED_FORCE_STRATEGY (the CI strategy-matrix)
    // cannot reroute it. Part 1c measures the other strategy explicitly.
    popt.strategy = core::StrategyKind::Phased;
    const core::ExecutionPlan plan =
        core::build_execution_plan(*w.kernel, popt);

    core::SweepOptions sopt;
    sopt.sweeps = sweeps;

    core::NativeResult edge_res, batch_res;
    sopt.batch = false;
    const double edge_s = best_run(*w.kernel, plan, sopt, reps, &edge_res);
    sopt.batch = true;
    const double batch_s = best_run(*w.kernel, plan, sopt, reps, &batch_res);

    const bool identical =
        same_arrays(edge_res.reduction, batch_res.reduction) &&
        same_arrays(edge_res.node_read, batch_res.node_read);
    all_identical = all_identical && identical;

    const double total_edges =
        static_cast<double>(w.num_edges) * static_cast<double>(sweeps);
    const double edge_rate = edge_s > 0 ? total_edges / edge_s : 0.0;
    const double batch_rate = batch_s > 0 ? total_edges / batch_s : 0.0;
    const double speedup = edge_s > 0 && batch_s > 0 ? edge_s / batch_s : 0.0;
    if (w.name != "fig1")  // the gate applies to euler/moldyn (criterion)
      best_speedup = std::max(best_speedup, speedup);

    t.add_row({w.name, std::to_string(w.num_edges),
               fmt_f(edge_rate / 1e6, 2), fmt_f(batch_rate / 1e6, 2),
               fmt_f(speedup, 2) + "x", identical ? "yes" : "NO"});

    JsonWriter jw;
    jw.field("kernel", w.name)
        .field("edges", w.num_edges)
        .field("per_edge_seconds", edge_s)
        .field("batched_seconds", batch_s)
        .field("per_edge_edges_per_s", edge_rate)
        .field("batched_edges_per_s", batch_rate)
        .field("speedup", speedup)
        .field("bit_identical", identical);
    exec_json.push_back(jw.str());
  }
  t.print(std::cout);

  // ---- Part 1c: lowering strategies on the batched path ---------------
  // The strategy is a plan knob (it forks the plan key), so each strategy
  // gets its own plan build. Phased is the reference; privatized must
  // match it exactly on the integer fig1 kernel and to 1e-9 relative
  // tolerance on the FP kernels. The Auto pick is
  // resolved through the same cost model the compiler pass and the
  // runtime use, and in full mode its measured rate must stay >= 0.9x of
  // the best measured strategy on every mesh.
  const core::StrategyKind strat_kinds[2] = {core::StrategyKind::Phased,
                                             core::StrategyKind::Privatized};

  Table st("lowering strategies: batched path per strategy (P=" +
           std::to_string(procs) + ", k=" + std::to_string(k) + ")");
  st.set_header({"kernel", "phased Medges/s", "privatized", "auto pick",
                 "auto/best", "agree"});
  bool strategies_agree = true;
  double worst_auto_ratio = 1.0;
  std::vector<std::string> strategy_json;
  for (const Workload& w : workloads) {
    const double total_edges =
        static_cast<double>(w.num_edges) * static_cast<double>(sweeps);
    core::SweepOptions sopt;
    sopt.sweeps = sweeps;
    sopt.batch = true;

    core::NativeResult phased_res;
    double rate[2] = {0.0, 0.0};
    bool agree = true;
    for (std::size_t i = 0; i < 2; ++i) {
      core::PlanOptions spopt;
      spopt.num_procs = procs;
      spopt.k = k;
      spopt.strategy = strat_kinds[i];
      const core::ExecutionPlan plan =
          core::build_execution_plan(*w.kernel, spopt);
      core::NativeResult res;
      const double s = best_run(*w.kernel, plan, sopt, reps, &res);
      rate[i] = s > 0.0 ? total_edges / s : 0.0;
      if (strat_kinds[i] == core::StrategyKind::Phased) {
        phased_res = std::move(res);
        continue;
      }
      const bool match =
          w.exact_sums
              ? same_arrays(res.reduction, phased_res.reduction) &&
                    same_arrays(res.node_read, phased_res.node_read)
              : near_arrays(res.reduction, phased_res.reduction, 1e-9) &&
                    near_arrays(res.node_read, phased_res.node_read, 1e-9);
      agree = agree && match;
    }
    strategies_agree = strategies_agree && agree;

    const core::StrategyKind auto_pick = core::resolve_strategy(
        core::StrategyKind::Auto,
        core::strategy_inputs(w.kernel->shape(), procs, k));
    double best_rate = 0.0, auto_rate = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
      best_rate = std::max(best_rate, rate[i]);
      if (strat_kinds[i] == auto_pick) auto_rate = rate[i];
    }
    const double auto_ratio = best_rate > 0.0 ? auto_rate / best_rate : 0.0;
    worst_auto_ratio = std::min(worst_auto_ratio, auto_ratio);

    st.add_row({w.name, fmt_f(rate[0] / 1e6, 2), fmt_f(rate[1] / 1e6, 2),
                std::string(core::to_string(auto_pick)),
                fmt_f(auto_ratio, 2) + "x", agree ? "yes" : "NO"});

    JsonWriter jw;
    jw.field("kernel", w.name)
        .field("edges", w.num_edges)
        .field("exact_sums", w.exact_sums)
        .field("phased_edges_per_s", rate[0])
        .field("privatized_edges_per_s", rate[1])
        .field("auto_pick", std::string(core::to_string(auto_pick)))
        .field("auto_over_best", auto_ratio)
        .field("agree", agree);
    strategy_json.push_back(jw.str());
  }
  st.print(std::cout);

  // ---- Part 1d: data-layout pass on the batched path ------------------
  // A dedicated workload: euler on a large geometric mesh whose node ids
  // are shuffled, so neither gathers nor scatters carry any incidental
  // locality. The paper-faithful layout=none plan walks that randomness;
  // layout=auto renumbers (portion-preserving RCM), reorders each phase
  // target-stable, and tiles — and must produce bit-identical results,
  // because every transformation is an FP-order-preserving isomorphism.
  // Full-mode sizing: the gather-reachable node data must overflow the
  // LLC (the bench host's is 260 MiB), or "DRAM-resident" silently means
  // "LLC-resident" and the measured win shrinks to the L2-vs-LLC gap.
  // --layout-nodes / --layout-edges override for probing other regimes.
  const auto lay_nodes = static_cast<std::uint32_t>(
      opt.get_int("layout-nodes", small ? 20000 : 6000000));
  const auto lay_edges_req = static_cast<std::uint64_t>(
      opt.get_int("layout-edges", small ? 80000 : 24000000));
  const mesh::GeomMeshParams lay_params = {lay_nodes, lay_edges_req, 33};
  mesh::Mesh lay_mesh = mesh::make_geometric_mesh(lay_params);
  {
    std::vector<std::uint32_t> shuffle(lay_mesh.num_nodes);
    std::iota(shuffle.begin(), shuffle.end(), 0u);
    Xoshiro256 rng(20260808);
    for (std::uint32_t i = lay_mesh.num_nodes; i > 1; --i)
      std::swap(shuffle[i - 1], shuffle[rng.below(i)]);
    lay_mesh = mesh::renumber(lay_mesh, shuffle);
  }
  const std::uint64_t lay_edges = lay_mesh.num_edges();
  const kernels::EulerKernel lay_kernel(std::move(lay_mesh));
  const double lay_total_edges =
      static_cast<double>(lay_edges) * static_cast<double>(sweeps);

  const core::LayoutKind lay_kinds[2] = {core::LayoutKind::None,
                                         core::LayoutKind::Auto};
  double lay_s[2] = {0.0, 0.0};
  core::NativeResult lay_res[2];
  core::LayoutKind lay_applied[2] = {core::LayoutKind::None,
                                     core::LayoutKind::None};
  std::uint32_t lay_tiles[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    core::PlanOptions lpopt;
    lpopt.num_procs = procs;
    lpopt.k = k;
    lpopt.strategy = core::StrategyKind::Phased;  // see Part 1 comment
    lpopt.layout = lay_kinds[i];
    const core::ExecutionPlan plan =
        core::build_execution_plan(lay_kernel, lpopt);
    lay_applied[i] = plan.applied_layout;
    lay_tiles[i] = plan.tile_iters;
    core::SweepOptions lsopt;
    lsopt.sweeps = sweeps;
    lsopt.batch = true;
    lay_s[i] = best_run(lay_kernel, plan, lsopt, reps, &lay_res[i]);
  }
  const bool layout_identical =
      same_arrays(lay_res[0].reduction, lay_res[1].reduction) &&
      same_arrays(lay_res[0].node_read, lay_res[1].node_read);
  const double lay_none_rate =
      lay_s[0] > 0 ? lay_total_edges / lay_s[0] : 0.0;
  const double lay_auto_rate =
      lay_s[1] > 0 ? lay_total_edges / lay_s[1] : 0.0;
  const double layout_speedup =
      lay_s[0] > 0 && lay_s[1] > 0 ? lay_s[0] / lay_s[1] : 0.0;

  Table lt("data layout: batched path on a shuffled euler mesh (" +
           std::to_string(lay_edges) + " edges, P=" + std::to_string(procs) +
           ", k=" + std::to_string(k) + ")");
  lt.set_header({"layout", "applied", "tile iters", "batched Medges/s",
                 "speedup", "bit-identical"});
  lt.add_row({"none", std::string(core::to_string(lay_applied[0])),
              lay_tiles[0] ? std::to_string(lay_tiles[0]) : "-",
              fmt_f(lay_none_rate / 1e6, 2), "1.00x", "-"});
  lt.add_row({"auto", std::string(core::to_string(lay_applied[1])),
              lay_tiles[1] ? std::to_string(lay_tiles[1]) : "-",
              fmt_f(lay_auto_rate / 1e6, 2), fmt_f(layout_speedup, 2) + "x",
              layout_identical ? "yes" : "NO"});
  lt.print(std::cout);

  // ---- Part 2: serial vs parallel plan build --------------------------
  const unsigned hw = support::hardware_threads();
  const Workload& build_wl = workloads[1];  // euler: the largest inspector
  core::PlanOptions popt;
  popt.num_procs = procs;
  popt.k = k;

  const auto time_build = [&](std::uint32_t threads) {
    popt.build_threads = threads;
    double best = 0.0;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      const core::ExecutionPlan plan =
          core::build_execution_plan(*build_wl.kernel, popt);
      const double s = seconds_since(t0);
      (void)plan;
      if (r == 0 || s < best) best = s;
    }
    return best;
  };
  const double serial_s = time_build(1);
  const double parallel_s = time_build(0);
  const double build_speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;

  Table bt("plan build: serial vs parallel (" + build_wl.name + ", P=" +
           std::to_string(procs) + ", " + std::to_string(hw) +
           " hardware threads)");
  bt.set_header({"mode", "build ms", "speedup"});
  bt.add_row({"serial (build_threads=1)", fmt_f(serial_s * 1e3, 3), "1.00x"});
  bt.add_row({"parallel (build_threads=0)", fmt_f(parallel_s * 1e3, 3),
              fmt_f(build_speedup, 2) + "x"});
  bt.print(std::cout);

  // ---- Part 3: plan-verifier overhead on a cold build -----------------
  // Serial build (build_threads=1) so the verifier pass is measured
  // against a deterministic baseline rather than a thread-pool race.
  // PlanOptions::verify adds exactly one budget-mode verify_plan call to
  // the build, so the overhead is that call's cost over the unverified
  // build — timing the pass directly instead of differencing two noisy
  // multi-millisecond builds keeps the gate stable on shared runners.
  popt.build_threads = 1;
  popt.verify = false;
  double unverified_s = 0.0;
  for (std::uint32_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const core::ExecutionPlan plan =
        core::build_execution_plan(*build_wl.kernel, popt);
    const double s = seconds_since(t0);
    (void)plan;
    if (r == 0 || s < unverified_s) unverified_s = s;
  }
  const core::ExecutionPlan vplan =
      core::build_execution_plan(*build_wl.kernel, popt);
  inspector::PlanVerifyOptions vopt;
  vopt.exhaustive = false;  // what PlanOptions::verify runs in the build
  double verify_s = 0.0;
  bool verify_clean = true;
  for (std::uint32_t r = 0; r < std::max(reps, 3u); ++r) {
    const auto t0 = Clock::now();
    const inspector::PlanVerifyReport vrep = inspector::verify_plan(
        vplan.sched, vplan.insp, vplan.shape.num_edges, vplan.shape.num_refs,
        vopt);
    const double s = seconds_since(t0);
    verify_clean = verify_clean && vrep.ok();
    if (r == 0 || s < verify_s) verify_s = s;
  }
  const double verify_overhead =
      unverified_s > 0 ? verify_s / unverified_s : 0.0;

  Table vt("plan verifier: cold-build overhead (" + build_wl.name +
           ", P=" + std::to_string(procs) + ", k=" + std::to_string(k) +
           ", best of " + std::to_string(reps) + ")");
  vt.set_header({"pass", "ms", "overhead"});
  vt.add_row({"cold build (verify=off)", fmt_f(unverified_s * 1e3, 3), "-"});
  vt.add_row({"verify pass (budget mode)", fmt_f(verify_s * 1e3, 3),
              fmt_f(verify_overhead * 100.0, 2) + "%"});
  vt.print(std::cout);

  const bool verify_ok = verify_clean && (small || verify_overhead < 0.05);
  std::printf("plan verifier overhead %.2f%% of cold build, report %s %s\n",
              verify_overhead * 100.0, verify_clean ? "clean" : "NOT CLEAN",
              small ? "(smoke mode: overhead not gated)"
                    : (verify_ok ? "(< 5%: PASS)" : "(>= 5%: FAIL)"));

  const bool speedup_ok = small || best_speedup >= 2.0;
  std::printf(
      "batched executor bit-identical to per-edge: %s; best euler/moldyn "
      "speedup %.2fx %s\n",
      all_identical ? "yes" : "NO",
      best_speedup,
      small ? "(smoke mode: not gated)"
            : (speedup_ok ? "(>= 2x: PASS)" : "(< 2x: FAIL)"));

  // Strategy gate: agreement (exact or tolerance per contract) is gated
  // always; the Auto pick must reach 0.9x of the best measured strategy
  // in full mode. 0.9x rather than 1.0x because the model prices memory
  // traffic and synchronization, not cache residency — a 10% band keeps
  // the gate meaningful without chasing run-to-run noise.
  const bool strategy_auto_ok = small || worst_auto_ratio >= 0.9;
  std::printf(
      "strategies agree within contract: %s; worst auto/best ratio "
      "%.2fx %s\n",
      strategies_agree ? "yes" : "NO", worst_auto_ratio,
      small ? "(smoke mode: not gated)"
            : (strategy_auto_ok ? "(>= 0.9x: PASS)" : "(< 0.9x: FAIL)"));

  // Layout gate: bit-identity to layout=none is gated always (the whole
  // design rests on the pass being an FP-order-preserving isomorphism);
  // the 1.2x throughput floor applies in full mode on the shuffled
  // DRAM-resident mesh, where localized gathers and sequential scatters
  // are exactly what the pass sells.
  const bool layout_speedup_ok = small || layout_speedup >= 1.2;
  std::printf(
      "layout=auto bit-identical to layout=none: %s; shuffled-mesh "
      "speedup %.2fx %s\n",
      layout_identical ? "yes" : "NO", layout_speedup,
      small ? "(smoke mode: not gated)"
            : (layout_speedup_ok ? "(>= 1.2x: PASS)" : "(< 1.2x: FAIL)"));

  if (opt.has("strategy-json")) {
    JsonWriter w;
    w.field("bench", "strategy")
        .field("small", small)
        .field("procs", static_cast<std::uint64_t>(procs))
        .field("k", static_cast<std::uint64_t>(k))
        .field("sweeps", static_cast<std::uint64_t>(sweeps))
        .field("reps", static_cast<std::uint64_t>(reps))
        .field("hardware_threads", static_cast<std::uint64_t>(hw))
        .raw_field("kernels", json_array(strategy_json))
        .field("agree", strategies_agree)
        .field("worst_auto_over_best", worst_auto_ratio);
    append_json_line(opt.get("strategy-json"), w.str());
    std::printf("appended strategy JSON record to %s\n",
                opt.get("strategy-json").c_str());
  }

  if (opt.has("layout-json")) {
    JsonWriter w;
    w.field("bench", "layout")
        .field("small", small)
        .field("procs", static_cast<std::uint64_t>(procs))
        .field("k", static_cast<std::uint64_t>(k))
        .field("sweeps", static_cast<std::uint64_t>(sweeps))
        .field("reps", static_cast<std::uint64_t>(reps))
        .field("kernel", "euler")
        .field("edges", lay_edges)
        .field("nodes", static_cast<std::uint64_t>(lay_params.num_nodes))
        .field("caches", support::to_string(support::host_cache_info()))
        .field("none_applied",
               std::string(core::to_string(lay_applied[0])))
        .field("auto_applied",
               std::string(core::to_string(lay_applied[1])))
        .field("tile_iters", static_cast<std::uint64_t>(lay_tiles[1]))
        .field("none_seconds", lay_s[0])
        .field("auto_seconds", lay_s[1])
        .field("none_edges_per_s", lay_none_rate)
        .field("auto_edges_per_s", lay_auto_rate)
        .field("speedup", layout_speedup)
        .field("bit_identical", layout_identical);
    append_json_line(opt.get("layout-json"), w.str());
    std::printf("appended layout JSON record to %s\n",
                opt.get("layout-json").c_str());
  }

  if (opt.has("json")) {
    JsonWriter w;
    w.field("bench", "hotpath")
        .field("small", small)
        .field("procs", static_cast<std::uint64_t>(procs))
        .field("k", static_cast<std::uint64_t>(k))
        .field("sweeps", static_cast<std::uint64_t>(sweeps))
        .field("reps", static_cast<std::uint64_t>(reps))
        .field("hardware_threads", static_cast<std::uint64_t>(hw))
        .raw_field("executors", json_array(exec_json))
        .field("plan_build_serial_seconds", serial_s)
        .field("plan_build_parallel_seconds", parallel_s)
        .field("plan_build_speedup", build_speedup)
        .field("verify_off_build_seconds", unverified_s)
        .field("verify_pass_seconds", verify_s)
        .field("verify_overhead_fraction", verify_overhead)
        .field("bit_identical", all_identical)
        .field("best_batched_speedup", best_speedup);
    append_json_line(opt.get("json"), w.str());
    std::printf("appended JSON record to %s\n", opt.get("json").c_str());
  }
  return all_identical && speedup_ok && verify_ok && strategies_agree &&
                 strategy_auto_ok && layout_identical && layout_speedup_ok
             ? 0
             : 1;
}

}  // namespace
}  // namespace earthred

int main(int argc, char** argv) {
  const earthred::Options opt(argc, argv);
  return earthred::run(opt);
}
