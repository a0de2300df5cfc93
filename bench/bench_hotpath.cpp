// bench_hotpath: host-side hot-path profile of the native engine — the
// batched compute_phase executor against the per-edge virtual-dispatch
// fallback, and parallel against serial plan construction.
//
// Part 1 (executor): for each kernel (fig1, euler, moldyn), build one
// ExecutionPlan and run the same sweeps twice — once with
// SweepOptions::batch = false (per-edge compute_edge calls with a
// heap-backed `redirected` scatter copy) and once with batch = true (one
// compute_phase call per phase streaming the flattened indirection
// block, and one fused refresh_nodes pass per completed portion where
// the per-edge path copies, runs update_nodes and re-zeroes). Reports
// edges/second for both, the speedup, and each executor's node-read
// refresh summed over workers (NativeProfile refresh_s); also verifies
// the two executors produce bit-identical reduction and node-read arrays
// (the batch loops and the batched refresh perform the same FP
// operations in the same order as compute_edge and update_nodes).
//
// Part 2 (plan build): times build_execution_plan, which runs the
// processors on min(P, hardware threads) host threads at 2^18 edges or
// more, against the serial build assembled from its parts (distribute,
// reference gather, LightInspector, one processor after another) on a
// shuffled and a coherent euler mesh of 300K edges each. Each
// processor's run is independent, so the build should scale with P on a
// multi-core host, and the two plans must be bit-identical.
//
// Part 3 (plan verifier): times the unverified cold build, then the
// budget-mode structural invariant pass (inspector/plan_verifier.hpp)
// that PlanOptions::verify appends to it. The pass is budgeted at <5%
// of cold plan-build time — that is what lets CI leave it on for every
// Debug build. The pass must also come back clean on the built plan.
//
// Exit code: 0 when every kernel's executors agree bit-identically AND
// both builds of each Part 2 mesh agree bit-identically AND (full mode
// only) the best batched speedup reaches 2x on euler or moldyn AND (full
// mode only, with 2 or more hardware threads) the default build is no
// slower than the serial one on either Part 2 mesh AND (full mode only)
// the verifier overhead stays under 5%; nonzero otherwise. --small
// shrinks the Part 1 meshes and the reps for CI smoke runs and drops the
// throughput and build-time gates (shared runners are too noisy to gate
// on throughput) — bit-identity stays gated.
//
// Flags: --small, --procs=P (default 4), --k=K (default 2),
//        --sweeps=S, --reps=R, --json=<path> (JSONL records).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "inspector/distribution.hpp"
#include "inspector/light_inspector.hpp"
#include "inspector/plan_verifier.hpp"
#include "support/cpu_features.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "support/options.hpp"
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
};

std::vector<Workload> make_workloads(bool small) {
  std::vector<Workload> w;
  const auto add = [&](std::string name,
                       std::unique_ptr<const core::PhasedKernel> kernel) {
    Workload wl;
    wl.name = std::move(name);
    wl.num_edges = kernel->shape().num_edges;
    wl.kernel = std::move(kernel);
    w.push_back(std::move(wl));
  };
  add("fig1",
      std::make_unique<kernels::Fig1Kernel>(
          kernels::Fig1Kernel::with_integer_values(mesh::make_geometric_mesh(
              small ? mesh::GeomMeshParams{1500, 9000, 11}
                    : mesh::GeomMeshParams{9428, 59863, 11}))));
  add("euler",
      std::make_unique<kernels::EulerKernel>(small ? mesh::euler_mesh_small()
                                                   : mesh::euler_mesh_large()));
  add("moldyn",
      std::make_unique<kernels::MoldynKernel>(small ? mesh::moldyn_small()
                                                    : mesh::moldyn_large()));
  return w;
}

bool same_arrays(const std::vector<std::vector<double>>& a,
                 const std::vector<std::vector<double>>& b) {
  return a == b;  // exact comparison: the executors must be bit-identical
}

/// The serial plan build assembled from its parts, one processor after
/// another: distribute the iterations, gather each processor's
/// references, run its LightInspector.
core::ExecutionPlan serial_reference_plan(const core::PhasedKernel& kernel,
                                          const core::PlanOptions& popt) {
  const core::KernelShape shape = kernel.shape();
  core::ExecutionPlan plan{shape, popt,
                           inspector::RotationSchedule(
                               shape.num_nodes, popt.num_procs, popt.k),
                           {}, 0.0, nullptr};
  auto owned = inspector::distribute_iterations(
      shape.num_edges, popt.num_procs, popt.distribution,
      popt.block_cyclic_size);
  for (std::uint32_t p = 0; p < popt.num_procs; ++p) {
    inspector::IterationRefs iters;
    iters.global_iter = std::move(owned[p]);
    iters.refs.resize(shape.num_refs);
    for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
      iters.refs[r].reserve(iters.global_iter.size());
      for (const std::uint32_t e : iters.global_iter)
        iters.refs[r].push_back(kernel.ref(r, e));
    }
    plan.insp.push_back(
        inspector::run_light_inspector(plan.sched, p, iters, popt.inspector));
  }
  return plan;
}

/// Best-of-reps wall seconds for one executor mode; `refresh_s` gets the
/// best run's refresh seconds summed over workers.
double best_run(const core::PhasedKernel& kernel,
                const core::ExecutionPlan& plan, core::SweepOptions sopt,
                std::uint32_t reps, core::NativeResult* out,
                double* refresh_s) {
  double best = 0.0;
  for (std::uint32_t r = 0; r < reps; ++r) {
    core::NativeResult res = core::run_native_plan(kernel, plan, sopt);
    if (r == 0 || res.wall_seconds < best) {
      best = res.wall_seconds;
      *refresh_s = 0.0;
      for (const core::WorkerStages& w : res.profile.workers)
        *refresh_s += w.refresh_s;
    }
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
                "speedup", "per-edge refresh ms", "batched refresh ms",
                "bit-identical"});

  bool all_identical = true;
  double best_speedup = 0.0;
  std::vector<std::string> exec_json;
  for (const Workload& w : workloads) {
    core::PlanOptions popt;
    popt.num_procs = procs;
    popt.k = k;
    const core::ExecutionPlan plan =
        core::build_execution_plan(*w.kernel, popt);

    core::SweepOptions sopt;
    sopt.sweeps = sweeps;

    core::NativeResult edge_res, batch_res;
    double edge_refresh_s = 0.0, batch_refresh_s = 0.0;
    sopt.batch = false;
    const double edge_s =
        best_run(*w.kernel, plan, sopt, reps, &edge_res, &edge_refresh_s);
    sopt.batch = true;
    const double batch_s =
        best_run(*w.kernel, plan, sopt, reps, &batch_res, &batch_refresh_s);

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
               fmt_f(speedup, 2) + "x", fmt_f(edge_refresh_s * 1e3, 3),
               fmt_f(batch_refresh_s * 1e3, 3), identical ? "yes" : "NO"});

    JsonWriter jw;
    jw.field("kernel", w.name)
        .field("edges", w.num_edges)
        .field("per_edge_seconds", edge_s)
        .field("batched_seconds", batch_s)
        .field("per_edge_edges_per_s", edge_rate)
        .field("batched_edges_per_s", batch_rate)
        .field("speedup", speedup)
        .field("per_edge_refresh_seconds", edge_refresh_s)
        .field("batched_refresh_seconds", batch_refresh_s)
        .field("bit_identical", identical);
    exec_json.push_back(jw.str());
  }
  t.print(std::cout);

  // ---- Part 2: default (parallel) vs serial plan build ----------------
  const unsigned hw = support::hardware_threads();
  core::PlanOptions popt;
  popt.num_procs = procs;
  popt.k = k;
  popt.verify = false;  // Debug builds verify; keep both sides equal
  const mesh::Mesh coherent = mesh::make_geometric_mesh({40000, 300000, 23});
  struct BuildCase {
    std::string name;
    kernels::EulerKernel kernel;
  };
  const BuildCase build_cases[] = {
      {"euler shuffled",
       kernels::EulerKernel(mesh::shuffle_nodes(coherent, 29))},
      {"euler coherent", kernels::EulerKernel(coherent)}};

  // A build takes tens of milliseconds, and a parallel one suffers most
  // from a busy neighbour, so the gate takes the best of more reps.
  const std::uint32_t build_reps = 3 * reps;
  Table bt("plan build: default vs serial (P=" + std::to_string(procs) +
           ", k=" + std::to_string(k) + ", " + std::to_string(hw) +
           " hardware threads, best of " + std::to_string(build_reps) + ")");
  bt.set_header({"mesh", "edges", "serial ms", "default ms", "speedup",
                 "bit-identical"});
  bool builds_identical = true;
  bool builds_not_slower = true;
  std::vector<std::string> build_json;
  for (const BuildCase& bc : build_cases) {
    double serial_s = 0.0, parallel_s = 0.0;
    bool identical = true;
    for (std::uint32_t r = 0; r < build_reps; ++r) {
      auto t0 = Clock::now();
      const core::ExecutionPlan serial =
          serial_reference_plan(bc.kernel, popt);
      const double s_serial = seconds_since(t0);
      t0 = Clock::now();
      const core::ExecutionPlan parallel =
          core::build_execution_plan(bc.kernel, popt);
      const double s_parallel = seconds_since(t0);
      if (r == 0) identical = core::plans_bit_identical(serial, parallel);
      if (r == 0 || s_serial < serial_s) serial_s = s_serial;
      if (r == 0 || s_parallel < parallel_s) parallel_s = s_parallel;
    }
    const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
    builds_identical = builds_identical && identical;
    builds_not_slower = builds_not_slower && parallel_s <= serial_s;
    bt.add_row({bc.name, std::to_string(bc.kernel.shape().num_edges),
                fmt_f(serial_s * 1e3, 3), fmt_f(parallel_s * 1e3, 3),
                fmt_f(speedup, 2) + "x", identical ? "yes" : "NO"});
    JsonWriter jw;
    jw.field("mesh", bc.name)
        .field("edges", bc.kernel.shape().num_edges)
        .field("serial_seconds", serial_s)
        .field("default_seconds", parallel_s)
        .field("speedup", speedup)
        .field("bit_identical", identical);
    build_json.push_back(jw.str());
  }
  bt.print(std::cout);
  const bool build_gated = !small && hw >= 2;
  const bool build_ok = builds_identical && (!build_gated || builds_not_slower);
  std::printf("default plan build bit-identical to serial: %s; no slower "
              "than serial: %s %s\n",
              builds_identical ? "yes" : "NO",
              builds_not_slower ? "yes" : "no",
              small ? "(smoke mode: not gated)"
                    : hw < 2 ? "(1 hardware thread: not gated)"
                             : (builds_not_slower ? "(PASS)" : "(FAIL)"));

  // ---- Part 3: plan-verifier overhead on a cold build -----------------
  // euler-large is below the 2^18-edge parallel threshold, so the build
  // runs serially and the verifier pass is measured against a
  // deterministic baseline rather than a thread-pool race.
  // PlanOptions::verify adds exactly one budget-mode verify_plan call to
  // the build, so the overhead is that call's cost over the unverified
  // build — timing the pass directly instead of differencing two noisy
  // multi-millisecond builds keeps the gate stable on shared runners.
  const Workload& build_wl = workloads[1];  // euler: the largest inspector
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
        .raw_field("plan_builds", json_array(build_json))
        .field("verify_off_build_seconds", unverified_s)
        .field("verify_pass_seconds", verify_s)
        .field("verify_overhead_fraction", verify_overhead)
        .field("bit_identical", all_identical)
        .field("best_batched_speedup", best_speedup);
    append_json_line(opt.get("json"), w.str());
    std::printf("appended JSON record to %s\n", opt.get("json").c_str());
  }
  return all_identical && speedup_ok && build_ok && verify_ok ? 0 : 1;
}

}  // namespace
}  // namespace earthred

int main(int argc, char** argv) {
  const earthred::Options opt(argc, argv);
  return earthred::run(opt);
}
