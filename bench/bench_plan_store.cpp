// bench_plan_store: warm starts and incremental re-planning against the
// cold build — the two claims of the persistent plan store.
//
// For every kernel (fig1, euler, moldyn) x procs x k configuration:
//
//   cold     build_execution_plan from the kernel (distribution + full
//            LightInspector per processor), verification off so the
//            timing isolates the build itself.
//   warm     PlanStore::load of the persisted plan — header + checksum +
//            parse + budget-mode verifier, with every large array adopted
//            zero-copy from the file mapping. This is what a process
//            restart pays instead of `cold`.
//   patch    patch_execution_plan of the base plan for a small mutation
//            (16 rewired edges), i.e. the adaptive re-planning path; and
//   rebuild  build_execution_plan of the mutated kernel — what the patch
//            replaces.
//
// Correctness is gated in *every* mode: the loaded plan must be
// bit-identical to the cold build (plans_bit_identical), served zero-copy
// off the mapping, and the patched plan must be bit-identical to a fresh
// build of the mutated kernel AND pass the exhaustive plan verifier.
// Timing is gated in full mode only (--small drops the throughput gates
// for noisy CI runners): the warm load itself — the median load time per
// MB of plan file — within an absolute budget on every configuration with
// P <= hardware_threads, and incremental patch >= 2x faster than the
// rebuild. (The warm/cold ratio is still printed; it is not gated,
// because a faster cold build would fail it with no change to the load.)
//
// Flags: --small, --reps=R, --mutate=N (default 16),
//        --store=<dir> (default: a scratch dir under /tmp, removed on
//        exit), --json=<path> (one JSONL record per configuration plus a
//        summary record).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "inspector/plan_verifier.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "service/plan_cache.hpp"
#include "service/plan_store.hpp"
#include "support/cpu_features.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace earthred {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-reps wall time of `fn` (minimum filters scheduler noise).
/// Every sample is also appended to `samples` when given.
template <typename Fn>
double time_best(std::uint32_t reps, const Fn& fn,
                 std::vector<double>* samples = nullptr) {
  double best = 1e300;
  for (std::uint32_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    best = std::min(best, s);
    if (samples) samples->push_back(s);
  }
  return best;
}

/// Warm-load budget: median PlanStore::load milliseconds per MB of plan
/// file. Set from full-mode runs on a 4-vCPU AVX-512 host, where the worst
/// gated configuration measured 0.21-0.27 ms/MB over four runs (see
/// CHANGES.md); the budget leaves 3x for slower hosts and page-cache
/// misses.
constexpr double kWarmLoadBudgetMsPerMB = 0.8;

struct Workload {
  std::string name;
  mesh::Mesh mesh;
};

std::vector<Workload> make_workloads(bool small) {
  std::vector<Workload> w;
  w.push_back({"fig1", mesh::make_geometric_mesh(
                           small ? mesh::GeomMeshParams{1500, 9000, 11}
                                 : mesh::GeomMeshParams{9428, 59863, 11})});
  w.push_back({"euler", small ? mesh::euler_mesh_small()
                              : mesh::euler_mesh_large()});
  w.push_back({"moldyn", small ? mesh::moldyn_small() : mesh::moldyn_large()});
  return w;
}

std::unique_ptr<const core::PhasedKernel> kernel_for(const std::string& name,
                                                     mesh::Mesh m) {
  if (name == "fig1")
    return std::make_unique<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(std::move(m)));
  if (name == "euler")
    return std::make_unique<kernels::EulerKernel>(std::move(m));
  return std::make_unique<kernels::MoldynKernel>(std::move(m));
}

struct Measurement {
  std::string kernel;
  std::uint32_t procs = 0, k = 0;
  double cold_s = 0.0, warm_s = 0.0, patch_s = 0.0, rebuild_s = 0.0;
  std::uint64_t file_bytes = 0;
  /// Every warm-load sample across rounds (the gate takes their median).
  std::vector<double> warm_samples;
  bool zero_copy = false;
  bool load_identical = false;
  bool patch_identical = false;
  bool patch_verified = false;
  double load_ratio() const { return warm_s > 0 ? cold_s / warm_s : 0.0; }
  double warm_ms_per_mb() const {
    std::vector<double> v = warm_samples;
    if (v.empty() || file_bytes == 0) return 0.0;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2] * 1e3 / (static_cast<double>(file_bytes) / 1e6);
  }
  double patch_ratio() const {
    return patch_s > 0 ? rebuild_s / patch_s : 0.0;
  }
};

int run(const Options& opt) {
  const bool small = opt.get_bool("small", false);
  const auto reps =
      static_cast<std::uint32_t>(opt.get_int("reps", small ? 3 : 5));
  // Per-leg sample counts, scaled by how cheap the leg is: time_best
  // filters scheduler noise by taking the minimum, and on a busy host a
  // sub-millisecond load needs far more samples to reach its floor than
  // a multi-millisecond build does. --reps scales all three together.
  const std::uint32_t build_reps = reps * 2;
  const std::uint32_t load_reps = reps * 10;
  const std::uint32_t patch_reps = reps * 4;
  // Outer measurement rounds: one config's legs run back to back, so a
  // sustained contention burst (another tenant, a compiler job) poisons
  // every sample of that config no matter how many reps it takes. Whole
  // extra passes over the config matrix are separated by seconds, and
  // merging minima across rounds recovers the quiet-machine floor.
  const auto rounds = static_cast<std::uint32_t>(
      opt.get_int("rounds", small ? 2 : 3));
  const auto mutate =
      static_cast<std::uint64_t>(opt.get_int("mutate", 16));
  std::string store_dir = opt.get("store");
  const bool scratch = store_dir.empty();
  if (scratch)
    store_dir = (std::filesystem::temp_directory_path() /
                 "earthred-bench-planstore")
                    .string();

  const std::vector<std::uint32_t> procs_list =
      small ? std::vector<std::uint32_t>{4}
            : std::vector<std::uint32_t>{4, 8, 16};
  const std::vector<std::uint32_t> k_list =
      small ? std::vector<std::uint32_t>{2}
            : std::vector<std::uint32_t>{2, 4};

  std::filesystem::remove_all(store_dir);
  const service::PlanStore store(store_dir);
  std::vector<Measurement> results;
  bool all_correct = true;

  for (std::uint32_t round = 0; round < rounds; ++round) {
    std::size_t config_idx = 0;
    for (const Workload& wl : make_workloads(small)) {
      const std::unique_ptr<const core::PhasedKernel> kernel =
          kernel_for(wl.name, wl.mesh);
      const std::uint64_t fingerprint = service::kernel_fingerprint(*kernel);

      // The mutated twin for the patch leg: same mesh with `mutate` edges
      // rewired (the adaptive_moldyn neighbour-list drift in miniature).
      mesh::Mesh mutated_mesh = wl.mesh;
      const std::vector<std::uint32_t> changed =
          mesh::rewire_edges(mutated_mesh, mutate, /*seed=*/97);
      const std::unique_ptr<const core::PhasedKernel> mutated =
          kernel_for(wl.name, std::move(mutated_mesh));

      for (const std::uint32_t P : procs_list) {
        for (const std::uint32_t k : k_list) {
          core::PlanOptions popt;
          popt.num_procs = P;
          popt.k = k;
          popt.verify = false;  // timing isolates build/load/patch

          if (round == 0) {
            Measurement init;
            init.kernel = wl.name;
            init.procs = P;
            init.k = k;
            results.push_back(init);
          }
          Measurement& m = results[config_idx++];
          const auto merge = [round](double& best, double v) {
            best = round == 0 ? v : std::min(best, v);
          };

          const core::ExecutionPlan cold =
              core::build_execution_plan(*kernel, popt);
          merge(m.cold_s, time_best(build_reps, [&] {
                  (void)core::build_execution_plan(*kernel, popt);
                }));

          const service::PlanKey key =
              service::make_plan_key(*kernel, popt, fingerprint);
          std::string save_error;
          if (!store.save(key, cold, &save_error)) {
            std::fprintf(stderr, "plan save failed: %s\n",
                         save_error.c_str());
            return 1;
          }
          std::error_code ec;
          m.file_bytes = std::filesystem::file_size(store.path_for(key), ec);

          core::PlanLoadResult loaded = store.load(key);
          if (!loaded.ok()) {
            std::fprintf(stderr, "warm load rejected [%s]: %s\n",
                         loaded.error_code.c_str(), loaded.detail.c_str());
            return 1;
          }
          m.zero_copy = loaded.zero_copy && (round == 0 || m.zero_copy);
          m.load_identical = core::plans_bit_identical(*loaded.plan, cold) &&
                             (round == 0 || m.load_identical);
          merge(m.warm_s, time_best(
                              load_reps, [&] { (void)store.load(key); },
                              &m.warm_samples));

          const core::ExecutionPlan rebuilt =
              core::build_execution_plan(*mutated, popt);
          merge(m.rebuild_s, time_best(build_reps, [&] {
                  (void)core::build_execution_plan(*mutated, popt);
                }));
          const core::ExecutionPlan patched =
              core::patch_execution_plan(*mutated, cold, changed);
          merge(m.patch_s, time_best(patch_reps, [&] {
                  (void)core::patch_execution_plan(*mutated, cold, changed);
                }));
          m.patch_identical = core::plans_bit_identical(patched, rebuilt) &&
                              (round == 0 || m.patch_identical);

          inspector::PlanVerifyOptions vopt;
          vopt.exhaustive = true;
          m.patch_verified =
              inspector::verify_plan(patched.sched, patched.insp,
                                     patched.shape.num_edges,
                                     patched.shape.num_refs, vopt)
                  .ok() &&
              (round == 0 || m.patch_verified);

          all_correct = all_correct && m.zero_copy && m.load_identical &&
                        m.patch_identical && m.patch_verified;
        }
      }
    }
  }

  Table t("plan store: cold build vs warm load vs incremental patch (" +
          std::string(small ? "small" : "full") + ", " +
          std::to_string(mutate) + " edges mutated)");
  t.set_header({"kernel", "P", "k", "cold ms", "warm ms", "load x",
                "warm ms/MB", "rebuild ms", "patch ms", "patch x", "file KB",
                "checks"});
  const unsigned hw = support::hardware_threads();
  double worst_load = 1e300, worst_patch = 1e300, worst_warm = 0.0;
  for (const Measurement& m : results) {
    worst_load = std::min(worst_load, m.load_ratio());
    worst_patch = std::min(worst_patch, m.patch_ratio());
    if (m.procs <= hw) worst_warm = std::max(worst_warm, m.warm_ms_per_mb());
    const std::string checks =
        std::string(m.load_identical ? "" : " load!=cold") +
        (m.zero_copy ? "" : " copy") +
        (m.patch_identical ? "" : " patch!=rebuild") +
        (m.patch_verified ? "" : " verify");
    t.add_row({m.kernel, std::to_string(m.procs), std::to_string(m.k),
               fmt_f(m.cold_s * 1e3, 3), fmt_f(m.warm_s * 1e3, 3),
               fmt_f(m.load_ratio(), 1) + "x",
               fmt_f(m.warm_ms_per_mb(), 3) +
                   (m.procs <= hw ? "" : " (P > hw, not gated)"),
               fmt_f(m.rebuild_s * 1e3, 3), fmt_f(m.patch_s * 1e3, 3),
               fmt_f(m.patch_ratio(), 1) + "x",
               fmt_group(static_cast<long long>(m.file_bytes / 1024)),
               checks.empty() ? "ok" : checks});
  }
  t.print(std::cout);

  const bool load_gate = worst_warm <= kWarmLoadBudgetMsPerMB;
  const bool patch_gate = worst_patch >= 2.0;
  std::printf(
      "worst warm load %.3f ms/MB over configs with P <= %u hardware "
      "threads (gate <= %.2f: %s), worst warm-load speedup %.1fx (not "
      "gated), worst patch speedup %.1fx (gate >= 2x: %s), correctness "
      "%s\n",
      worst_warm, hw, kWarmLoadBudgetMsPerMB, load_gate ? "PASS" : "FAIL",
      worst_load, worst_patch, patch_gate ? "PASS" : "FAIL",
      all_correct ? "PASS" : "FAIL");

  if (opt.has("json")) {
    std::vector<std::string> rows;
    for (const Measurement& m : results) {
      JsonWriter w;
      w.field("kernel", m.kernel)
          .field("procs", m.procs)
          .field("k", m.k)
          .field("cold_build_seconds", m.cold_s)
          .field("warm_load_seconds", m.warm_s)
          .field("load_speedup", m.load_ratio())
          .field("warm_load_ms_per_mb", m.warm_ms_per_mb())
          .field("rebuild_seconds", m.rebuild_s)
          .field("patch_seconds", m.patch_s)
          .field("patch_speedup", m.patch_ratio())
          .field("file_bytes", m.file_bytes)
          .field("zero_copy", m.zero_copy)
          .field("load_bit_identical", m.load_identical)
          .field("patch_bit_identical", m.patch_identical)
          .field("patch_exhaustive_verified", m.patch_verified);
      rows.push_back(w.str());
    }
    JsonWriter w;
    w.field("bench", "planstore")
        .field("hardware_threads",
               static_cast<std::uint64_t>(support::hardware_threads()))
        .field("small", small)
        .field("reps", static_cast<std::uint64_t>(reps))
        .field("mutated_edges", mutate)
        .raw_field("configs", json_array(rows))
        .field("worst_load_speedup", worst_load)
        .field("worst_warm_load_ms_per_mb", worst_warm)
        .field("warm_load_budget_ms_per_mb", kWarmLoadBudgetMsPerMB)
        .field("worst_patch_speedup", worst_patch)
        .field("all_bit_identical", all_correct);
    append_json_line(opt.get("json"), w.str());
    std::printf("appended JSON record to %s\n", opt.get("json").c_str());
  }

  if (scratch) std::filesystem::remove_all(store_dir);
  if (!all_correct) return 1;
  if (!small && (!load_gate || !patch_gate)) return 1;
  return 0;
}

}  // namespace
}  // namespace earthred

int main(int argc, char** argv) {
  try {
    return earthred::run(earthred::Options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_plan_store: %s\n", e.what());
    return 1;
  }
}
