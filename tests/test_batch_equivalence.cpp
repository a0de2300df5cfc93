// Cross-executor equivalence for the batched hot path (PR 3).
//
// The native engine runs each phase either through per-edge virtual
// compute_edge calls (the original executor, kept as fallback) or through
// one batched compute_phase call streaming the flattened indirection
// block. The batch loops perform the same floating-point operations in
// the same order, so the two executors must agree *bit for bit* — these
// tests assert exact equality, not tolerances, across every kernel,
// distribution, and k, and likewise that parallel plan construction
// produces a plan indistinguishable from the serial build.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "inspector/distribution.hpp"
#include "inspector/light_inspector.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "kernels/ops_simd.hpp"
#include "kernels/spmv_t.hpp"
#include "mesh/generators.hpp"
#include "sparse/nas_cg.hpp"
#include "support/cpu_features.hpp"
#include "support/prng.hpp"

namespace earthred::core {
namespace {

struct NamedKernel {
  std::string name;
  std::unique_ptr<const PhasedKernel> kernel;
};

std::vector<NamedKernel> make_kernels() {
  std::vector<NamedKernel> ks;
  ks.push_back({"fig1", std::make_unique<kernels::Fig1Kernel>(
                            kernels::Fig1Kernel::with_integer_values(
                                mesh::make_geometric_mesh({96, 500, 21})))});
  ks.push_back({"euler", std::make_unique<kernels::EulerKernel>(
                             mesh::make_geometric_mesh({160, 700, 8}))});
  ks.push_back({"moldyn", std::make_unique<kernels::MoldynKernel>(
                              mesh::make_moldyn_lattice({3, 300, 0.03, 2}))});
  const sparse::CsrMatrix A =
      sparse::make_nas_cg_matrix({120, 3, 0.1, 10.0, 314159265.0});
  Xoshiro256 rng(7);
  std::vector<double> x(A.nrows());
  for (auto& v : x) v = rng.uniform(-1, 1);
  ks.push_back(
      {"spmv_t", std::make_unique<kernels::SpmvTKernel>(A, std::move(x))});
  return ks;
}

void expect_results_identical(const NativeResult& a, const NativeResult& b,
                              const std::string& what) {
  ASSERT_EQ(a.reduction.size(), b.reduction.size()) << what;
  for (std::size_t arr = 0; arr < a.reduction.size(); ++arr)
    for (std::size_t i = 0; i < a.reduction[arr].size(); ++i)
      ASSERT_EQ(a.reduction[arr][i], b.reduction[arr][i])
          << what << " reduction[" << arr << "][" << i << "]";
  ASSERT_EQ(a.node_read.size(), b.node_read.size()) << what;
  for (std::size_t arr = 0; arr < a.node_read.size(); ++arr)
    for (std::size_t i = 0; i < a.node_read[arr].size(); ++i)
      ASSERT_EQ(a.node_read[arr][i], b.node_read[arr][i])
          << what << " node_read[" << arr << "][" << i << "]";
}

TEST(BatchEquivalence, BitIdenticalAcrossKernelsDistributionsAndK) {
  const std::vector<NamedKernel> kernels = make_kernels();
  for (const NamedKernel& nk : kernels) {
    for (const auto dist : {inspector::Distribution::Block,
                            inspector::Distribution::Cyclic,
                            inspector::Distribution::BlockCyclic}) {
      for (const std::uint32_t k : {1u, 2u, 4u}) {
        PlanOptions popt;
        popt.num_procs = 4;
        popt.k = k;
        popt.distribution = dist;
        const ExecutionPlan plan = build_execution_plan(*nk.kernel, popt);

        SweepOptions sopt;
        sopt.sweeps = 3;  // multi-sweep: covers the broadcast path too
        sopt.batch = false;
        const NativeResult edge = run_native_plan(*nk.kernel, plan, sopt);
        sopt.batch = true;
        const NativeResult batch = run_native_plan(*nk.kernel, plan, sopt);

        expect_results_identical(
            edge, batch,
            nk.name + " dist=" + std::to_string(static_cast<int>(dist)) +
                " k=" + std::to_string(k));
      }
    }
  }
}

TEST(BatchEquivalence, CpuidTiersBitIdenticalToPerEdgeReference) {
  // The acceptance bar for the batch loops' two tiers: the tier this host
  // dispatches (AVX-512 when CPUID reports it) and the scalar loops
  // (features forced to no-AVX-512) must each reproduce the per-edge
  // reference bit for bit on every kernel. The AVX-512 tier vectorizes
  // gathers and arithmetic only — scatter accumulation stays scalar and
  // in order — so exact equality is the contract, not a tolerance.
  struct ScopedFeatures {
    explicit ScopedFeatures(const support::CpuFeatures* f) {
      support::set_cpu_features_for_test(f);
    }
    ~ScopedFeatures() { support::set_cpu_features_for_test(nullptr); }
  };
  const support::CpuFeatures no_avx512{};

  const std::vector<NamedKernel> named = make_kernels();
  for (const support::CpuFeatures* features : {
           static_cast<const support::CpuFeatures*>(nullptr), &no_avx512}) {
    const ScopedFeatures scoped(features);
    for (const NamedKernel& nk : named) {
      for (const std::uint32_t k : {1u, 2u}) {
        PlanOptions popt;
        popt.num_procs = 4;
        popt.k = k;
        const ExecutionPlan plan = build_execution_plan(*nk.kernel, popt);

        SweepOptions sopt;
        sopt.sweeps = 3;
        sopt.batch = false;
        const NativeResult edge = run_native_plan(*nk.kernel, plan, sopt);
        sopt.batch = true;
        const NativeResult batch = run_native_plan(*nk.kernel, plan, sopt);
        expect_results_identical(
            edge, batch,
            nk.name + " tier=" + kernels::ops::batch_tier() +
                " k=" + std::to_string(k));
      }
    }
  }
}

TEST(BatchEquivalence, AffinityKnobsDoNotChangeResults) {
  // Pinning and first-touch move page placement and thread scheduling,
  // never arithmetic: results stay bit-identical with both knobs on.
  const kernels::EulerKernel kernel(mesh::make_geometric_mesh({160, 700, 8}));
  PlanOptions popt;
  popt.num_procs = 4;
  popt.k = 2;
  const ExecutionPlan plan = build_execution_plan(kernel, popt);

  SweepOptions sopt;
  sopt.sweeps = 3;
  const NativeResult plain = run_native_plan(kernel, plan, sopt);
  sopt.affinity.pin_threads = true;
  sopt.affinity.first_touch = true;
  const NativeResult pinned = run_native_plan(kernel, plan, sopt);
  expect_results_identical(plain, pinned, "affinity on vs off");

  sopt.batch = false;  // and the per-edge executor under first-touch
  const NativeResult pinned_edge = run_native_plan(kernel, plan, sopt);
  expect_results_identical(plain, pinned_edge, "affinity + per-edge");
}

void expect_plans_identical(const ExecutionPlan& a, const ExecutionPlan& b) {
  ASSERT_EQ(a.insp.size(), b.insp.size());
  for (std::size_t p = 0; p < a.insp.size(); ++p) {
    const inspector::InspectorResult& ia = a.insp[p];
    const inspector::InspectorResult& ib = b.insp[p];
    EXPECT_EQ(ia.num_buffer_slots, ib.num_buffer_slots) << "proc " << p;
    EXPECT_EQ(ia.local_array_size, ib.local_array_size) << "proc " << p;
    EXPECT_EQ(ia.assigned_phase, ib.assigned_phase) << "proc " << p;
    EXPECT_EQ(ia.slot_elem, ib.slot_elem) << "proc " << p;
    ASSERT_EQ(ia.phases.size(), ib.phases.size()) << "proc " << p;
    for (std::size_t ph = 0; ph < ia.phases.size(); ++ph) {
      const inspector::PhaseSchedule& pa = ia.phases[ph];
      const inspector::PhaseSchedule& pb = ib.phases[ph];
      EXPECT_EQ(pa.iter_global, pb.iter_global) << p << "/" << ph;
      EXPECT_EQ(pa.iter_local, pb.iter_local) << p << "/" << ph;
      EXPECT_EQ(pa.indir_flat, pb.indir_flat) << p << "/" << ph;
      EXPECT_EQ(pa.copy_dst, pb.copy_dst) << p << "/" << ph;
      EXPECT_EQ(pa.copy_src, pb.copy_src) << p << "/" << ph;
    }
  }
}

/// The serial plan build assembled from its parts, one processor after
/// another, the way bench/e2e's decomposition does: distribute the
/// iterations, gather each processor's references, run its LightInspector.
ExecutionPlan serial_reference_plan(const PhasedKernel& kernel,
                                    const PlanOptions& popt) {
  const KernelShape shape = kernel.shape();
  ExecutionPlan plan{shape, popt,
                     inspector::RotationSchedule(shape.num_nodes,
                                                 popt.num_procs, popt.k),
                     {}, 0.0, nullptr};
  auto owned = inspector::distribute_iterations(
      shape.num_edges, popt.num_procs, popt.distribution,
      popt.block_cyclic_size);
  for (std::uint32_t p = 0; p < popt.num_procs; ++p) {
    inspector::IterationRefs iters;
    iters.global_iter = std::move(owned[p]);
    iters.refs.resize(shape.num_refs);
    for (std::uint32_t r = 0; r < shape.num_refs; ++r)
      for (const std::uint32_t e : iters.global_iter)
        iters.refs[r].push_back(kernel.ref(r, e));
    plan.insp.push_back(
        inspector::run_light_inspector(plan.sched, p, iters, popt.inspector));
  }
  return plan;
}

TEST(BatchEquivalence, ParallelPlanBuildMatchesSerialExactly) {
  // A kernel of 2^18 edges or more builds its processors on parallel host
  // threads. Each processor's inspector run is independent, so the plan
  // must be byte-for-byte the serial build: that is what keeps the thread
  // count out of the PlanCache key. Shuffled node ids spread every
  // processor's references over every portion, as on sweep-dram.
  const kernels::EulerKernel kernel(mesh::shuffle_nodes(
      mesh::make_geometric_mesh({40000, 300000, 3}), /*seed=*/5));
  ASSERT_GE(kernel.shape().num_edges, 1u << 18);
  for (const std::uint32_t P : {3u, 4u, 8u}) {
    PlanOptions popt;
    popt.num_procs = P;
    popt.k = 2;
    expect_plans_identical(serial_reference_plan(kernel, popt),
                           build_execution_plan(kernel, popt));
  }
}

TEST(BatchEquivalence, ByteSizeCountsPhaseData) {
  // byte_size drives PlanCache eviction, so it must track everything the
  // plan owns: a mesh with more edges (more phase iterations, more
  // flattened indirection) must report a strictly larger footprint, and
  // the footprint must at least cover the flattened blocks it carries.
  const kernels::EulerKernel small_k(mesh::make_geometric_mesh({96, 400, 5}));
  const kernels::EulerKernel big_k(mesh::make_geometric_mesh({96, 1600, 5}));
  PlanOptions popt;
  popt.num_procs = 4;
  popt.k = 2;
  const ExecutionPlan small_plan = build_execution_plan(small_k, popt);
  const ExecutionPlan big_plan = build_execution_plan(big_k, popt);
  EXPECT_GT(big_plan.byte_size(), small_plan.byte_size());

  std::uint64_t flat_bytes = 0;
  for (const inspector::InspectorResult& insp : small_plan.insp)
    for (const inspector::PhaseSchedule& ph : insp.phases)
      flat_bytes += ph.indir_flat.size() * sizeof(std::uint32_t);
  EXPECT_GT(flat_bytes, 0u);
  EXPECT_GE(small_plan.byte_size(), flat_bytes);
}

TEST(BatchEquivalence, StrategySweepKeepsExecutorContracts) {
  // The strategy sweep of the original equivalence gate, over the
  // strategy requests a stored plan may still carry: header field 0
  // (auto) and 1 (phased) both load and run the phased executor. A plan
  // loaded under either value, its arrays viewing the file mapping, must
  // sweep batched bit for bit like the freshly built plan's per-edge run.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("earthred-test-batch-strategy-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  constexpr std::size_t kStrategyFieldOffset = 76;

  const std::vector<NamedKernel> kernels = make_kernels();
  for (const NamedKernel& nk : kernels) {
    for (const auto dist : {inspector::Distribution::Block,
                            inspector::Distribution::Cyclic,
                            inspector::Distribution::BlockCyclic}) {
      for (const std::uint32_t k : {1u, 2u, 4u}) {
        PlanOptions popt;
        popt.num_procs = 4;
        popt.k = k;
        popt.distribution = dist;
        const ExecutionPlan plan = build_execution_plan(*nk.kernel, popt);

        SweepOptions sopt;
        sopt.sweeps = 3;
        sopt.batch = false;
        const NativeResult edge = run_native_plan(*nk.kernel, plan, sopt);
        sopt.batch = true;

        std::vector<std::byte> bytes = serialize_plan(plan, 0);
        ASSERT_GT(bytes.size(), kPlanHeaderBytes);
        for (const std::uint8_t requested : {0, 1}) {
          const std::string what =
              nk.name + " strategy-field=" + std::to_string(requested) +
              " dist=" + std::to_string(static_cast<int>(dist)) +
              " k=" + std::to_string(k);
          bytes[kStrategyFieldOffset] = std::byte{requested};
          const fs::path path = dir / "plan.plan";
          {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char*>(bytes.data()),
                      static_cast<std::streamsize>(bytes.size()));
          }
          const PlanLoadResult loaded = load_plan_file(path.string());
          ASSERT_TRUE(loaded.ok())
              << what << ": " << loaded.error_code << " " << loaded.detail;
          const NativeResult batch =
              run_native_plan(*nk.kernel, *loaded.plan, sopt);
          expect_results_identical(edge, batch, what);
        }
      }
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace earthred::core
