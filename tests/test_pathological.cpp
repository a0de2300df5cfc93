// Pathological-workload tests: degenerate and adversarial meshes through
// every engine, checked against the sequential reference. These are the
// inputs where scheduling bugs (empty phases, all-deferred references,
// single hot node) would surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/classic_engine.hpp"
#include "core/native_engine.hpp"
#include "core/reduction_engine.hpp"
#include "core/sequential.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "support/check.hpp"

namespace earthred {
namespace {

mesh::Mesh star_mesh(std::uint32_t leaves) {
  // Node 0 is the hub of every edge: maximal reduction contention and,
  // for every processor not owning node 0's portion this phase, a
  // deferred reference per iteration.
  mesh::Mesh m;
  m.num_nodes = leaves + 1;
  for (std::uint32_t v = 1; v <= leaves; ++v) m.edges.push_back({0, v});
  return m;
}

mesh::Mesh chain_mesh(std::uint32_t n) {
  mesh::Mesh m;
  m.num_nodes = n;
  for (std::uint32_t v = 0; v + 1 < n; ++v) m.edges.push_back({v, v + 1});
  return m;
}

mesh::Mesh parallel_edges_mesh(std::uint32_t copies) {
  // The same pair repeated: every iteration collides on two elements.
  mesh::Mesh m;
  m.num_nodes = 8;
  for (std::uint32_t i = 0; i < copies; ++i) m.edges.push_back({1, 6});
  return m;
}

mesh::Mesh skew_phase_mesh(std::uint32_t n, std::uint32_t edges) {
  // All edges inside the last portion: with a block distribution every
  // processor's iterations pile into one phase.
  mesh::Mesh m;
  m.num_nodes = n;
  for (std::uint32_t i = 0; i < edges; ++i)
    m.edges.push_back({n - 2, n - 1});
  return m;
}

mesh::Mesh with_helix_coords(mesh::Mesh m) {
  // Distinct positions for the kernels that need coordinates (euler's
  // edge coefficients, moldyn's positions).
  m.coords.resize(m.num_nodes);
  for (std::uint32_t v = 0; v < m.num_nodes; ++v) {
    const double t = 0.37 * v;
    m.coords[v] = {0.5 + 0.4 * std::cos(t), 0.5 + 0.4 * std::sin(t),
                   0.001 * v};
  }
  return m;
}

/// Largest number of buffer slots that fold into one element in one
/// phase of one processor's second loop.
std::size_t max_folds_into_one_element(const core::ExecutionPlan& plan) {
  std::size_t most = 0;
  for (const inspector::InspectorResult& insp : plan.insp)
    for (const inspector::PhaseSchedule& phase : insp.phases) {
      std::map<std::uint32_t, std::size_t> per_elem;
      for (const std::uint32_t d : phase.copy_dst)
        most = std::max(most, ++per_elem[d]);
    }
  return most;
}

void expect_identical(const core::NativeResult& a, const core::NativeResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.reduction, b.reduction) << what;
  ASSERT_EQ(a.node_read, b.node_read) << what;
}

/// Runs one plan natively batched, per-edge and batched under first-touch
/// placement, and requires the three results to agree bit for bit.
/// Returns the batched result.
core::NativeResult native_paths_agree(const core::PhasedKernel& kernel,
                                      const core::ExecutionPlan& plan,
                                      const std::string& what) {
  core::SweepOptions sopt;
  sopt.sweeps = 3;
  core::NativeResult batched = core::run_native_plan(kernel, plan, sopt);
  sopt.batch = false;
  const core::NativeResult per_edge = core::run_native_plan(kernel, plan, sopt);
  sopt.batch = true;
  sopt.affinity.first_touch = true;
  const core::NativeResult touched = core::run_native_plan(kernel, plan, sopt);
  expect_identical(batched, per_edge, what + " per-edge");
  expect_identical(batched, touched, what + " first_touch");
  return batched;
}

void check_all_engines(const mesh::Mesh& mesh, std::uint32_t procs,
                       std::uint32_t k) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(mesh);
  core::SequentialOptions sopt;
  sopt.sweeps = 2;
  sopt.machine.max_events = 50'000'000;
  const core::RunResult seq = core::run_sequential_kernel(kernel, sopt);

  core::RotationOptions ropt;
  ropt.num_procs = procs;
  ropt.k = k;
  ropt.sweeps = 2;
  ropt.machine.max_events = 50'000'000;
  const core::RunResult rot = core::run_rotation_engine(kernel, ropt);

  core::ClassicOptions copt;
  copt.num_procs = procs;
  copt.sweeps = 2;
  copt.machine.max_events = 50'000'000;
  const core::RunResult cls = core::run_classic_engine(kernel, copt);

  core::PlanOptions plan_opt;
  core::SweepOptions sweep_opt;
  plan_opt.num_procs = procs;
  plan_opt.k = k;
  sweep_opt.sweeps = 2;
  const core::NativeResult nat =
      core::run_native_engine(kernel, plan_opt, sweep_opt);

  for (std::size_t i = 0; i < seq.reduction[0].size(); ++i) {
    ASSERT_EQ(rot.reduction[0][i], seq.reduction[0][i]) << "rotation " << i;
    ASSERT_EQ(cls.reduction[0][i], seq.reduction[0][i]) << "classic " << i;
    ASSERT_EQ(nat.reduction[0][i], seq.reduction[0][i]) << "native " << i;
  }
}

TEST(Pathological, StarHubAllEnginesAgree) {
  check_all_engines(star_mesh(63), 4, 2);
  check_all_engines(star_mesh(63), 8, 1);
}

TEST(Pathological, StarHubDefersHeavily) {
  // On processors not owning the hub's portion during an iteration's
  // phase, the hub reference is deferred — verify buffers are exercised.
  const auto kernel =
      kernels::Fig1Kernel::with_integer_values(star_mesh(63));
  const inspector::RotationSchedule sched(64, 4, 2);
  inspector::IterationRefs refs;
  refs.refs.resize(2);
  for (std::uint32_t e = 0; e < 63; ++e) {
    refs.global_iter.push_back(e);
    refs.refs[0].push_back(kernel.ref(0, e));
    refs.refs[1].push_back(kernel.ref(1, e));
  }
  const auto res = inspector::run_light_inspector(sched, 2, refs);
  EXPECT_GT(res.total_deferred(), 0u);
}

TEST(Pathological, ChainAllEnginesAgree) {
  check_all_engines(chain_mesh(97), 3, 2);
}

TEST(Pathological, ParallelEdgesAllEnginesAgree) {
  check_all_engines(parallel_edges_mesh(200), 4, 2);
}

TEST(Pathological, SkewedPhasesAllEnginesAgree) {
  // One phase carries everything; the rest are empty — exercises empty
  // phase fibers and imbalance handling.
  check_all_engines(skew_phase_mesh(64, 300), 4, 2);
}

TEST(Pathological, ManySlotsFoldIntoOneElementAcrossArrays) {
  // The hub and the repeated pair collect many buffer slots into one
  // element in one phase; euler (two reduction arrays) and moldyn (three)
  // fold every array of each such entry.
  const mesh::Mesh meshes[] = {with_helix_coords(star_mesh(63)),
                               with_helix_coords(parallel_edges_mesh(200))};
  for (const mesh::Mesh& m : meshes) {
    const kernels::EulerKernel euler(m);
    const kernels::MoldynKernel moldyn(m);
    for (const core::PhasedKernel* kernel :
         {static_cast<const core::PhasedKernel*>(&euler),
          static_cast<const core::PhasedKernel*>(&moldyn)}) {
      for (const auto& [procs, k] : {std::pair{4u, 2u}, std::pair{3u, 1u}}) {
        core::PlanOptions popt;
        popt.num_procs = procs;
        popt.k = k;
        const core::ExecutionPlan plan =
            core::build_execution_plan(*kernel, popt);
        ASSERT_GT(max_folds_into_one_element(plan), 1u);
        const std::string what =
            "RA=" + std::to_string(kernel->shape().num_reduction_arrays) +
            " nodes=" + std::to_string(m.num_nodes) +
            " P=" + std::to_string(procs);
        const core::NativeResult nat = native_paths_agree(*kernel, plan, what);
        // The simulator folds the same slots in the same order.
        core::RotationOptions ropt;
        ropt.num_procs = procs;
        ropt.k = k;
        ropt.sweeps = 3;
        ropt.machine.max_events = 50'000'000;
        const core::RunResult rot = core::run_rotation_engine(*kernel, ropt);
        ASSERT_EQ(nat.reduction, rot.reduction) << what << " vs simulator";
      }
    }
  }
}

TEST(Pathological, LongChainCrossesTheHugePageThreshold) {
  // 600K nodes: X is 4.8 MB, past the executor's 4 MiB huge-page advice
  // threshold, so the advised allocation (and first-touch's page release
  // on it) runs here. fig1's integer values make every summation order
  // exact, so the native result must equal the sequential reference.
  constexpr std::uint32_t kNodes = 600'000;
  ASSERT_GE(kNodes * sizeof(double), std::size_t{4} << 20);
  const auto kernel =
      kernels::Fig1Kernel::with_integer_values(chain_mesh(kNodes));
  core::PlanOptions popt;
  popt.num_procs = 4;
  popt.k = 2;
  const core::ExecutionPlan plan = core::build_execution_plan(kernel, popt);
  const core::NativeResult nat = native_paths_agree(kernel, plan, "chain");

  core::SequentialOptions sopt;
  sopt.sweeps = 3;
  sopt.machine.max_events = 50'000'000;
  const core::RunResult seq = core::run_sequential_kernel(kernel, sopt);
  ASSERT_EQ(nat.reduction[0], seq.reduction[0]);
}

TEST(Pathological, EmptyEdgeListRuns) {
  mesh::Mesh m;
  m.num_nodes = 32;
  const auto kernel = kernels::Fig1Kernel::with_integer_values(m);
  core::RotationOptions ropt;
  ropt.num_procs = 4;
  ropt.k = 2;
  ropt.machine.max_events = 1'000'000;
  const core::RunResult r = core::run_rotation_engine(kernel, ropt);
  for (const double v : r.reduction[0]) ASSERT_EQ(v, 0.0);
}

TEST(Pathological, SingleEdgeManyProcs) {
  mesh::Mesh m;
  m.num_nodes = 64;
  m.edges = {{3, 60}};
  check_all_engines(m, 8, 2);
}

TEST(Pathological, MoreProcsThanIterationsStillCorrect) {
  check_all_engines(chain_mesh(33), 8, 2);  // 32 edges over 8 procs
}

}  // namespace
}  // namespace earthred
