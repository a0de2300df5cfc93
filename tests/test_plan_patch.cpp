// Incremental re-planning (core::patch_execution_plan and the sparse
// inspector update behind it): the contract is bit-identical output — a
// patched plan must be indistinguishable from a fresh build of the
// mutated kernel, across every kernel x distribution x k configuration,
// and must pass the exhaustive plan verifier. Also pins down
// locate_iteration, the O(1) inverse of distribute_iterations the patch
// path relies on to avoid materializing the full distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "inspector/distribution.hpp"
#include "inspector/light_inspector.hpp"
#include "inspector/plan_verifier.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "support/check.hpp"

namespace earthred {
namespace {

using inspector::Distribution;

std::unique_ptr<const core::PhasedKernel> kernel_for(const std::string& name,
                                                     mesh::Mesh m) {
  if (name == "fig1")
    return std::make_unique<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(std::move(m)));
  if (name == "euler")
    return std::make_unique<kernels::EulerKernel>(std::move(m));
  return std::make_unique<kernels::MoldynKernel>(std::move(m));
}

mesh::Mesh mesh_for(const std::string& name) {
  if (name == "fig1") return mesh::make_geometric_mesh({300, 1800, 5});
  if (name == "euler") return mesh::make_geometric_mesh({260, 1500, 7});
  return mesh::make_geometric_mesh({320, 2100, 9});
}

void expect_exhaustive_clean(const core::ExecutionPlan& plan) {
  inspector::PlanVerifyOptions vopt;
  vopt.exhaustive = true;
  const auto report =
      inspector::verify_plan(plan.sched, plan.insp, plan.shape.num_edges,
                             plan.shape.num_refs, vopt);
  EXPECT_TRUE(report.ok()) << report.render();
}

TEST(LocateIteration, AgreesWithDistributeIterations) {
  for (const Distribution d :
       {Distribution::Block, Distribution::Cyclic,
        Distribution::BlockCyclic}) {
    for (const std::uint64_t n : {1ull, 7ull, 64ull, 97ull, 1000ull}) {
      for (const std::uint32_t P : {1u, 2u, 3u, 4u, 7u, 16u}) {
        for (const std::uint32_t bc : {1u, 3u, 16u}) {
          const auto owned =
              inspector::distribute_iterations(n, P, d, bc);
          for (std::uint32_t p = 0; p < P; ++p)
            for (std::size_t l = 0; l < owned[p].size(); ++l) {
              const auto home =
                  inspector::locate_iteration(n, P, d, bc, owned[p][l]);
              EXPECT_EQ(home.proc, p)
                  << to_string(d) << " n=" << n << " P=" << P
                  << " bc=" << bc << " g=" << owned[p][l];
              EXPECT_EQ(home.local, l)
                  << to_string(d) << " n=" << n << " P=" << P
                  << " bc=" << bc << " g=" << owned[p][l];
            }
          if (d != Distribution::BlockCyclic) break;  // bc is ignored
        }
      }
    }
  }
}

TEST(LocateIteration, RejectsOutOfRange) {
  EXPECT_THROW(
      inspector::locate_iteration(10, 4, Distribution::Block, 16, 10),
      precondition_error);
  EXPECT_THROW(
      inspector::locate_iteration(10, 0, Distribution::Cyclic, 16, 0),
      precondition_error);
}

// The tentpole property: for every kernel x distribution x k, a plan
// patched for a small mutation is bit-identical to a from-scratch build
// of the mutated kernel, and exhaustive-verifier clean.
TEST(PlanPatch, BitIdenticalToRebuildAcrossConfigurations) {
  for (const std::string name : {"fig1", "euler", "moldyn"}) {
    const mesh::Mesh base_mesh = mesh_for(name);
    const auto kernel = kernel_for(name, base_mesh);

    mesh::Mesh mutated_mesh = base_mesh;
    const std::vector<std::uint32_t> changed =
        mesh::rewire_edges(mutated_mesh, 9, /*seed=*/41);
    const auto mutated = kernel_for(name, std::move(mutated_mesh));

    for (const Distribution d :
         {Distribution::Block, Distribution::Cyclic,
          Distribution::BlockCyclic}) {
      for (const std::uint32_t k : {1u, 2u, 4u}) {
        core::PlanOptions opt;
        opt.num_procs = 4;
        opt.k = k;
        opt.distribution = d;
        opt.block_cyclic_size = 8;

        const core::ExecutionPlan base =
            core::build_execution_plan(*kernel, opt);
        const core::ExecutionPlan rebuilt =
            core::build_execution_plan(*mutated, opt);
        const core::ExecutionPlan patched =
            core::patch_execution_plan(*mutated, base, changed);

        EXPECT_TRUE(core::plans_bit_identical(patched, rebuilt))
            << name << " " << to_string(d) << " k=" << k;
        expect_exhaustive_clean(patched);
      }
    }
  }
}

TEST(PlanPatch, EmptyChangeSetReproducesTheBasePlan) {
  const auto kernel = kernel_for("fig1", mesh_for("fig1"));
  core::PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  const core::ExecutionPlan base = core::build_execution_plan(*kernel, opt);
  const core::ExecutionPlan patched =
      core::patch_execution_plan(*kernel, base, {});
  EXPECT_TRUE(core::plans_bit_identical(patched, base));
}

TEST(PlanPatch, RepeatedPatchingStaysCanonical) {
  // Patch output must be a valid *base* for the next patch (slot ids
  // canonical) — the adaptive loop re-plans every rebuild interval, not
  // once.
  const std::string name = "moldyn";
  mesh::Mesh m = mesh_for(name);
  auto kernel = kernel_for(name, m);
  core::PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  core::ExecutionPlan plan = core::build_execution_plan(*kernel, opt);

  for (std::uint64_t step = 0; step < 4; ++step) {
    mesh::Mesh next = m;
    const std::vector<std::uint32_t> changed =
        mesh::rewire_edges(next, 6, /*seed=*/100 + step);
    m = next;
    auto next_kernel = kernel_for(name, std::move(next));
    const core::ExecutionPlan rebuilt =
        core::build_execution_plan(*next_kernel, opt);
    core::ExecutionPlan patched =
        core::patch_execution_plan(*next_kernel, plan, changed);
    ASSERT_TRUE(core::plans_bit_identical(patched, rebuilt)) << step;
    plan = std::move(patched);
    kernel = std::move(next_kernel);
  }
}

TEST(PlanPatch, SparseUpdateMatchesFullTableOverload) {
  // The convenience overload (full IterationRefs table + changed local
  // list) must agree with a fresh inspector run — it forwards to the
  // sparse core, so this also pins the sparse path against the
  // from-scratch reference on a single processor.
  const mesh::Mesh base_mesh = mesh::make_geometric_mesh({120, 700, 3});
  mesh::Mesh mut_mesh = base_mesh;
  const std::vector<std::uint32_t> changed_edges =
      mesh::rewire_edges(mut_mesh, 7, /*seed=*/11);

  const auto base_kernel = kernel_for("fig1", base_mesh);
  const auto mut_kernel = kernel_for("fig1", mut_mesh);

  const inspector::RotationSchedule sched(
      base_kernel->shape().num_nodes, /*num_procs=*/3, /*k=*/2);
  const auto owned = inspector::distribute_iterations(
      base_kernel->shape().num_edges, 3, Distribution::Cyclic, 16);

  for (std::uint32_t p = 0; p < 3; ++p) {
    inspector::IterationRefs base_iters, mut_iters;
    base_iters.global_iter = owned[p];
    mut_iters.global_iter = owned[p];
    const std::uint32_t R = base_kernel->shape().num_refs;
    base_iters.refs.resize(R);
    mut_iters.refs.resize(R);
    std::vector<std::uint32_t> changed_local;
    for (std::size_t l = 0; l < owned[p].size(); ++l) {
      const std::uint32_t g = owned[p][l];
      bool differs = false;
      for (std::uint32_t r = 0; r < R; ++r) {
        base_iters.refs[r].push_back(base_kernel->ref(r, g));
        mut_iters.refs[r].push_back(mut_kernel->ref(r, g));
        differs |= base_iters.refs[r].back() != mut_iters.refs[r].back();
      }
      if (differs)
        changed_local.push_back(static_cast<std::uint32_t>(l));
    }

    const inspector::InspectorResult base_res =
        inspector::run_light_inspector(sched, p, base_iters);
    const inspector::InspectorResult fresh =
        inspector::run_light_inspector(sched, p, mut_iters);
    const inspector::InspectorResult updated =
        inspector::update_light_inspector(sched, p, mut_iters, base_res,
                                          changed_local, {});

    EXPECT_EQ(updated.num_buffer_slots, fresh.num_buffer_slots) << p;
    EXPECT_TRUE(updated.slot_elem == fresh.slot_elem) << p;
    ASSERT_EQ(updated.phases.size(), fresh.phases.size()) << p;
    for (std::size_t ph = 0; ph < fresh.phases.size(); ++ph) {
      EXPECT_TRUE(updated.phases[ph].iter_global ==
                  fresh.phases[ph].iter_global);
      EXPECT_TRUE(updated.phases[ph].iter_local ==
                  fresh.phases[ph].iter_local);
      EXPECT_TRUE(updated.phases[ph].indir_flat ==
                  fresh.phases[ph].indir_flat);
      EXPECT_TRUE(updated.phases[ph].copy_dst == fresh.phases[ph].copy_dst);
      EXPECT_TRUE(updated.phases[ph].copy_src == fresh.phases[ph].copy_src);
    }
  }
}

TEST(PlanPatch, ParallelPatchOfALargePlanMatchesRebuildAndPerProcUpdate) {
  // A base of 2^18 edges or more patches its processors on parallel host
  // threads, whatever the change count. The result must be bit-identical
  // to a fresh build and to each processor's own update run serially.
  const mesh::Mesh base_mesh = mesh::shuffle_nodes(
      mesh::make_geometric_mesh({40000, 300000, 13}), /*seed=*/17);
  mesh::Mesh mutated_mesh = base_mesh;
  const std::vector<std::uint32_t> changed =
      mesh::rewire_edges(mutated_mesh, 1500, /*seed=*/19);
  const auto kernel = kernel_for("euler", base_mesh);
  const auto mutated = kernel_for("euler", std::move(mutated_mesh));
  const core::KernelShape shape = kernel->shape();
  ASSERT_GE(shape.num_edges, 1u << 18);

  core::PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  const core::ExecutionPlan base = core::build_execution_plan(*kernel, opt);
  const core::ExecutionPlan patched =
      core::patch_execution_plan(*mutated, base, changed);
  EXPECT_TRUE(core::plans_bit_identical(
      patched, core::build_execution_plan(*mutated, opt)));

  core::ExecutionPlan per_proc{shape, opt, base.sched, {}, 0.0, nullptr};
  const auto owned = inspector::distribute_iterations(
      shape.num_edges, opt.num_procs, opt.distribution,
      opt.block_cyclic_size);
  for (std::uint32_t p = 0; p < opt.num_procs; ++p) {
    inspector::IterationRefs iters;
    iters.global_iter = owned[p];
    iters.refs.resize(shape.num_refs);
    std::vector<std::uint32_t> changed_local;
    for (std::size_t l = 0; l < owned[p].size(); ++l) {
      for (std::uint32_t r = 0; r < shape.num_refs; ++r)
        iters.refs[r].push_back(mutated->ref(r, owned[p][l]));
      if (std::binary_search(changed.begin(), changed.end(), owned[p][l]))
        changed_local.push_back(static_cast<std::uint32_t>(l));
    }
    per_proc.insp.push_back(inspector::update_light_inspector(
        base.sched, p, iters, base.insp[p], changed_local, {}));
  }
  EXPECT_TRUE(core::plans_bit_identical(patched, per_proc));
}

TEST(PlanPatch, RejectsMismatchedChangeSets) {
  const auto kernel = kernel_for("fig1", mesh_for("fig1"));
  core::PlanOptions opt;
  opt.num_procs = 4;
  opt.k = 2;
  const core::ExecutionPlan base = core::build_execution_plan(*kernel, opt);

  // Out-of-range global iteration id.
  const std::vector<std::uint32_t> oob = {
      static_cast<std::uint32_t>(kernel->shape().num_edges)};
  EXPECT_THROW((void)core::patch_execution_plan(*kernel, base, oob),
               precondition_error);
}

}  // namespace
}  // namespace earthred
