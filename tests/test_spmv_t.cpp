// Tests for the A^T x kernel — the single-indirection-reference case of
// Sec. 3 (no remote buffer, no second loop).
#include <gtest/gtest.h>

#include <cmath>

#include "core/native_engine.hpp"
#include "core/reduction_engine.hpp"
#include "kernels/spmv_t.hpp"
#include "sparse/nas_cg.hpp"
#include "support/prng.hpp"

namespace earthred::kernels {
namespace {

SpmvTKernel make_kernel(std::uint32_t n, std::uint64_t seed) {
  const sparse::CsrMatrix A =
      sparse::make_nas_cg_matrix({n, 3, 0.1, 10.0, 314159265.0});
  Xoshiro256 rng(seed);
  std::vector<double> x(A.nrows());
  for (auto& v : x) v = rng.uniform(-1, 1);
  return SpmvTKernel(A, std::move(x));
}

TEST(SpmvT, ReferenceMatchesTransposeSpmv) {
  const sparse::CsrMatrix A =
      sparse::make_nas_cg_matrix({120, 3, 0.1, 10.0, 314159265.0});
  std::vector<double> x(A.nrows(), 0.0);
  Xoshiro256 rng(4);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const SpmvTKernel kernel(A, x);
  const auto got = kernel.reference();
  std::vector<double> want(A.ncols());
  A.transpose().spmv(x, want);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_NEAR(got[i], want[i], 1e-12);
}

TEST(SpmvT, RotationEngineMatchesReferenceAndNeedsNoBuffers) {
  const SpmvTKernel kernel = make_kernel(160, 5);
  const auto want = kernel.reference();
  for (const std::uint32_t P : {1u, 2u, 4u, 8u}) {
    core::RotationOptions opt;
    opt.num_procs = P;
    opt.k = 2;
    opt.machine.max_events = 50'000'000;
    const core::RunResult r = core::run_rotation_engine(kernel, opt);
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_NEAR(r.reduction[0][i], want[i],
                  1e-9 * (1.0 + std::abs(want[i])))
          << "P=" << P;
  }
}

TEST(SpmvT, SingleReferenceProducesNoDeferrals) {
  // Inspect the LightInspector output directly: one reference slot means
  // every iteration is assigned to the phase owning its element.
  const SpmvTKernel kernel = make_kernel(96, 6);
  const inspector::RotationSchedule sched(kernel.shape().num_nodes, 4, 2);
  inspector::IterationRefs refs;
  refs.refs.resize(1);
  for (std::uint64_t e = 0; e < kernel.shape().num_edges; e += 4) {
    refs.global_iter.push_back(static_cast<std::uint32_t>(e));
    refs.refs[0].push_back(kernel.ref(0, e));
  }
  const auto res = inspector::run_light_inspector(sched, 1, refs);
  EXPECT_EQ(res.num_buffer_slots, 0u);
  EXPECT_EQ(res.total_deferred(), 0u);
}

TEST(SpmvT, NativeEngineMatches) {
  const SpmvTKernel kernel = make_kernel(128, 7);
  const auto want = kernel.reference();
  core::PlanOptions plan_opt;
  core::SweepOptions sweep_opt;
  plan_opt.num_procs = 4;
  plan_opt.k = 2;
  const core::NativeResult r =
      core::run_native_engine(kernel, plan_opt, sweep_opt);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_NEAR(r.reduction[0][i], want[i],
                1e-9 * (1.0 + std::abs(want[i])));
}

}  // namespace
}  // namespace earthred::kernels
