// Tests for the native (real std::thread) execution of the rotation
// strategy: correctness under true asynchrony across kernels, processor
// counts, k values and distributions.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/native_engine.hpp"
#include "core/sequential.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "support/check.hpp"

namespace earthred::core {
namespace {

TEST(NativeEngine, Fig1ExactMatchManyConfigs) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({96, 500, 21}));
  SequentialOptions sopt;
  sopt.sweeps = 4;
  const RunResult seq = run_sequential_kernel(kernel, sopt);

  for (const std::uint32_t procs : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::uint32_t k : {1u, 2u, 3u}) {
      for (const auto dist : {inspector::Distribution::Block,
                              inspector::Distribution::Cyclic}) {
        PlanOptions plan_opt;
        SweepOptions sweep_opt;
        plan_opt.num_procs = procs;
        plan_opt.k = k;
        plan_opt.distribution = dist;
        sweep_opt.sweeps = 4;
        const NativeResult r = run_native_engine(kernel, plan_opt, sweep_opt);
        for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
          ASSERT_EQ(r.reduction[0][i], seq.reduction[0][i])
              << "P=" << procs << " k=" << k;
      }
    }
  }
}

TEST(NativeEngine, EulerStateMatchesSequential) {
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({160, 700, 8}));
  SequentialOptions sopt;
  sopt.sweeps = 5;
  const RunResult seq = run_sequential_kernel(kernel, sopt);

  PlanOptions plan_opt;
  SweepOptions sweep_opt;
  plan_opt.num_procs = 4;
  plan_opt.k = 2;
  sweep_opt.sweeps = 5;
  const NativeResult r = run_native_engine(kernel, plan_opt, sweep_opt);
  for (std::size_t a = 0; a < seq.node_read.size(); ++a)
    for (std::size_t i = 0; i < seq.node_read[a].size(); ++i)
      ASSERT_NEAR(r.node_read[a][i], seq.node_read[a][i], 1e-9);
}

TEST(NativeEngine, MoldynStateMatchesSequential) {
  const kernels::MoldynKernel kernel(
      mesh::make_moldyn_lattice({3, 300, 0.03, 2}));
  SequentialOptions sopt;
  sopt.sweeps = 3;
  const RunResult seq = run_sequential_kernel(kernel, sopt);

  PlanOptions plan_opt;
  SweepOptions sweep_opt;
  plan_opt.num_procs = 6;
  plan_opt.k = 2;
  sweep_opt.sweeps = 3;
  const NativeResult r = run_native_engine(kernel, plan_opt, sweep_opt);
  for (std::size_t a = 0; a < seq.node_read.size(); ++a)
    for (std::size_t i = 0; i < seq.node_read[a].size(); ++i)
      ASSERT_NEAR(r.node_read[a][i], seq.node_read[a][i], 1e-9);
}

TEST(NativeEngine, RepeatedRunsAreDeterministic) {
  // The schedule fixes summation order regardless of thread timing, so
  // even floating-point results are bit-reproducible run to run.
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({128, 600, 13}));
  PlanOptions plan_opt;
  SweepOptions sweep_opt;
  plan_opt.num_procs = 5;
  plan_opt.k = 2;
  sweep_opt.sweeps = 4;
  const NativeResult a = run_native_engine(kernel, plan_opt, sweep_opt);
  const NativeResult b = run_native_engine(kernel, plan_opt, sweep_opt);
  for (std::size_t arr = 0; arr < a.node_read.size(); ++arr)
    for (std::size_t i = 0; i < a.node_read[arr].size(); ++i)
      ASSERT_EQ(a.node_read[arr][i], b.node_read[arr][i]);
}

TEST(NativeEngine, SingleSweepNoBroadcastPath) {
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({64, 300, 14}));
  PlanOptions plan_opt;
  SweepOptions sweep_opt;
  plan_opt.num_procs = 4;
  plan_opt.k = 1;
  sweep_opt.sweeps = 1;
  const NativeResult r = run_native_engine(kernel, plan_opt, sweep_opt);
  SequentialOptions sopt;
  const RunResult seq = run_sequential_kernel(kernel, sopt);
  for (std::size_t a = 0; a < seq.reduction.size(); ++a)
    for (std::size_t i = 0; i < seq.reduction[a].size(); ++i)
      ASSERT_NEAR(r.reduction[a][i], seq.reduction[a][i], 1e-9);
}

TEST(NativeEngine, DetachedContextForbidsEarthOps) {
  auto ctx = earth::FiberContext::detached();
  EXPECT_FALSE(ctx.attached());
  ctx.charge_flops(3);
  EXPECT_GE(ctx.charged(), 3u);
  EXPECT_THROW(ctx.sync(earth::FiberId{}), precondition_error);
  EXPECT_THROW(ctx.send(earth::FiberId{}, 8), precondition_error);
}

TEST(NativeEngine, RejectsDegenerateShapes) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({8, 20, 6}));
  PlanOptions plan_opt;
  SweepOptions sweep_opt;
  plan_opt.num_procs = 8;
  plan_opt.k = 2;
  EXPECT_THROW(run_native_engine(kernel, plan_opt, sweep_opt),
               precondition_error);
}

TEST(NativeEngine, LostForwardTripsStallWatchdog) {
  // Swallow the very first ring forward (proc 0, phase 0, sweep 0): the
  // next owner then waits forever for that portion, and the watchdog must
  // convert the hang into a check_error naming the starved step.
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({96, 500, 21}));
  PlanOptions plan_opt;
  SweepOptions sweep_opt;
  plan_opt.num_procs = 4;
  plan_opt.k = 2;
  sweep_opt.sweeps = 3;
  sweep_opt.stall_timeout = 0.5;
  sweep_opt.lose_forward = {true, 0, 0, 0};
  try {
    run_native_engine(kernel, plan_opt, sweep_opt);
    FAIL() << "expected the stall watchdog to fire";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stalled"), std::string::npos) << what;
    EXPECT_NE(what.find("stuck"), std::string::npos) << what;
  }
}

TEST(NativeEngine, ZeroStallTimeoutStillRunsCleanSchedules) {
  // stall_timeout = 0 restores the unbounded-wait behavior; a healthy
  // run must complete and stay correct.
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({96, 500, 21}));
  SequentialOptions sopt;
  sopt.sweeps = 3;
  const RunResult seq = run_sequential_kernel(kernel, sopt);
  PlanOptions plan_opt;
  SweepOptions sweep_opt;
  plan_opt.num_procs = 4;
  plan_opt.k = 2;
  sweep_opt.sweeps = 3;
  sweep_opt.stall_timeout = 0.0;
  const NativeResult r = run_native_engine(kernel, plan_opt, sweep_opt);
  for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
    ASSERT_EQ(r.reduction[0][i], seq.reduction[0][i]);
}

}  // namespace
}  // namespace earthred::core
