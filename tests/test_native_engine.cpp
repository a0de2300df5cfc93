// Tests for the native (real std::thread) execution of the rotation
// strategy: correctness under true asynchrony across kernels, processor
// counts, k values and distributions.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/native_engine.hpp"
#include "core/sequential.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "support/check.hpp"

namespace earthred::core {
namespace {

/// Forwards everything except refresh_nodes, so the native executor's
/// batched path refreshes through PhasedKernel's default.
class ForwardingKernel final : public PhasedKernel {
 public:
  explicit ForwardingKernel(const PhasedKernel& inner) : inner_(inner) {}

  KernelShape shape() const override { return inner_.shape(); }
  std::uint32_t ref(std::uint32_t r, std::uint64_t edge) const override {
    return inner_.ref(r, edge);
  }
  void init_node_arrays(
      std::vector<std::vector<double>>& arrays) const override {
    inner_.init_node_arrays(arrays);
  }
  void compute_edge(earth::FiberContext& ctx, const CostTags& tags,
                    std::uint64_t edge_global, std::uint64_t edge_slot,
                    std::span<const std::uint32_t> redirected,
                    ProcArrays& arrays) const override {
    inner_.compute_edge(ctx, tags, edge_global, edge_slot, redirected,
                        arrays);
  }
  void update_nodes(earth::FiberContext& ctx, const CostTags& tags,
                    std::uint32_t begin, std::uint32_t end,
                    std::uint32_t base, ProcArrays& arrays) const override {
    inner_.update_nodes(ctx, tags, begin, end, base, arrays);
  }
  void compute_phase(earth::FiberContext& ctx, const CostTags& tags,
                     const PhaseView& phase,
                     ProcArrays& arrays) const override {
    inner_.compute_phase(ctx, tags, phase, arrays);
  }

 private:
  const PhasedKernel& inner_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

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

TEST(NativeEngine, WithheldReadinessTripsStallAtTheSweepBoundary) {
  // The final owner of a portion publishes its node-read refresh at the
  // portion's last owning phase; drop that (and the ring forward) in
  // sweep 0 of a 2-sweep run. Every worker then waits at the sweep-1
  // boundary for that portion, and the watchdog must name the waiting
  // worker and the portion instead of hanging.
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({160, 700, 8}));
  PlanOptions plan_opt;
  plan_opt.num_procs = 4;
  plan_opt.k = 2;
  const ExecutionPlan plan = build_execution_plan(kernel, plan_opt);
  const std::uint32_t pid = 5;
  SweepOptions sweep_opt;
  sweep_opt.sweeps = 2;
  sweep_opt.stall_timeout = 0.5;
  sweep_opt.lose_forward = {true, plan.sched.final_owner(pid),
                            plan.sched.last_owning_phase(pid), 0};
  try {
    run_native_plan(kernel, plan, sweep_opt);
    FAIL() << "expected the stall watchdog to fire";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stalled"), std::string::npos) << what;
    EXPECT_NE(what.find("stuck waiting for node-read portion 5 "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("proc "), std::string::npos) << what;
  }
}

TEST(NativeEngine, ProfileAccountsRunStateAndStages) {
  // The stage recorder: run state is X, every worker's buffer slots and
  // both node-read parities, and no worker's stages add up to more than
  // the run's wall time.
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({300, 1500, 17}));
  PlanOptions plan_opt;
  plan_opt.num_procs = 3;
  plan_opt.k = 2;
  const ExecutionPlan plan = build_execution_plan(kernel, plan_opt);
  SweepOptions sweep_opt;
  sweep_opt.sweeps = 3;
  const NativeResult r = run_native_plan(kernel, plan, sweep_opt);

  const KernelShape s = kernel.shape();
  std::uint64_t slots = 0;
  for (const inspector::InspectorResult& insp : plan.insp)
    slots += insp.local_array_size - s.num_nodes;
  EXPECT_GT(slots, 0u);
  EXPECT_EQ(r.profile.run_state_bytes,
            8 * (std::uint64_t{s.num_reduction_arrays} * s.num_nodes +
                 std::uint64_t{s.num_reduction_arrays} * slots +
                 2 * std::uint64_t{s.num_node_read_arrays} * s.num_nodes));
  ASSERT_EQ(r.profile.workers.size(), plan_opt.num_procs);
  EXPECT_GE(r.profile.setup_s, 0.0);
  for (const WorkerStages& w : r.profile.workers) {
    EXPECT_GE(w.setup_s, 0.0);
    EXPECT_GT(w.compute_s, 0.0);
    EXPECT_GE(w.wait_s, 0.0);
    EXPECT_GE(w.fold_s, 0.0);
    EXPECT_GE(w.refresh_s, 0.0);
    EXPECT_LE(w.setup_s + w.compute_s + w.wait_s + w.fold_s + w.refresh_s,
              r.wall_seconds);
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

TEST(NativeEngine, RefreshOverridesMatchTheDefault) {
  // Euler's and moldyn's fused refresh_nodes against PhasedKernel's
  // default (copy, update_nodes, fill) on random state over a mid-array
  // range: the next parity matches bit for bit inside the range and is
  // untouched outside it; X is zeroed inside exactly when asked.
  const kernels::EulerKernel euler(mesh::make_geometric_mesh({300, 1200, 5}));
  const kernels::MoldynKernel moldyn(
      mesh::make_geometric_mesh({300, 1200, 6}));
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> value(-4.0, 4.0);
  const auto random_arrays = [&](std::uint32_t count, std::uint32_t n) {
    std::vector<std::vector<double>> arrays(count, std::vector<double>(n));
    for (std::vector<double>& a : arrays)
      for (double& v : a) v = value(rng);
    return arrays;
  };
  const auto pointers = [](std::vector<std::vector<double>>& arrays) {
    std::vector<double*> p;
    for (std::vector<double>& a : arrays) p.push_back(a.data());
    return p;
  };

  for (const PhasedKernel* kernel :
       {static_cast<const PhasedKernel*>(&euler),
        static_cast<const PhasedKernel*>(&moldyn)}) {
    const KernelShape s = kernel->shape();
    const std::uint32_t N = s.num_nodes;
    const std::uint32_t begin = N / 4 + 3;
    const std::uint32_t end = 3 * N / 4 - 1;
    CostTags tags;
    tags.reduction.resize(s.num_reduction_arrays);
    tags.node_read.resize(s.num_node_read_arrays);
    earth::FiberContext ctx = earth::FiberContext::detached();

    for (const bool zero_x : {false, true}) {
      auto cur = random_arrays(s.num_node_read_arrays, N);
      const auto x0 = random_arrays(s.num_reduction_arrays, N);
      const auto next0 = random_arrays(s.num_node_read_arrays, N);
      std::vector<const double*> cur_p;
      for (const double* a : pointers(cur)) cur_p.push_back(a);

      auto want_next = next0, got_next = next0;
      auto want_x = x0, got_x = x0;
      kernel->PhasedKernel::refresh_nodes(ctx, tags, begin, end, cur_p,
                                          pointers(want_next),
                                          pointers(want_x), zero_x);
      kernel->refresh_nodes(ctx, tags, begin, end, cur_p, pointers(got_next),
                            pointers(got_x), zero_x);

      for (std::uint32_t a = 0; a < s.num_node_read_arrays; ++a)
        for (std::uint32_t v = 0; v < N; ++v) {
          const bool inside = v >= begin && v < end;
          ASSERT_TRUE(same_bits(got_next[a][v], want_next[a][v]))
              << "array " << a << " node " << v;
          if (!inside) {
            ASSERT_TRUE(same_bits(got_next[a][v], next0[a][v]));
          }
        }
      for (std::uint32_t a = 0; a < s.num_reduction_arrays; ++a)
        for (std::uint32_t v = 0; v < N; ++v) {
          const bool inside = v >= begin && v < end;
          const double expected = inside && zero_x ? 0.0 : x0[a][v];
          ASSERT_TRUE(same_bits(got_x[a][v], expected))
              << "array " << a << " node " << v << " zero_x " << zero_x;
          ASSERT_TRUE(same_bits(want_x[a][v], expected));
        }
    }
  }
}

TEST(NativeEngine, ForwardingKernelRefreshesThroughTheDefault) {
  // A wrapper that does not override refresh_nodes runs the batched
  // executor through PhasedKernel's default refresh; its result must be
  // bit-identical to the wrapped kernel's fused one.
  const kernels::EulerKernel euler(mesh::make_geometric_mesh({400, 2000, 9}));
  const kernels::MoldynKernel moldyn(
      mesh::make_geometric_mesh({400, 2000, 10}));
  for (const PhasedKernel* kernel :
       {static_cast<const PhasedKernel*>(&euler),
        static_cast<const PhasedKernel*>(&moldyn)}) {
    const ForwardingKernel wrapper(*kernel);
    for (const auto dist : {inspector::Distribution::Block,
                            inspector::Distribution::Cyclic}) {
      PlanOptions plan_opt;
      plan_opt.num_procs = 4;
      plan_opt.k = 2;
      plan_opt.distribution = dist;
      const ExecutionPlan plan = build_execution_plan(*kernel, plan_opt);
      SweepOptions sweep_opt;
      sweep_opt.sweeps = 5;
      sweep_opt.batch = true;
      const NativeResult real = run_native_plan(*kernel, plan, sweep_opt);
      const NativeResult wrapped = run_native_plan(wrapper, plan, sweep_opt);
      EXPECT_EQ(real.reduction, wrapped.reduction);
      EXPECT_EQ(real.node_read, wrapped.node_read);
    }
  }
}

}  // namespace
}  // namespace earthred::core
