// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// systematic grids over machine shape, strategy parameters, and cache
// geometry, each asserting the module's invariants at every point.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/classic_engine.hpp"
#include "core/mvm_engine.hpp"
#include "core/native_engine.hpp"
#include "core/reduction_engine.hpp"
#include "core/sequential.hpp"
#include "earth/cache.hpp"
#include "inspector/light_inspector.hpp"
#include "inspector/rotation.hpp"
#include "kernels/fig1.hpp"
#include "mesh/generators.hpp"
#include "sparse/nas_cg.hpp"
#include "support/prng.hpp"

namespace earthred {
namespace {

// ------------------------------------------------ rotation schedule grid

using ScheduleParam = std::tuple<std::uint32_t /*n*/, std::uint32_t /*P*/,
                                 std::uint32_t /*k*/>;

class RotationScheduleSweep
    : public ::testing::TestWithParam<ScheduleParam> {};

TEST_P(RotationScheduleSweep, OwnershipAlgebraInvariants) {
  const auto [n, P, k] = GetParam();
  const inspector::RotationSchedule s(n, P, k);
  const std::uint32_t kp = s.phases_per_sweep();
  ASSERT_EQ(kp, P * k);

  // Portions tile the element space.
  std::uint32_t covered = 0;
  for (std::uint32_t pid = 0; pid < kp; ++pid) {
    ASSERT_EQ(s.portion_begin(pid), covered);
    covered += s.portion_size(pid);
  }
  ASSERT_EQ(covered, n);

  for (std::uint32_t p = 0; p < P; ++p) {
    // owned_portion over a sweep visits kp distinct portions... one per
    // phase, and owning_phase inverts it.
    std::set<std::uint32_t> seen;
    for (std::uint32_t ph = 0; ph < kp; ++ph) {
      const std::uint32_t pid = s.owned_portion(p, ph);
      EXPECT_TRUE(seen.insert(pid).second);
      EXPECT_EQ(s.owning_phase(p, pid), ph);
      // Forwarding invariant: the next owner owns it k phases later.
      EXPECT_EQ(s.owning_phase(s.next_owner(p), pid), (ph + k) % kp);
    }
  }
  // Completion: last owning phase lies in the final k phases and the
  // final owner owns it then.
  for (std::uint32_t pid = 0; pid < kp; ++pid) {
    const std::uint32_t last = s.last_owning_phase(pid);
    EXPECT_GE(last, kp - k);
    EXPECT_EQ(s.owned_portion(s.final_owner(pid), last), pid);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RotationScheduleSweep,
    ::testing::Combine(::testing::Values(64u, 97u, 1000u),
                       ::testing::Values(1u, 2u, 3u, 8u),
                       ::testing::Values(1u, 2u, 4u)),
    [](const ::testing::TestParamInfo<ScheduleParam>& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_P" +
             std::to_string(std::get<1>(param_info.param)) + "_k" +
             std::to_string(std::get<2>(param_info.param));
    });

// ------------------------------------------------------ engine grid

using EngineParam =
    std::tuple<std::uint32_t /*P*/, std::uint32_t /*k*/,
               inspector::Distribution, bool /*dedup*/>;

class RotationEngineSweep : public ::testing::TestWithParam<EngineParam> {
 protected:
  static const kernels::Fig1Kernel& kernel() {
    static const kernels::Fig1Kernel k =
        kernels::Fig1Kernel::with_integer_values(
            mesh::make_geometric_mesh({120, 600, 33}));
    return k;
  }
  static const core::RunResult& sequential() {
    static const core::RunResult seq = [] {
      core::SequentialOptions sopt;
      sopt.sweeps = 3;
      sopt.machine.max_events = 50'000'000;
      return core::run_sequential_kernel(kernel(), sopt);
    }();
    return seq;
  }
};

TEST_P(RotationEngineSweep, ExactlyMatchesSequential) {
  const auto [P, k, dist, dedup] = GetParam();
  core::RotationOptions opt;
  opt.num_procs = P;
  opt.k = k;
  opt.distribution = dist;
  opt.inspector.dedup_buffers = dedup;
  opt.sweeps = 3;
  opt.machine.max_events = 50'000'000;
  const core::RunResult par = core::run_rotation_engine(kernel(), opt);
  const core::RunResult& seq = sequential();
  for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
    ASSERT_EQ(par.reduction[0][i], seq.reduction[0][i]) << "element " << i;
  // Conservation: total of the reduction equals 2*C*sum(Y) per sweep —
  // compare totals as a second, independent check.
  double total_par = 0, total_seq = 0;
  for (std::size_t i = 0; i < seq.reduction[0].size(); ++i) {
    total_par += par.reduction[0][i];
    total_seq += seq.reduction[0][i];
  }
  EXPECT_DOUBLE_EQ(total_par, total_seq);
}

TEST_P(RotationEngineSweep, NativeThreadsMatchSequential) {
  const auto [P, k, dist, dedup] = GetParam();
  core::PlanOptions plan_opt;
  core::SweepOptions sweep_opt;
  plan_opt.num_procs = P;
  plan_opt.k = k;
  plan_opt.distribution = dist;
  plan_opt.inspector.dedup_buffers = dedup;
  sweep_opt.sweeps = 3;
  const core::NativeResult par =
      core::run_native_engine(kernel(), plan_opt, sweep_opt);
  const core::RunResult& seq = sequential();
  for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
    ASSERT_EQ(par.reduction[0][i], seq.reduction[0][i]) << "element " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RotationEngineSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 7u, 8u),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(inspector::Distribution::Block,
                                         inspector::Distribution::Cyclic),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<EngineParam>& param_info) {
      return "P" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) +
             (std::get<2>(param_info.param) == inspector::Distribution::Block
                  ? "_block"
                  : "_cyclic") +
             (std::get<3>(param_info.param) ? "_dedup" : "_perref");
    });

// ---------------------------------------------------------- mvm grid

using MvmParam = std::tuple<std::uint32_t /*P*/, std::uint32_t /*k*/,
                            std::uint32_t /*sweeps*/>;

class MvmEngineSweep : public ::testing::TestWithParam<MvmParam> {};

TEST_P(MvmEngineSweep, MatchesCsrReference) {
  const auto [P, k, sweeps] = GetParam();
  static const sparse::CsrMatrix A =
      sparse::make_nas_cg_matrix({256, 4, 0.1, 10.0, 314159265.0});
  static const std::vector<double> x = [] {
    Xoshiro256 rng(5);
    std::vector<double> v(256);
    for (auto& e : v) e = rng.uniform(-1, 1);
    return v;
  }();
  static const std::vector<double> want = [] {
    std::vector<double> y(256);
    A.spmv(x, y);
    return y;
  }();

  core::MvmOptions opt;
  opt.num_procs = P;
  opt.k = k;
  opt.sweeps = sweeps;
  opt.machine.max_events = 50'000'000;
  const core::RunResult r = core::run_mvm_engine(A, x, opt);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_NEAR(r.reduction[0][i], want[i],
                1e-9 * std::max(1.0, std::abs(want[i])));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MvmEngineSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 3u)),
    [](const ::testing::TestParamInfo<MvmParam>& param_info) {
      return "P" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

// ------------------------------------------------------ cache geometry

using CacheParam = std::tuple<std::uint32_t /*size*/, std::uint32_t /*line*/,
                              std::uint32_t /*ways*/>;

class CacheGeometrySweep : public ::testing::TestWithParam<CacheParam> {};

TEST_P(CacheGeometrySweep, HitRateBoundsAndDeterminism) {
  const auto [size, line, ways] = GetParam();
  earth::CacheConfig cc;
  cc.size_bytes = size;
  cc.line_bytes = line;
  cc.ways = ways;
  earth::CacheModel a(cc), b(cc);

  Xoshiro256 rng(99);
  const std::uint32_t working_set = size / 2;  // fits: expect high hits
  std::uint64_t agree = 0;
  constexpr int kAccesses = 20000;
  for (int i = 0; i < kAccesses; ++i) {
    const std::uint64_t addr = rng.below(working_set);
    const bool ha = a.access(addr);
    const bool hb = b.access(addr);
    agree += (ha == hb);
  }
  EXPECT_EQ(agree, static_cast<std::uint64_t>(kAccesses));  // deterministic
  EXPECT_EQ(a.hits() + a.misses(), static_cast<std::uint64_t>(kAccesses));
  // Working set fits in half the cache: compulsory misses only-ish.
  EXPECT_LT(static_cast<double>(a.misses()),
            0.25 * static_cast<double>(kAccesses));
  // Cold misses at least one per touched line.
  EXPECT_GE(a.misses(), static_cast<std::uint64_t>(1));
}

TEST_P(CacheGeometrySweep, ThrashingWorkingSetMisses) {
  const auto [size, line, ways] = GetParam();
  earth::CacheConfig cc;
  cc.size_bytes = size;
  cc.line_bytes = line;
  cc.ways = ways;
  earth::CacheModel c(cc);
  // Cyclic sweep over 8x the cache: LRU guarantees a miss every access
  // after warmup.
  const std::uint64_t span = 8ULL * size;
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t addr = 0; addr < span; addr += line) c.access(addr);
  const double miss_rate =
      static_cast<double>(c.misses()) /
      static_cast<double>(c.hits() + c.misses());
  EXPECT_GT(miss_rate, 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(CacheParam{4096, 32, 1}, CacheParam{4096, 32, 4},
                      CacheParam{16384, 32, 4}, CacheParam{16384, 64, 2},
                      CacheParam{65536, 128, 8}, CacheParam{1024, 16, 2}),
    [](const ::testing::TestParamInfo<CacheParam>& param_info) {
      return "s" + std::to_string(std::get<0>(param_info.param)) + "_l" +
             std::to_string(std::get<1>(param_info.param)) + "_w" +
             std::to_string(std::get<2>(param_info.param));
    });

// ----------------------------------------------- inspector sweep

using InspectorParam = std::tuple<std::uint32_t /*P*/, std::uint32_t /*k*/,
                                  std::uint32_t /*refs*/>;

class LightInspectorSweep
    : public ::testing::TestWithParam<InspectorParam> {};

TEST_P(LightInspectorSweep, EveryIterationPlacedOnceEveryDeferralFolded) {
  const auto [P, k, nrefs] = GetParam();
  const std::uint32_t n = 40 * P * k;
  const inspector::RotationSchedule sched(n, P, k);
  Xoshiro256 rng(1234 + P * 100 + k * 10 + nrefs);
  inspector::IterationRefs iters;
  iters.refs.resize(nrefs);
  const std::uint32_t niter = 300;
  for (std::uint32_t i = 0; i < niter; ++i) {
    iters.global_iter.push_back(i);
    for (auto& row : iters.refs)
      row.push_back(static_cast<std::uint32_t>(rng.below(n)));
  }
  for (std::uint32_t proc = 0; proc < P; ++proc) {
    const inspector::InspectorResult res =
        inspector::run_light_inspector(sched, proc, iters);
    std::uint64_t placed = 0, redirects = 0, folds = 0;
    for (const auto& phase : res.phases) {
      placed += phase.iter_global.size();
      folds += phase.copy_dst.size();
      for (const std::uint32_t v : phase.indir_flat) redirects += (v >= n);
    }
    EXPECT_EQ(placed, niter);
    EXPECT_EQ(redirects, folds);  // one fold per deferred reference
    EXPECT_EQ(res.num_buffer_slots, folds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LightInspectorSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 6u),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 2u, 4u)),
    [](const ::testing::TestParamInfo<InspectorParam>& param_info) {
      return "P" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_r" +
             std::to_string(std::get<2>(param_info.param));
    });

}  // namespace
}  // namespace earthred
