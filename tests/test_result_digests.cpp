// Pins the native executor's result bits across versions: every
// (kernel, P, k, distribution, sweeps) case below must reproduce the
// committed service::result_digest exactly. The batch-equivalence tests
// compare two executor paths within one build; this table is what fails
// when a change to the executor (or to a batch loop it calls) moves a
// single bit of any reduction or node-read array relative to the build
// that produced the table.
//
// Regenerate (only when a change is *meant* to move results) with
//   EARTHRED_DIGEST_DUMP=1 ./tests/test_result_digests
//     --gtest_filter=ResultDigests.NativeExecutorMatchesCommittedTable
// (one command line), which prints the table rows instead of checking them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/native_engine.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "service/job_builder.hpp"
#include "support/cpu_features.hpp"

namespace earthred {
namespace {

struct Pin {
  const char* kernel;
  std::uint32_t procs;
  std::uint32_t k;
  const char* dist;
  std::uint32_t sweeps;
  std::uint64_t digest;
};

// clang-format off
constexpr Pin kPins[] = {
#include "result_digests.inc"
};
// clang-format on

std::unique_ptr<core::PhasedKernel> make_kernel(const std::string& name) {
  if (name == "euler")
    return std::make_unique<kernels::EulerKernel>(
        mesh::make_geometric_mesh({180, 900, 5}));
  if (name == "moldyn")
    return std::make_unique<kernels::MoldynKernel>(
        mesh::make_moldyn_lattice({3, 300, 0.03, 7}));
  // Fractional Y: the sums are order-sensitive, so the digest pins the
  // accumulation order, not just the set of contributions.
  mesh::Mesh m = mesh::make_geometric_mesh({150, 800, 9});
  std::vector<double> y(m.num_edges());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = 1.0 / (3.0 + i);
  return std::make_unique<kernels::Fig1Kernel>(std::move(m), std::move(y),
                                               0.7);
}

std::uint64_t run_digest(const core::PhasedKernel& kernel, std::uint32_t P,
                         std::uint32_t k, const std::string& dist,
                         std::uint32_t sweeps) {
  core::PlanOptions popt;
  popt.num_procs = P;
  popt.k = k;
  popt.distribution = inspector::parse_distribution(dist);
  core::SweepOptions sopt;
  sopt.sweeps = sweeps;
  return service::result_digest(core::run_native_engine(kernel, popt, sopt));
}

void check_table(bool dump) {
  const std::vector<std::string> kernel_names = {"euler", "moldyn", "fig1"};
  const std::vector<std::string> dists = {"cyclic", "block", "block-cyclic"};

  std::map<std::tuple<std::string, std::uint32_t, std::uint32_t,
                      std::string, std::uint32_t>,
           std::uint64_t>
      table;
  for (const Pin& pin : kPins)
    table[{pin.kernel, pin.procs, pin.k, pin.dist, pin.sweeps}] =
        pin.digest;

  std::size_t checked = 0;
  for (const std::string& name : kernel_names) {
    const std::unique_ptr<core::PhasedKernel> kernel = make_kernel(name);
    for (const std::uint32_t P : {1u, 2u, 3u, 4u})
      for (const std::uint32_t k : {1u, 2u, 4u})
        for (const std::string& dist : dists)
          for (const std::uint32_t sweeps : {1u, 3u}) {
            const std::uint64_t got = run_digest(*kernel, P, k, dist, sweeps);
            if (dump) {
              std::printf("{\"%s\", %u, %u, \"%s\", %u, 0x%016llxull},\n",
                          name.c_str(), P, k, dist.c_str(), sweeps,
                          static_cast<unsigned long long>(got));
              continue;
            }
            const auto it = table.find({name, P, k, dist, sweeps});
            ASSERT_NE(it, table.end())
                << name << " P=" << P << " k=" << k << " " << dist
                << " sweeps=" << sweeps << " has no committed digest";
            EXPECT_EQ(got, it->second)
                << name << " P=" << P << " k=" << k << " " << dist
                << " sweeps=" << sweeps;
            ++checked;
          }
  }
  if (!dump) {
    EXPECT_EQ(checked, table.size());
  }
}

TEST(ResultDigests, NativeExecutorMatchesCommittedTable) {
  check_table(std::getenv("EARTHRED_DIGEST_DUMP") != nullptr);
}

TEST(ResultDigests, ScalarTierMatchesTheSameTable) {
  // Both batch tiers are bit-identical by contract, so the one table
  // holds on hosts with and without AVX-512.
  const support::CpuFeatures scalar{};
  support::set_cpu_features_for_test(&scalar);
  check_table(false);
  support::set_cpu_features_for_test(nullptr);
}

}  // namespace
}  // namespace earthred
