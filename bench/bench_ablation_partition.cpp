// Ablation: partitioning (in)dependence — the paper's central claim.
//
// "The key idea in our execution model is that the frequency and volume
// of communication is independent of the contents of the indirection
// arrays ... the performance ... is largely independent of the
// partitioning of the problem." (Abstract, Sec. 1)
//
// We renumber the euler mesh three ways — natural generator order,
// randomly scrambled, and RCB-partition-major — and run both engines on
// each. The classic owner-computes scheme's traffic and time swing with
// the numbering quality; the rotation scheme's message count and byte
// volume are identical across all three.
//
// Flags: --sweeps=N (default 30), --procs=P (default 16).
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/classic_engine.hpp"
#include "core/reduction_engine.hpp"
#include "kernels/euler.hpp"
#include "mesh/generators.hpp"
#include "mesh/partition.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace earthred;
  const Options opt(argc, argv);
  const auto sweeps = static_cast<std::uint32_t>(opt.get_int("sweeps", 30));
  const auto P = static_cast<std::uint32_t>(opt.get_int("procs", 16));
  const earth::MachineConfig machine = bench::machine_from_options(opt);

  const mesh::Mesh natural = mesh::euler_mesh_small();

  // Scrambled numbering.
  const mesh::Mesh scrambled = mesh::shuffle_nodes(natural, 101);

  // RCB-partitioned numbering (aligned with P block owners).
  const auto part = mesh::rcb_partition(scrambled, P);
  const auto perm = mesh::partition_order(part, P);
  const mesh::Mesh partitioned = mesh::renumber(scrambled, perm);

  std::printf("euler 2K, %u sweeps, P=%u; RCB edge cut: %llu of %llu\n",
              sweeps, P,
              static_cast<unsigned long long>(
                  mesh::edge_cut(scrambled, part)),
              static_cast<unsigned long long>(scrambled.num_edges()));

  Table t("Ablation — numbering/partitioning sensitivity");
  t.set_header({"numbering", "engine", "time (s)", "msgs", "bytes"});

  const struct {
    const char* name;
    const mesh::Mesh* mesh;
  } variants[] = {{"natural", &natural},
                  {"scrambled", &scrambled},
                  {"RCB-partitioned", &partitioned}};

  for (const auto& v : variants) {
    const kernels::EulerKernel kernel(*v.mesh);
    {
      core::RotationOptions ropt;
      ropt.num_procs = P;
      ropt.k = 2;
      ropt.sweeps = sweeps;
      ropt.machine = machine;
      ropt.collect_results = false;
      const core::RunResult r = core::run_rotation_engine(kernel, ropt);
      t.add_row({v.name, "rotation",
                 fmt_f(bench::to_seconds(r.total_cycles), 3),
                 fmt_group(static_cast<long long>(r.machine.total_msgs())),
                 fmt_group(static_cast<long long>(r.machine.total_bytes()))});
    }
    {
      core::ClassicOptions copt;
      copt.num_procs = P;
      copt.sweeps = sweeps;
      copt.machine = machine;
      copt.collect_results = false;
      const core::RunResult r = core::run_classic_engine(kernel, copt);
      t.add_row({v.name, "classic",
                 fmt_f(bench::to_seconds(r.total_cycles), 3),
                 fmt_group(static_cast<long long>(r.machine.total_msgs())),
                 fmt_group(static_cast<long long>(r.machine.total_bytes()))});
    }
  }
  t.print(std::cout);
  std::printf("rotation rows must be identical across numberings; classic "
              "rows degrade without partitioning.\n");
  return 0;
}
