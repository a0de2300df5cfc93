// The paper's Figure 1 loop as a kernel: the minimal irregular reduction.
//
//   for i = 1 .. num_edges
//     X(IA(i,1)) += Y(i) * C
//     X(IA(i,2)) += Y(i) * C
//
// One reduction array, two indirection references, no node-read arrays and
// no per-sweep node update. With integer-valued Y the reduction is exact
// in floating point regardless of summation order, which lets tests demand
// bitwise equality between the parallel engines and the sequential
// reference.
#pragma once

#include <cstdint>
#include <vector>

#include "core/kernel.hpp"
#include "mesh/mesh.hpp"

namespace earthred::kernels {

class Fig1Kernel final : public core::PhasedKernel {
 public:
  /// `y` holds one value per edge; `c` is the loop constant.
  Fig1Kernel(mesh::Mesh mesh, std::vector<double> y, double c = 2.0);

  /// Convenience: integer-valued Y derived deterministically from the
  /// edge id (exact summation for bitwise validation).
  static Fig1Kernel with_integer_values(mesh::Mesh mesh);

  core::KernelShape shape() const override;
  std::uint32_t ref(std::uint32_t r, std::uint64_t edge) const override;
  void init_node_arrays(
      std::vector<std::vector<double>>& arrays) const override;
  void compute_edge(earth::FiberContext& ctx, const core::CostTags& tags,
                    std::uint64_t edge_global, std::uint64_t edge_slot,
                    std::span<const std::uint32_t> redirected,
                    core::ProcArrays& arrays) const override;
  void compute_phase(earth::FiberContext& ctx, const core::CostTags& tags,
                     const core::PhaseView& phase,
                     core::ProcArrays& arrays) const override;
  void update_nodes(earth::FiberContext& ctx, const core::CostTags& tags,
                    std::uint32_t begin, std::uint32_t end,
                    std::uint32_t base,
                    core::ProcArrays& arrays) const override;

  const mesh::Mesh& mesh() const noexcept { return mesh_; }

 private:
  mesh::Mesh mesh_;
  std::vector<double> y_;
  double c_;
};

}  // namespace earthred::kernels
