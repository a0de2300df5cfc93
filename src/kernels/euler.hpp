// euler: unstructured-mesh CFD kernel (derived from the class of codes the
// paper's euler benchmark represents [5]).
//
// Each time step sweeps the edges of the mesh: an edge computes a flux
// from the states of its two end nodes (pressure-difference and averaged
// velocity terms scaled by a per-edge geometric coefficient) and
// accumulates equal-and-opposite contributions into the nodes' residual
// arrays. The sweep-final node update relaxes the node state by the
// accumulated residuals.
//
//   reduction arrays : d_vel, d_pre (residuals; LHS-indirect)
//   node read arrays : vel, pre    (state; replicated, refreshed per sweep)
//   edge data        : coef        (geometric edge coefficient)
#pragma once

#include <cstdint>
#include <vector>

#include "core/kernel.hpp"
#include "mesh/mesh.hpp"

namespace earthred::kernels {

class EulerKernel final : public core::PhasedKernel {
 public:
  /// `dt` is the relaxation factor of the node update.
  explicit EulerKernel(mesh::Mesh mesh, double dt = 1e-3);

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
  void refresh_nodes(earth::FiberContext& ctx, const core::CostTags& tags,
                     std::uint32_t begin, std::uint32_t end,
                     std::span<const double* const> cur,
                     std::span<double* const> next,
                     std::span<double* const> x,
                     bool zero_x) const override;

  const mesh::Mesh& mesh() const noexcept { return mesh_; }

 private:
  mesh::Mesh mesh_;
  std::vector<double> coef_;  ///< per-edge geometric coefficient
  double dt_;
};

}  // namespace earthred::kernels
