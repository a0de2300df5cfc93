// moldyn: non-bonded molecular dynamics force kernel (the moldyn benchmark
// of [14] the paper evaluates).
//
// Each time step sweeps the pair-interaction list: a pair computes a
// softened Lennard-Jones-style central force from the two molecules'
// positions and accumulates equal-and-opposite force contributions; the
// sweep-final update integrates positions from the completed forces.
//
//   reduction arrays : fx, fy, fz  (forces; LHS-indirect)
//   node read arrays : px, py, pz  (positions; replicated per sweep)
#pragma once

#include <cstdint>
#include <vector>

#include "core/kernel.hpp"
#include "mesh/mesh.hpp"

namespace earthred::kernels {

class MoldynKernel final : public core::PhasedKernel {
 public:
  /// `dt` scales the position update; forces are softened/clamped so the
  /// integration stays bounded over the paper's 100 time steps.
  explicit MoldynKernel(mesh::Mesh interactions, double dt = 1e-4);

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
  double dt_;
};

}  // namespace earthred::kernels
