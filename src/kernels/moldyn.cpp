#include "kernels/moldyn.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/ops_simd.hpp"
#include "support/check.hpp"

namespace earthred::kernels {

MoldynKernel::MoldynKernel(mesh::Mesh interactions, double dt)
    : mesh_(std::move(interactions)), dt_(dt) {
  mesh_.validate();
  ER_EXPECTS_MSG(!mesh_.coords.empty(),
                 "moldyn needs molecule coordinates");
}

core::KernelShape MoldynKernel::shape() const {
  return core::KernelShape{
      .num_nodes = mesh_.num_nodes,
      .num_edges = mesh_.num_edges(),
      .num_refs = 2,
      .num_reduction_arrays = 3,
      .num_node_read_arrays = 3,
  };
}

std::uint32_t MoldynKernel::ref(std::uint32_t r, std::uint64_t edge) const {
  ER_EXPECTS(r < 2 && edge < mesh_.num_edges());
  return r == 0 ? mesh_.edges[edge].a : mesh_.edges[edge].b;
}

void MoldynKernel::init_node_arrays(
    std::vector<std::vector<double>>& arrays) const {
  for (std::uint32_t v = 0; v < mesh_.num_nodes; ++v)
    for (int d = 0; d < 3; ++d)
      arrays[static_cast<std::size_t>(d)][v] = mesh_.coords[v][d];
}

void MoldynKernel::compute_edge(earth::FiberContext& ctx,
                                const core::CostTags& tags,
                                std::uint64_t edge_global,
                                std::uint64_t edge_slot,
                                std::span<const std::uint32_t> redirected,
                                core::ProcArrays& arrays) const {
  (void)edge_slot;
  const std::uint32_t m1 = mesh_.edges[edge_global].a;
  const std::uint32_t m2 = mesh_.edges[edge_global].b;

  double d[3];
  for (int a = 0; a < 3; ++a) {
    ctx.load(tags.node_read[static_cast<std::size_t>(a)], m1);
    ctx.load(tags.node_read[static_cast<std::size_t>(a)], m2);
    d[a] = arrays.node_read[static_cast<std::size_t>(a)][m1] -
           arrays.node_read[static_cast<std::size_t>(a)][m2];
  }
  // Softened LJ-style magnitude: repulsive near, attractive far, bounded
  // at r -> 0 by the +0.25 softening.
  const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.25;
  const double inv2 = 1.0 / r2;
  const double inv6 = inv2 * inv2 * inv2;
  const double mag = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
  const double clamped = std::clamp(mag, -32.0, 32.0);
  // The LJ evaluation costs ~30 FP operations including a divide (~20
  // cycles on an i860-class FPU); charge a representative count.
  ctx.charge_flops(40);

  for (int a = 0; a < 3; ++a) {
    const auto ra = static_cast<std::size_t>(a);
    const double f = clamped * d[a];
    ctx.load(tags.reduction[ra], redirected[0]);
    ctx.store(tags.reduction[ra], redirected[0]);
    arrays.reduction[ra][redirected[0]] += f;
    ctx.load(tags.reduction[ra], redirected[1]);
    ctx.store(tags.reduction[ra], redirected[1]);
    arrays.reduction[ra][redirected[1]] -= f;
    ctx.charge_flops(3);
  }
}

void MoldynKernel::compute_phase(earth::FiberContext& ctx,
                                 const core::CostTags&,
                                 const core::PhaseView& phase,
                                 core::ProcArrays& arrays) const {
  // Mirrors compute_edge's LJ evaluation exactly (same operations, same
  // order → bit-identical forces); the batch loop lives in ops_simd.
  ops::moldyn_phase(ops::MoldynArgs{
      .ia1 = phase.indir_row(0),
      .ia2 = phase.indir_row(1),
      .eg = phase.iter_global.data(),
      .edges = mesh_.edges.data(),
      .px = arrays.node_read[0],
      .py = arrays.node_read[1],
      .pz = arrays.node_read[2],
      .fx = arrays.reduction[0],
      .fy = arrays.reduction[1],
      .fz = arrays.reduction[2],
      .n = phase.num_iters,
  });
  ctx.charge_flops(49 * phase.num_iters);
}

void MoldynKernel::update_nodes(earth::FiberContext& ctx,
                                const core::CostTags& tags,
                                std::uint32_t begin, std::uint32_t end,
                                std::uint32_t base,
                                core::ProcArrays& arrays) const {
  for (std::uint32_t v = begin; v < end; ++v) {
    const std::uint32_t i = base + (v - begin);
    for (int a = 0; a < 3; ++a) {
      const auto ra = static_cast<std::size_t>(a);
      ctx.load(tags.reduction[ra], i);
      ctx.load(tags.node_read[ra], v);
      ctx.charge_flops(2);
      ctx.store(tags.node_read[ra], v);
      arrays.node_read[ra][v] += dt_ * arrays.reduction[ra][i];
    }
  }
}

}  // namespace earthred::kernels
