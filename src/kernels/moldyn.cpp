#include "kernels/moldyn.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/ops_simd.hpp"
#include "support/check.hpp"

namespace earthred::kernels {

namespace {
/// The sweep-final integration of one position coordinate by its
/// completed force, shared by update_nodes and refresh_nodes so both
/// perform the same operations in the same order.
inline double integrate(double position, double dt, double force) {
  return position + dt * force;
}
}  // namespace

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
      arrays.node_read[ra][v] =
          integrate(arrays.node_read[ra][v], dt_, arrays.reduction[ra][i]);
    }
  }
}

void MoldynKernel::refresh_nodes(earth::FiberContext&,
                                 const core::CostTags&, std::uint32_t begin,
                                 std::uint32_t end,
                                 std::span<const double* const> cur,
                                 std::span<double* const> next,
                                 std::span<double* const> x,
                                 bool zero_x) const {
  // One pass over the portion: read position and force, write the next
  // parity, zero the force — update_nodes' arithmetic through integrate().
  const double dt = dt_;
  const double* __restrict px = cur[0];
  const double* __restrict py = cur[1];
  const double* __restrict pz = cur[2];
  double* __restrict px_next = next[0];
  double* __restrict py_next = next[1];
  double* __restrict pz_next = next[2];
  double* __restrict fx = x[0];
  double* __restrict fy = x[1];
  double* __restrict fz = x[2];
  for (std::uint32_t v = begin; v < end; ++v) {
    px_next[v] = integrate(px[v], dt, fx[v]);
    py_next[v] = integrate(py[v], dt, fy[v]);
    pz_next[v] = integrate(pz[v], dt, fz[v]);
    if (zero_x) {
      fx[v] = 0.0;
      fy[v] = 0.0;
      fz[v] = 0.0;
    }
  }
}

}  // namespace earthred::kernels
