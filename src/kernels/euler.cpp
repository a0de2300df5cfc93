#include "kernels/euler.hpp"

#include <cmath>

#include "kernels/ops_simd.hpp"
#include "support/check.hpp"

namespace earthred::kernels {

namespace {
constexpr std::uint32_t kVel = 0;  // array indices
constexpr std::uint32_t kPre = 1;

/// The sweep-final relaxation of one state value by its completed
/// residual, shared by update_nodes and refresh_nodes so both perform the
/// same operations in the same order.
inline double relax(double state, double dt, double residual) {
  return state + dt * residual;
}
}  // namespace

EulerKernel::EulerKernel(mesh::Mesh mesh, double dt)
    : mesh_(std::move(mesh)), dt_(dt) {
  mesh_.validate();
  ER_EXPECTS_MSG(!mesh_.coords.empty(),
                 "euler needs node coordinates for edge coefficients");
  coef_.reserve(mesh_.num_edges());
  for (const mesh::Edge& e : mesh_.edges) {
    const auto& a = mesh_.coords[e.a];
    const auto& b = mesh_.coords[e.b];
    const double dx = a[0] - b[0];
    const double dy = a[1] - b[1];
    const double dz = a[2] - b[2];
    const double len = std::sqrt(dx * dx + dy * dy + dz * dz);
    coef_.push_back(1.0 / (1.0 + 64.0 * len));  // shorter edge, larger flux
  }
}

core::KernelShape EulerKernel::shape() const {
  return core::KernelShape{
      .num_nodes = mesh_.num_nodes,
      .num_edges = mesh_.num_edges(),
      .num_refs = 2,
      .num_reduction_arrays = 2,
      .num_node_read_arrays = 2,
  };
}

std::uint32_t EulerKernel::ref(std::uint32_t r, std::uint64_t edge) const {
  ER_EXPECTS(r < 2 && edge < mesh_.num_edges());
  return r == 0 ? mesh_.edges[edge].a : mesh_.edges[edge].b;
}

void EulerKernel::init_node_arrays(
    std::vector<std::vector<double>>& arrays) const {
  // Smooth initial state derived from node position: a pressure hill in
  // the middle of the domain, mild velocity gradient.
  for (std::uint32_t v = 0; v < mesh_.num_nodes; ++v) {
    const double x = mesh_.coords[v][0];
    const double y = mesh_.coords[v][1];
    const double z = mesh_.coords[v][2];
    arrays[kVel][v] = 0.1 * (x - 0.5);
    arrays[kPre][v] =
        1.0 + std::exp(-8.0 * ((x - 0.5) * (x - 0.5) +
                               (y - 0.5) * (y - 0.5) +
                               (z - 0.5) * (z - 0.5)));
  }
}

void EulerKernel::compute_edge(earth::FiberContext& ctx,
                               const core::CostTags& tags,
                               std::uint64_t edge_global,
                               std::uint64_t edge_slot,
                               std::span<const std::uint32_t> redirected,
                               core::ProcArrays& arrays) const {
  const std::uint32_t n1 = mesh_.edges[edge_global].a;
  const std::uint32_t n2 = mesh_.edges[edge_global].b;

  ctx.load(tags.edge_data, edge_slot, 8);
  ctx.load(tags.node_read[kVel], n1);
  ctx.load(tags.node_read[kVel], n2);
  ctx.load(tags.node_read[kPre], n1);
  ctx.load(tags.node_read[kPre], n2);

  const double c = coef_[edge_global];
  const double v1 = arrays.node_read[kVel][n1];
  const double v2 = arrays.node_read[kVel][n2];
  const double p1 = arrays.node_read[kPre][n1];
  const double p2 = arrays.node_read[kPre][n2];
  // Upwind-ish flux: pressure difference drives velocity residual,
  // velocity average advects pressure.
  const double vflux = c * (p1 - p2);
  const double pflux = c * 0.5 * (v1 + v2) + 0.25 * c * (p1 - p2);
  // A real euler flux evaluation is ~40-60 scalar FP operations per edge
  // (Riemann-solver terms, several divides); charge a representative
  // count rather than the simplified arithmetic above.
  ctx.charge_flops(48);

  // Equal-and-opposite accumulation into both end nodes.
  ctx.load(tags.reduction[kVel], redirected[0]);
  ctx.store(tags.reduction[kVel], redirected[0]);
  arrays.reduction[kVel][redirected[0]] += vflux;
  ctx.load(tags.reduction[kVel], redirected[1]);
  ctx.store(tags.reduction[kVel], redirected[1]);
  arrays.reduction[kVel][redirected[1]] -= vflux;
  ctx.load(tags.reduction[kPre], redirected[0]);
  ctx.store(tags.reduction[kPre], redirected[0]);
  arrays.reduction[kPre][redirected[0]] += pflux;
  ctx.load(tags.reduction[kPre], redirected[1]);
  ctx.store(tags.reduction[kPre], redirected[1]);
  arrays.reduction[kPre][redirected[1]] -= pflux;
  ctx.charge_flops(4);
}

void EulerKernel::compute_phase(earth::FiberContext& ctx,
                                const core::CostTags&,
                                const core::PhaseView& phase,
                                core::ProcArrays& arrays) const {
  // Same flux arithmetic as compute_edge, expression for expression, so
  // results are bit-identical; the batch loop lives in ops_simd.
  ops::euler_phase(ops::EulerArgs{
      .ia1 = phase.indir_row(0),
      .ia2 = phase.indir_row(1),
      .eg = phase.iter_global.data(),
      .edges = mesh_.edges.data(),
      .coef = coef_.data(),
      .vel = arrays.node_read[kVel],
      .pre = arrays.node_read[kPre],
      .dvel = arrays.reduction[kVel],
      .dpre = arrays.reduction[kPre],
      .n = phase.num_iters,
  });
  ctx.charge_flops(52 * phase.num_iters);
}

void EulerKernel::update_nodes(earth::FiberContext& ctx,
                               const core::CostTags& tags,
                               std::uint32_t begin, std::uint32_t end,
                               std::uint32_t base,
                               core::ProcArrays& arrays) const {
  for (std::uint32_t v = begin; v < end; ++v) {
    const std::uint32_t i = base + (v - begin);
    ctx.load(tags.reduction[kVel], i);
    ctx.load(tags.reduction[kPre], i);
    ctx.load(tags.node_read[kVel], v);
    ctx.load(tags.node_read[kPre], v);
    ctx.charge_flops(4);
    ctx.store(tags.node_read[kVel], v);
    ctx.store(tags.node_read[kPre], v);
    arrays.node_read[kVel][v] =
        relax(arrays.node_read[kVel][v], dt_, arrays.reduction[kVel][i]);
    arrays.node_read[kPre][v] =
        relax(arrays.node_read[kPre][v], dt_, arrays.reduction[kPre][i]);
  }
}

void EulerKernel::refresh_nodes(earth::FiberContext&, const core::CostTags&,
                                std::uint32_t begin, std::uint32_t end,
                                std::span<const double* const> cur,
                                std::span<double* const> next,
                                std::span<double* const> x,
                                bool zero_x) const {
  // One pass over the portion: read state and residual, write the next
  // parity, zero the residual — update_nodes' arithmetic through relax().
  const double dt = dt_;
  const double* __restrict vel = cur[kVel];
  const double* __restrict pre = cur[kPre];
  double* __restrict vel_next = next[kVel];
  double* __restrict pre_next = next[kPre];
  double* __restrict dvel = x[kVel];
  double* __restrict dpre = x[kPre];
  for (std::uint32_t v = begin; v < end; ++v) {
    vel_next[v] = relax(vel[v], dt, dvel[v]);
    pre_next[v] = relax(pre[v], dt, dpre[v]);
    if (zero_x) {
      dvel[v] = 0.0;
      dpre[v] = 0.0;
    }
  }
}

}  // namespace earthred::kernels
