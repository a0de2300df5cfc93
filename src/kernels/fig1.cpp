#include "kernels/fig1.hpp"

#include "kernels/ops_simd.hpp"
#include "support/check.hpp"

namespace earthred::kernels {

Fig1Kernel::Fig1Kernel(mesh::Mesh mesh, std::vector<double> y, double c)
    : mesh_(std::move(mesh)), y_(std::move(y)), c_(c) {
  mesh_.validate();
  ER_EXPECTS(y_.size() == mesh_.num_edges());
}

Fig1Kernel Fig1Kernel::with_integer_values(mesh::Mesh mesh) {
  std::vector<double> y;
  y.reserve(mesh.num_edges());
  for (std::uint64_t e = 0; e < mesh.num_edges(); ++e)
    y.push_back(static_cast<double>((e % 13) + 1));
  return Fig1Kernel(std::move(mesh), std::move(y), 2.0);
}

core::KernelShape Fig1Kernel::shape() const {
  return core::KernelShape{
      .num_nodes = mesh_.num_nodes,
      .num_edges = mesh_.num_edges(),
      .num_refs = 2,
      .num_reduction_arrays = 1,
      .num_node_read_arrays = 0,
  };
}

std::uint32_t Fig1Kernel::ref(std::uint32_t r, std::uint64_t edge) const {
  ER_EXPECTS(r < 2 && edge < mesh_.num_edges());
  return r == 0 ? mesh_.edges[edge].a : mesh_.edges[edge].b;
}

void Fig1Kernel::init_node_arrays(
    std::vector<std::vector<double>>&) const {}

void Fig1Kernel::compute_edge(earth::FiberContext& ctx,
                              const core::CostTags& tags,
                              std::uint64_t edge_global,
                              std::uint64_t edge_slot,
                              std::span<const std::uint32_t> redirected,
                              core::ProcArrays& arrays) const {
  ctx.load(tags.edge_data, edge_slot, 8);
  const double contribution = y_[edge_global] * c_;
  ctx.charge_flops(1);
  for (std::uint32_t r = 0; r < 2; ++r) {
    ctx.load(tags.reduction[0], redirected[r]);
    ctx.charge_flops(1);
    ctx.store(tags.reduction[0], redirected[r]);
    arrays.reduction[0][redirected[r]] += contribution;
  }
}

void Fig1Kernel::compute_phase(earth::FiberContext& ctx,
                               const core::CostTags&,
                               const core::PhaseView& phase,
                               core::ProcArrays& arrays) const {
  // Same floating-point operations in the same order as compute_edge;
  // the batch loop itself lives in ops_simd (scalar and AVX-512 tiers,
  // both bit-identical).
  ops::fig1_phase(ops::Fig1Args{
      .ia1 = phase.indir_row(0),
      .ia2 = phase.indir_row(1),
      .eg = phase.iter_global.data(),
      .y = y_.data(),
      .c = c_,
      .x = arrays.reduction[0].data(),
      .n = phase.num_iters,
  });
  ctx.charge_flops(3 * phase.num_iters);
}

void Fig1Kernel::update_nodes(earth::FiberContext&, const core::CostTags&,
                              std::uint32_t, std::uint32_t, std::uint32_t,
                              core::ProcArrays&) const {}

}  // namespace earthred::kernels
