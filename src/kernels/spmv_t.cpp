#include "kernels/spmv_t.hpp"

#include "kernels/ops_simd.hpp"
#include "support/check.hpp"

namespace earthred::kernels {

SpmvTKernel::SpmvTKernel(const sparse::CsrMatrix& A, std::vector<double> x)
    : ncols_(A.ncols()), x_(std::move(x)) {
  ER_EXPECTS(x_.size() == A.nrows());
  row_.reserve(A.nnz());
  col_.reserve(A.nnz());
  val_.reserve(A.nnz());
  const auto row_ptr = A.row_ptr();
  const auto col_idx = A.col_idx();
  const auto values = A.values();
  for (std::uint32_t r = 0; r < A.nrows(); ++r) {
    for (std::uint64_t j = row_ptr[r]; j < row_ptr[r + 1]; ++j) {
      row_.push_back(r);
      col_.push_back(col_idx[j]);
      val_.push_back(values[j]);
    }
  }
}

core::KernelShape SpmvTKernel::shape() const {
  return core::KernelShape{
      .num_nodes = ncols_,
      .num_edges = val_.size(),
      .num_refs = 1,
      .num_reduction_arrays = 1,
      .num_node_read_arrays = 0,
  };
}

std::uint32_t SpmvTKernel::ref(std::uint32_t r, std::uint64_t edge) const {
  ER_EXPECTS(r == 0 && edge < col_.size());
  return col_[edge];
}

void SpmvTKernel::init_node_arrays(
    std::vector<std::vector<double>>&) const {}

void SpmvTKernel::compute_edge(earth::FiberContext& ctx,
                               const core::CostTags& tags,
                               std::uint64_t edge_global,
                               std::uint64_t edge_slot,
                               std::span<const std::uint32_t> redirected,
                               core::ProcArrays& arrays) const {
  // Value and row index stream with the iteration; x is gathered by row
  // (rows repeat consecutively in CSR order, so this is near-streaming
  // too — we address it through the edge tag at the row index).
  ctx.load(tags.edge_data, edge_slot * 2, 8);      // val
  ctx.load(tags.edge_data, edge_slot * 2 + 1, 4);  // row
  ctx.load(tags.indir, row_[edge_global], 8);      // x[row]
  ctx.charge_flops(2);
  ctx.load(tags.reduction[0], redirected[0]);
  ctx.store(tags.reduction[0], redirected[0]);
  arrays.reduction[0][redirected[0]] +=
      val_[edge_global] * x_[row_[edge_global]];
}

void SpmvTKernel::compute_phase(earth::FiberContext& ctx,
                                const core::CostTags&,
                                const core::PhaseView& phase,
                                core::ProcArrays& arrays) const {
  // Single-reference case: a pure gather-multiply-scatter stream over the
  // flattened indirection block (see ops_simd).
  ops::spmv_t_phase(ops::SpmvTArgs{
      .ia = phase.indir_row(0),
      .eg = phase.iter_global.data(),
      .row = row_.data(),
      .val = val_.data(),
      .x = x_.data(),
      .y = arrays.reduction[0].data(),
      .n = phase.num_iters,
  });
  ctx.charge_flops(2 * phase.num_iters);
}

void SpmvTKernel::update_nodes(earth::FiberContext&, const core::CostTags&,
                               std::uint32_t, std::uint32_t, std::uint32_t,
                               core::ProcArrays&) const {}

std::vector<double> SpmvTKernel::reference() const {
  std::vector<double> y(ncols_, 0.0);
  for (std::size_t j = 0; j < val_.size(); ++j)
    y[col_[j]] += val_[j] * x_[row_[j]];
  return y;
}

}  // namespace earthred::kernels
