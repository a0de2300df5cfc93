// Transposed sparse matrix-vector product as an irregular reduction:
//
//   for each nonzero j (row r_j, column c_j, value v_j):
//     y[c_j] += v_j * x[r_j]
//
// This is the *single distinct indirection reference* case of Sec. 3 —
// the paper notes that here the LightInspector degenerates: every update
// happens while the element is owned, so no remote buffer and no second
// loop are needed. The kernel exists to exercise that path end-to-end
// (tests assert zero buffer slots) and as a realistic library citizen
// (A^T x shows up in least-squares and graph push-style algorithms).
#pragma once

#include <cstdint>
#include <vector>

#include "core/kernel.hpp"
#include "sparse/csr.hpp"

namespace earthred::kernels {

class SpmvTKernel final : public core::PhasedKernel {
 public:
  /// Computes y = A^T * x (y has A.ncols() elements). `x` is copied.
  SpmvTKernel(const sparse::CsrMatrix& A, std::vector<double> x);

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

  /// Host-side reference: y = A^T x.
  std::vector<double> reference() const;

 private:
  std::uint32_t ncols_;
  std::vector<std::uint32_t> row_;  ///< per nonzero
  std::vector<std::uint32_t> col_;  ///< per nonzero (the indirection)
  std::vector<double> val_;
  std::vector<double> x_;
};

}  // namespace earthred::kernels
