// Kernel abstraction for LHS-indirect irregular reductions.
//
// A kernel describes one time-step sweep of a Figure-1-style loop:
//
//   for each edge e:                       (iterations, distributed)
//     for each reference r:                (IA(e,1), IA(e,2), ...)
//       X_a[IA(e,r)] += f_a(edge data, node read data)   for each array a
//   for each node v:                       (once per sweep, when complete)
//     node read arrays[v] = g(reduction arrays[v], ...)
//
// The kernel performs the *real* floating-point computation (so engines
// can validate against the sequential reference) while charging simulated
// cycles through the FiberContext. Engines own the storage and hand
// kernels views of it (ProcArrays): reduction arrays addressed in one
// index space of elements plus the LightInspector's remote-buffer slots,
// and the node read arrays.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "earth/cost.hpp"
#include "earth/fiber.hpp"

namespace earthred::core {

/// Sizes describing a kernel's data.
struct KernelShape {
  std::uint32_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint32_t num_refs = 0;             ///< indirection refs per edge
  std::uint32_t num_reduction_arrays = 0; ///< arrays updated through refs
  std::uint32_t num_node_read_arrays = 0; ///< node arrays read per edge
};

/// One reduction array in the plan's single index space: ids below
/// `num_elements` are elements and address `elem`; ids at or above it are
/// the LightInspector's remote-buffer slots and address
/// `slot[id - num_elements]`. The native executor points `elem` at the
/// job's one shared array and `slot` at the worker's private buffer; the
/// engines that keep elements and slots in one contiguous array view it
/// through `over`, which makes `slot == elem + num_elements`.
struct ReductionView {
  double* elem = nullptr;
  double* slot = nullptr;
  std::uint32_t num_elements = 0;

  double& operator[](std::uint32_t i) const noexcept {
    return i < num_elements ? elem[i] : slot[i - num_elements];
  }

  /// View of one contiguous array whose slots follow its first
  /// `num_elements` entries.
  static ReductionView over(std::vector<double>& a,
                            std::uint32_t num_elements) noexcept {
    return ReductionView{a.data(), a.data() + num_elements, num_elements};
  }
};

/// Per-processor views of the storage a kernel manipulates; the engines
/// own the arrays behind them.
struct ProcArrays {
  /// reduction[a][i]: element or buffer slot i of reduction array a.
  std::vector<ReductionView> reduction;
  /// node_read[a][v]: node-indexed arrays read per edge (written only by
  /// update_nodes and refresh_nodes).
  std::vector<double*> node_read;
};

/// Owning storage of the engines that keep each reduction array's
/// elements and buffer slots in one contiguous array (the simulator, the
/// classic and the sequential engines).
struct ProcStorage {
  std::vector<std::vector<double>> reduction;
  std::vector<std::vector<double>> node_read;

  /// Kernel views, every reduction array split at `num_elements` (see
  /// ReductionView::over). Valid until an array is resized.
  ProcArrays view(std::uint32_t num_elements) {
    ProcArrays v;
    for (std::vector<double>& a : reduction)
      v.reduction.push_back(ReductionView::over(a, num_elements));
    for (std::vector<double>& a : node_read) v.node_read.push_back(a.data());
    return v;
  }
};

/// Synthetic-address tags for the cost model (see earth/cost.hpp).
struct CostTags {
  std::vector<earth::ArrayTag> reduction;
  std::vector<earth::ArrayTag> node_read;
  earth::ArrayTag edge_data{};  ///< iteration-aligned values (Y of Fig. 1)
  earth::ArrayTag indir{};      ///< redirected indirection arrays
};

/// Read-only view of one executor phase in the flattened
/// structure-of-arrays layout the LightInspector emits: the redirected
/// indirection of all reference slots lives in a single contiguous block,
/// ref-major, so batch executors stream it without touching `num_refs`
/// separate heap vectors.
struct PhaseView {
  /// Global iteration ids in execution order.
  std::span<const std::uint32_t> iter_global;
  /// Local iteration indices (contiguous post-inspection slots).
  std::span<const std::uint32_t> iter_local;
  /// Flattened redirected indirection: reference slot r of iteration j is
  /// `indir[r * num_iters + j]`.
  std::span<const std::uint32_t> indir;
  std::size_t num_iters = 0;
  std::uint32_t num_refs = 0;

  /// Contiguous redirected indices for reference slot `r`.
  const std::uint32_t* indir_row(std::uint32_t r) const noexcept {
    return indir.data() + static_cast<std::size_t>(r) * num_iters;
  }
};

/// Interface implemented by euler, moldyn, and the synthetic test kernels.
///
/// Thread-compatibility: kernels are immutable after construction and
/// shared by all simulated processors; all mutable state lives in the
/// engine-owned storage behind ProcArrays.
class PhasedKernel {
 public:
  virtual ~PhasedKernel() = default;

  virtual KernelShape shape() const = 0;

  /// IA(edge, r): the element updated by `edge` through reference slot r.
  virtual std::uint32_t ref(std::uint32_t r, std::uint64_t edge) const = 0;

  /// Fills initial node read array values (identical on every processor).
  /// `arrays` arrives sized [num_node_read_arrays][num_nodes], zeroed.
  virtual void init_node_arrays(
      std::vector<std::vector<double>>& arrays) const = 0;

  /// Executes edge `edge_global`: reads kernel-owned edge data and
  /// `arrays.node_read`, accumulates into `arrays.reduction` at
  /// `redirected[r]` (which the engine derived from the inspector — it may
  /// be a buffer slot rather than the plain element).
  ///
  /// Cost charging: use `edge_slot` (the contiguous post-inspection slot
  /// of this iteration) as the address index for edge-aligned loads so the
  /// cache model sees the gathered streaming layout; use `redirected[r]`
  /// for reduction accesses and ref(r, edge_global) for node reads.
  virtual void compute_edge(earth::FiberContext& ctx, const CostTags& tags,
                            std::uint64_t edge_global,
                            std::uint64_t edge_slot,
                            std::span<const std::uint32_t> redirected,
                            ProcArrays& arrays) const = 0;

  /// Sweep-final node update for elements [begin, end): the reduction
  /// values of that range are complete. `base` is the offset of element
  /// `begin` within arrays.reduction (0 for the rotation engine; the
  /// owned-block offset for the classic engine).
  virtual void update_nodes(earth::FiberContext& ctx, const CostTags& tags,
                            std::uint32_t begin, std::uint32_t end,
                            std::uint32_t base, ProcArrays& arrays) const = 0;

  /// Native refresh entry point: the sweep-final node update of the
  /// completed portion [begin, end), fused with the executor's parity copy
  /// and X re-zero. For every node-read array a and v in [begin, end) it
  /// writes next[a][v] = cur[a][v] advanced by the completed reductions
  /// x[*][v], with exactly update_nodes' floating-point operations in the
  /// same order (bit-identical); when `zero_x` is set it then zeroes
  /// x[b][v] for every reduction array b. Nothing outside [begin, end) is
  /// touched. `cur` and `next` hold num_node_read_arrays pointers to
  /// distinct node-indexed arrays; `x` holds num_reduction_arrays pointers
  /// to element-indexed arrays (no buffer slots).
  ///
  /// The default copies cur into next, runs update_nodes over views whose
  /// node-read arrays are `next` and whose reduction arrays are `x`, then
  /// zeroes x — so kernels that don't override it (wrappers, compiled
  /// ones) stay correct. Concrete kernels override it with one fused pass
  /// sharing update_nodes' per-node arithmetic; only the native executor
  /// calls it, while the cycle-charging engines keep calling update_nodes.
  virtual void refresh_nodes(earth::FiberContext& ctx, const CostTags& tags,
                             std::uint32_t begin, std::uint32_t end,
                             std::span<const double* const> cur,
                             std::span<double* const> next,
                             std::span<double* const> x, bool zero_x) const {
    ProcArrays arrays;
    for (double* a : x) arrays.reduction.push_back({a, nullptr, end});
    arrays.node_read.assign(next.begin(), next.end());
    for (std::size_t a = 0; a < next.size(); ++a)
      std::copy(cur[a] + begin, cur[a] + end, next[a] + begin);
    update_nodes(ctx, tags, begin, end, begin, arrays);
    if (zero_x)
      for (double* a : x) std::fill(a + begin, a + end, 0.0);
  }

  /// Batch entry point: executes every iteration of `phase` in order,
  /// producing results bit-identical to the equivalent sequence of
  /// compute_edge calls (same floating-point operations, same order).
  /// Concrete kernels override this with a tight loop over the flattened
  /// indirection block — no per-edge virtual dispatch, no per-access cost
  /// charging — which is the native engine's hot path. The default
  /// implementation falls back to per-edge compute_edge, so kernels that
  /// don't override it (e.g. compiler-produced ones) stay correct, and
  /// simulated-machine engines keep calling compute_edge directly for
  /// cycle-accurate charging.
  virtual void compute_phase(earth::FiberContext& ctx, const CostTags& tags,
                             const PhaseView& phase,
                             ProcArrays& arrays) const {
    std::vector<std::uint32_t> redirected(phase.num_refs);
    for (std::size_t j = 0; j < phase.num_iters; ++j) {
      for (std::uint32_t r = 0; r < phase.num_refs; ++r)
        redirected[r] = phase.indir_row(r)[j];
      compute_edge(ctx, tags, phase.iter_global[j], phase.iter_local[j],
                   redirected, arrays);
    }
  }
};

}  // namespace earthred::core
