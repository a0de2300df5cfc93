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
// cycles through the FiberContext. Engines own the storage: per-processor
// reduction arrays (extended with the LightInspector's remote buffer) and
// per-processor replicated copies of the node read arrays.
#pragma once

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

/// Per-processor storage manipulated by a kernel.
struct ProcArrays {
  /// reduction[a][i]: element i of reduction array a. Length is
  /// num_nodes + buffer slots (rotation engine) or owned + ghosts
  /// (classic engine).
  std::vector<std::vector<double>> reduction;
  /// node_read[a][v]: replicated node-indexed read-only arrays.
  std::vector<std::vector<double>> node_read;
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
/// engine-owned ProcArrays.
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
