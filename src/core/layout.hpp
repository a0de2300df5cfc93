#pragma once

// Locality-optimizing plan layout for irregular reductions.
//
// The phased kernels are gather/scatter-bound (docs/architecture.md §4:
// wider SIMD buys little, the memory system is the wall), so the lever
// left is *where* the gathers and scatters land. The layout pass inside
// build_execution_plan attacks that in three bit-safe steps:
//
//   1. portion-preserving RCM node renumbering — a reverse Cuthill-McKee
//      order is computed over the kernel's reference graph, then applied
//      *within each rotation portion only*: every element stays in the
//      portion (and thus the phase/ownership window) it had before, so
//      the plan is a pure relabeling and the floating-point accumulation
//      structure is untouched. The forward/inverse permutations ride in
//      the ExecutionPlan; run_native_plan executes a renumbered clone of
//      the kernel (PhasedKernel::clone_renumbered) and un-permutes the
//      result arrays at read-out, so callers never see the relabeling.
//   2. target-stable edge reordering — within each phase, iterations are
//      reordered so scatter targets ascend (sequential stores instead of
//      a random walk over the owned portion), but the *relative* order of
//      any two iterations contributing to the same target is preserved
//      via precedence-respecting list scheduling. Per-target FP
//      accumulation order is therefore unchanged by construction, which
//      is what keeps layout plans bit-identical to the per-edge
//      reference (gated in test_batch_equivalence).
//   3. cache-blocked phase tiles — each phase's iteration list is cut
//      into tiles sized from the detected cache geometry
//      (support::host_cache_info, overridable via PlanOptions), and the
//      batched loops software-prefetch the next tile's gather lines.
//      Tiling never changes evaluation order, only issue distance.
//
// Like the lowering strategy (core/strategy.hpp), the layout changes the
// *plan*, so it is a plan knob: it lives in PlanOptions, forks the
// PlanCache key, the plan-store path, the persistent plan header, and the
// shard content key when non-default.
// Results stay bit-identical across layouts by construction; what forks
// is the plan bytes, never the answer.

#include <cstdint>
#include <string_view>

namespace earthred::core {

/// Stable on-disk encoding (plan_io writes the numeric value into the
/// plan header): None must stay 0 so pre-layout plan files — which wrote
/// a zero reserved field — load as "no layout requested".
enum class LayoutKind : std::uint8_t {
  None = 0,  ///< Paper-faithful plan: canonical iteration order, no perm.
  Rcm = 1,   ///< RCM renumber + target-stable reorder + tiles.
  Auto = 2,  ///< Rcm when the kernel supports renumbering, else None.
};

/// "none", "rcm", "auto".
std::string_view to_string(LayoutKind kind);

/// Parses a layout name; throws `check_error` ("E-LAYOUT-NAME") on an
/// unknown spelling.
LayoutKind parse_layout(std::string_view name);

/// Applies the `EARTHRED_FORCE_LAYOUT` environment override: when
/// `requested` is None (the default) and the variable names a layout,
/// that layout becomes the effective request. An explicit non-default
/// request always wins over the environment. This is how CI's
/// layout-matrix job pushes every default-layout plan through rcm without
/// touching each test — legal only because layouts are bit-identical.
LayoutKind effective_layout(LayoutKind requested);

/// Tile size (iterations per tile) for the cache-blocked batched loops.
/// Sized so one tile's gather working set — `bytes_per_iter` of edge data
/// plus the prefetched lines of the next tile — fits comfortably in half
/// the L1d (the other half is left to the scatter stream and stack), with
/// the detected geometry from support::host_cache_info(). `override_iters`
/// (PlanOptions::layout_tile_iters) wins when non-zero. Returns 0 (no
/// tiling) only when `bytes_per_iter` is 0.
std::uint32_t layout_tile_iters(std::uint32_t bytes_per_iter,
                                std::uint32_t override_iters = 0);

}  // namespace earthred::core
