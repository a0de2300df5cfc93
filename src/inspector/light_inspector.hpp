// The LightInspector (Sec. 3 of the paper).
//
// Runtime preprocessing that runs *independently on each processor* — no
// inter-processor communication, which is what makes it "light" compared
// to the CHAOS-style inspector/executor. Given the iterations assigned to
// one processor and the indirection references each iteration makes into
// the reduction array, it produces:
//
//   1. the partition of iterations into the k*P phases (each iteration is
//      assigned to the earliest phase in which one of its referenced
//      portions is owned by this processor);
//   2. redirected indirection arrays per phase: a reference owned in the
//      iteration's phase keeps its element index; a reference owned only
//      in a later phase is redirected to a *remote buffer* slot appended
//      past the reduction array (the paper's Figure 3 "location 8, 9, ...");
//   3. the per-phase second loop (copy1_out/copy2_out in Figure 3) that
//      folds each buffer slot into its element during the phase in which
//      the element is owned.
//
// Buffer allocation supports two policies: one slot per deferred reference
// (the paper's scheme, illustrated in Figure 3), or deduplicated — one
// slot per distinct deferred element, shared by all iterations of this
// processor that update it (an ablation; see bench_ablation_dedup).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "inspector/rotation.hpp"
#include "inspector/u32buf.hpp"

namespace earthred::inspector {

/// The indirection references of one processor's iterations:
/// refs[r][i] = element updated by local iteration i through reference
/// slot r (e.g. r=0 is IA(i,1), r=1 is IA(i,2)). All rows must have equal
/// length. One row (a single distinct indirection reference) is the easy
/// case the paper notes needs no buffers; two or more rows exercise the
/// full machinery.
struct IterationRefs {
  /// Global ids of the local iterations, in local order (used by engines
  /// to gather iteration-aligned data such as the Y array of Figure 1).
  std::vector<std::uint32_t> global_iter;
  /// refs[r][i]: element index referenced by local iteration i, slot r.
  std::vector<std::vector<std::uint32_t>> refs;

  std::size_t num_iterations() const noexcept { return global_iter.size(); }
  std::size_t num_refs() const noexcept { return refs.size(); }
};

struct LightInspectorOptions {
  /// Share one buffer slot among all deferred references to the same
  /// element (false reproduces the paper's one-slot-per-reference scheme).
  bool dedup_buffers = false;
};

/// One phase of the executor schedule.
///
/// Array fields use U32Buf (span-owning storage): built plans own heap
/// vectors; plans loaded from the persistent plan store adopt zero-copy
/// views into the store file's memory mapping. Mutation is copy-on-write.
struct PhaseSchedule {
  /// Global iteration ids assigned to this phase, in execution order.
  U32Buf iter_global;
  /// Local iteration indices (into IterationRefs rows) parallel to
  /// iter_global; consumed by the incremental update.
  U32Buf iter_local;
  /// Redirected indirection of every reference slot in one contiguous
  /// ref-major block: `indir_flat[r * n + j]` (n the phase's iteration
  /// count) is the redirected index for reference slot r of the j-th
  /// iteration. Values < num_elements address the reduction array directly
  /// (always within the portion owned this phase for the reference that
  /// determined the assignment); values >= num_elements address buffer
  /// slots. Batch executors (core::PhaseView) stream the block as is.
  U32Buf indir_flat;
  /// Second loop: element copy_dst[j] (owned this phase) accumulates
  /// buffer slot copy_src[j] (>= num_elements).
  U32Buf copy_dst;
  U32Buf copy_src;

  /// Row r of `indir_flat` — the paper's per-reference `indirN_out` array
  /// (Figure 3) for this phase. The block must hold row r; verify_plan
  /// proves that for every row (E-PLAN-SHAPE).
  std::span<const std::uint32_t> indir_row(std::size_t r) const noexcept {
    const std::size_t n = iter_global.size();
    return {indir_flat.data() + r * n, n};
  }
};

/// Full LightInspector output for one processor.
struct InspectorResult {
  std::vector<PhaseSchedule> phases;  ///< one per phase (k*P entries)
  std::uint32_t num_buffer_slots = 0;
  /// num_elements + num_buffer_slots: required local array length.
  std::uint64_t local_array_size = 0;

  // --- bookkeeping consumed by update_light_inspector ------------------
  /// Phase each local iteration was assigned to.
  U32Buf assigned_phase;
  /// Element a buffer slot folds into (slot -> element).
  U32Buf slot_elem;

  /// Iterations per phase (load-balance analysis, Sec. 5.4.3).
  std::vector<std::uint64_t> phase_sizes() const;
  /// Total deferred references (== total second-loop entries).
  std::uint64_t total_deferred() const;
};

/// Runs the LightInspector for processor `proc`.
///
/// Complexity: O(num_iterations * num_refs); no communication.
/// Throws precondition_error on ragged refs or out-of-range elements.
InspectorResult run_light_inspector(const RotationSchedule& sched,
                                    std::uint32_t proc,
                                    const IterationRefs& iters,
                                    const LightInspectorOptions& opt = {});

/// One mutated iteration, in the sparse-update form: the incremental
/// inspector only ever needs the *new* references of the iterations that
/// changed, so callers (core::patch_execution_plan) gather exactly these
/// columns instead of re-gathering every reference on the processor.
struct ChangedIteration {
  std::uint32_t local = 0;   ///< local iteration index on this processor
  std::uint32_t global = 0;  ///< global iteration id
  /// New reference values, one per reference slot (refs[r] replaces
  /// IterationRefs::refs[r][local]).
  std::vector<std::uint32_t> refs;
};

/// Incremental variant (the paper's planned future work, Sec. 7): given a
/// previous result and the iterations whose references changed, updates
/// only the affected state. Produces a result *bit-identical* to a full
/// re-run — iteration order, slot numbering and fold order are normalized
/// to the fresh run's canonical form (verified by property tests in
/// tests/test_plan_patch.cpp); the point is cost — the work is
/// proportional to the touched iterations plus light linear sweeps (a
/// redirect count and a redirect rewrite over the resident blocks)
/// instead of a full rebuild with its reference gather and per-reference
/// phase arithmetic.
///
/// `previous` must be canonical — a fresh run or the output of a prior
/// update; `changes` must be sorted by `local` with no duplicates, and
/// every entry must carry one new reference value per reference slot of
/// `previous`.
InspectorResult update_light_inspector(const RotationSchedule& sched,
                                       std::uint32_t proc,
                                       const InspectorResult& previous,
                                       std::span<const ChangedIteration> changes,
                                       const LightInspectorOptions& opt = {});

/// Convenience overload taking the full (new) reference table: extracts
/// the changed columns and forwards to the sparse form above.
/// `changed_local` lists local iteration indices (into iters.global_iter)
/// whose references differ from the run that produced `previous`; `iters`
/// must contain the *new* references for all iterations.
InspectorResult update_light_inspector(const RotationSchedule& sched,
                                       std::uint32_t proc,
                                       const IterationRefs& iters,
                                       const InspectorResult& previous,
                                       std::span<const std::uint32_t> changed_local,
                                       const LightInspectorOptions& opt = {});

}  // namespace earthred::inspector
