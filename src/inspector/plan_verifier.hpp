// ExecutionPlan / rotation invariant verifier.
//
// The LightInspector's output is what the executors trust blindly: every
// phase's redirected indirection is scattered into local arrays with no
// bounds or ownership checks in the hot loop. A plan that violates the
// rotation invariants doesn't crash — it silently folds updates into
// elements a processor doesn't own, which the paper's strategy turns into
// a wrong (and timing-dependent) reduction. verify_plan() is an
// O(plan-size) single pass that proves the invariants hold:
//
//   1. every iteration appears in exactly one phase of exactly one
//      processor, and its global id is in range;
//   2. a direct reference (value < num_elements) addresses an element
//      whose portion is owned by that processor in that phase under the
//      rotation schedule (k>1 in-flight windows included — ownership is
//      owning_phase(p, portion) == phase, which already encodes the
//      k-phase transfer latency);
//   3. a redirected reference addresses a live buffer slot whose element
//      is owned only in a strictly later phase;
//   4. every live buffer slot is folded back exactly once, in the owning
//      phase of its element, onto that element;
//   5. the phase-assignment bookkeeping and all slot metadata agree with
//      the phase's indirection block.
//
// Diagnostics reuse earthred::Diagnostic with plan coordinates in the
// message (there is no source line; line/column stay 0). Codes:
//   E-PLAN-SHAPE         container shapes disagree (an indirection block
//                        that is not num_refs rows of one entry per
//                        iteration, wrong phase count, slot tables of the
//                        wrong length)
//   E-PLAN-PHASE-ASSIGN  assigned_phase bookkeeping contradicts the rows
//   E-PLAN-DUP-ITER      an iteration scheduled more than once
//   E-PLAN-LOST-ITER     an iteration scheduled nowhere
//   E-PLAN-PHASE-OWNER   direct reference to a portion not owned in-phase
//   E-PLAN-EARLY-REF     redirected reference to an element already owned
//                        (should have been direct)
//   E-PLAN-SLOT-RANGE    buffer-slot index past num_buffer_slots
//   E-PLAN-NO-FOLD       live slot never folded back
//   E-PLAN-DUP-FOLD      slot folded back more than once
//   E-PLAN-FOLD-PHASE    fold scheduled outside the element's owning phase
//   E-PLAN-FOLD-MISMATCH fold destination differs from the slot's element
//   E-PLAN-OOB           any index out of range (elements, iterations,
//                        local array)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "inspector/light_inspector.hpp"
#include "inspector/rotation.hpp"
#include "support/diagnostics.hpp"

namespace earthred::inspector {

/// Identity of the invariant set this verifier proves. Stamped into every
/// persisted plan-store file header and checked on load: a stored plan is
/// only admitted zero-copy if it was written under the *same* verifier
/// semantics that will re-check it in budget mode. Bump the low word
/// whenever an invariant is added, removed, or reinterpreted — old files
/// then fail the header check (E-STORE-VERIFIER) and fall back to a
/// rebuild instead of being trusted under rules they were never proven
/// against. Revision 1 outlived the retirement of two checks — per-
/// reference rows agreeing with the indirection block, and no reference
/// through a free-listed slot — because neither could fire on a loadable
/// file: files store only the block, and the loader rejects a non-empty
/// free list.
inline constexpr std::uint64_t kPlanVerifierFingerprint =
    0x45504c414e560001ull;  // "EPLANV" + revision 1

struct PlanVerifyOptions {
  /// Diagnostics recorded before the verifier stops describing individual
  /// violations (it keeps counting them). A corrupt plan can fail at every
  /// entry; sixteen examples identify the defect without a flood.
  std::size_t max_diagnostics = 16;
  /// true (the default, and what admission / `earthred check` / the test
  /// corpus use): every invariant is proven per entry. false is the
  /// build-path budget mode that PlanOptions::verify runs under: the same
  /// shape, ownership, slot-range and fold
  /// invariants, but the hot sections run as branchless, vectorizable
  /// detection sweeps — iteration coverage and fold pairing are
  /// established through power sums compared against closed forms, and
  /// any mismatch (or any directly reported violation) reruns the whole
  /// pass exhaustively for authoritative, localized diagnostics. Two
  /// per-entry checks with no bearing on what the executor computes are
  /// detected only by the exhaustive pass: the assigned_phase bookkeeping
  /// cross-check and the EARLY-REF ownership-window walk (a defect there
  /// still perturbs the fold pairing sums when it matters). This is what
  /// keeps verify-on cold builds inside the <5% budget.
  bool exhaustive = true;
};

struct PlanVerifyReport {
  /// Up to max_diagnostics violations, in traversal order.
  std::vector<Diagnostic> diagnostics;
  /// Total violations found, including ones past the recording cap.
  std::uint64_t violations = 0;
  // Work actually performed — lets tests assert the pass saw the plan.
  std::uint64_t checked_iterations = 0;
  std::uint64_t checked_refs = 0;
  std::uint64_t checked_folds = 0;

  bool ok() const noexcept { return violations == 0; }
  /// Multi-line "error[CODE]: message" rendering of the recorded
  /// diagnostics plus a suppressed-count trailer.
  std::string render() const;
  /// First diagnostic's one-line form — the service's reject reason.
  std::string first_error() const;
};

/// Verifies one InspectorResult per processor against `sched`.
/// `num_iterations` is the kernel's global iteration count (plan must
/// cover 0..num_iterations-1 exactly once); `num_refs` the indirection
/// reference count every phase must carry. Pure read-only pass; never
/// throws on plan defects (they go in the report).
PlanVerifyReport verify_plan(const RotationSchedule& sched,
                             std::span<const InspectorResult> insp,
                             std::uint64_t num_iterations,
                             std::uint32_t num_refs,
                             const PlanVerifyOptions& opt = {});

}  // namespace earthred::inspector
