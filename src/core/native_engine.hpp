// Native execution of the rotation strategy on host threads.
//
// The discrete-event simulator (reduction_engine.cpp) is the measurement
// vehicle; this engine runs the *same* phased schedule as real
// `std::thread`s — one per simulated processor — with bounded-buffer
// message staging standing in for the EARTH network. It exists to
// demonstrate (and test) that the execution strategy is a correct
// parallel algorithm under genuine asynchrony, as the reproduction plan
// prescribes ("emulate fine-grained threads with tasks").
//
// The expensive preprocessing products — iteration distribution, rotation
// schedule, and LightInspector output — are factored into an immutable
// `ExecutionPlan` that executors take by `const&`. A plan depends only on
// the kernel's indirection arrays and the `PlanOptions`, never on sweep
// count or timeouts, so one plan can be built once and shared by any
// number of concurrent or repeated runs (the compile-once/run-many shape
// the service layer's PlanCache exploits; see src/service/).
//
// Synchronization structure (mirrors the fiber graph):
//   * portion rotation: a staging buffer per (receiver, phase) guarded by
//     full/free semaphores — the sender copies the portion in and posts
//     `full`; the receiver drains it at the start of the owning phase and
//     posts `free` (so a fast sender can run at most one sweep ahead);
//   * node-read replication: a staging buffer per (receiver, portion)
//     with the same protocol, drained at each sweep boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/kernel.hpp"
#include "inspector/distribution.hpp"
#include "inspector/light_inspector.hpp"
#include "inspector/plan_verifier.hpp"
#include "inspector/rotation.hpp"

namespace earthred::core {

/// The parameters preprocessing depends on — everything that goes into an
/// ExecutionPlan (and therefore into the PlanCache key). Per-run knobs
/// (sweeps, timeouts) live in SweepOptions instead.
struct PlanOptions {
  std::uint32_t num_procs = 2;
  std::uint32_t k = 2;
  inspector::Distribution distribution = inspector::Distribution::Cyclic;
  /// Chunk size when distribution == BlockCyclic.
  std::uint32_t block_cyclic_size = 16;
  inspector::LightInspectorOptions inspector{};
  /// Host threads used by build_execution_plan to run the per-processor
  /// reference gather + LightInspector: 1 = serial (the pre-batching
  /// behavior), 0 = one per hardware core, N = exactly N. The plan
  /// produced is byte-identical regardless — each processor's inspector
  /// run is independent and deterministic — so this knob deliberately
  /// does NOT enter the PlanCache key.
  std::uint32_t build_threads = 1;
  /// Run the structural plan verifier (inspector/plan_verifier.hpp) on
  /// the freshly built plan and throw verify_error if any rotation
  /// invariant fails. Defaults on in Debug builds (and CI, which builds
  /// Debug); off in Release, where the inspector is trusted and the
  /// <5%-of-cold-build budget matters. Like build_threads, this does not
  /// change the plan produced, so it is NOT part of the PlanCache key.
#ifdef NDEBUG
  bool verify = false;
#else
  bool verify = true;
#endif
};

/// Compatibility shim for the frozen benchmark harness (bench/e2e), which
/// still reads `plan.applied_layout != LayoutKind::None` to report
/// `core.layout_applied`. Plans have no layout pass, so the value is a
/// compile-time constant; the shim goes when a benchmark change drops
/// that metric.
enum class LayoutKind : std::uint8_t { None = 0 };

/// Compatibility shim for the same harness, which counts jobs by the
/// executor that served them (`core.jobs_phased` / `core.jobs_privatized`)
/// through `JobOutcome::strategy` and `ServiceStats::served_*`. Every
/// native run is phased, so those read constants; the shim goes with the
/// layout one.
enum class StrategyKind : std::uint8_t { Phased, Privatized };

/// The reusable preprocessing product: rotation schedule plus one
/// LightInspector result per processor. Immutable after build —
/// `run_native_plan` only reads it, so a single instance may back many
/// concurrent executions.
struct ExecutionPlan {
  KernelShape shape;
  PlanOptions options;
  inspector::RotationSchedule sched;
  /// Per-processor inspector output (phases, redirected indirection,
  /// second-loop copy lists).
  std::vector<inspector::InspectorResult> insp;
  /// Host seconds spent building this plan (distribution + inspector).
  double build_seconds = 0.0;
  /// Backing storage for zero-copy loads: a plan deserialized from the
  /// persistent plan store adopts its large arrays as views into the
  /// store file's memory mapping, and this handle keeps that mapping
  /// alive for the plan's lifetime (type-erased so core does not depend
  /// on the io layer). Built plans leave it null. A plan *patched* from a
  /// loaded base inherits the handle, because untouched phases still view
  /// the base's mapping.
  std::shared_ptr<const void> storage;

  /// Always None: see LayoutKind above.
  static constexpr LayoutKind applied_layout = LayoutKind::None;

  /// Approximate heap footprint in bytes (drives PlanCache LRU budgets).
  std::uint64_t byte_size() const;
};

/// Runs distribution + LightInspector for every processor and returns the
/// immutable plan. Throws on invalid shapes (e.g. more portions than
/// elements), and — when opt.verify is set — verify_error if the built
/// plan violates a rotation invariant (structural verification only; the
/// kernel cross-check below is reserved for admission paths).
ExecutionPlan build_execution_plan(const PhasedKernel& kernel,
                                   const PlanOptions& opt);

/// Full plan verification: the structural invariant pass of
/// inspector::verify_plan plus — when `kernel` is non-null — a cross-check
/// that every scheduled reference resolves to the element the kernel's
/// indirection actually names (direct entries must equal ref(r, iter);
/// redirected entries must buffer that element), reported as
/// E-PLAN-REF-MISMATCH. The cross-check costs one virtual ref() call per
/// scheduled reference, which is why build_execution_plan doesn't do it;
/// the service's admission control, the CLI's --check, and the seeded-
/// defect tests do. Never throws on plan defects.
inspector::PlanVerifyReport verify_execution_plan(
    const ExecutionPlan& plan, const PhasedKernel* kernel = nullptr,
    const inspector::PlanVerifyOptions& vopt = {});

/// Incremental re-plan (the adaptive path): produces the plan
/// build_execution_plan would build for `kernel`, but by patching
/// `previous` through inspector::update_light_inspector instead of
/// rebuilding from scratch. `changed_iterations` lists the global
/// iteration ids whose indirection references differ from the kernel the
/// previous plan was built for; `kernel` carries the *new* references.
/// The result is bit-identical to a fresh build (property-tested in
/// tests/test_plan_patch.cpp) at a cost proportional to the touched
/// iterations per processor. Requires an identical shape and identical
/// PlanOptions (same distribution, procs, k) and a non-dedup plan —
/// violations throw precondition_error; when opt.verify is set the
/// patched plan is re-verified in the same mode as a cold build and a
/// violation throws verify_error. Callers wanting transparent fallback
/// (the PlanCache) catch and rebuild.
ExecutionPlan patch_execution_plan(
    const PhasedKernel& kernel, const ExecutionPlan& previous,
    std::span<const std::uint32_t> changed_iterations);

/// NUMA/affinity knobs for the native engine's worker threads (the
/// ROADMAP's pin + first-touch open item). Both default off; pinning is a
/// best-effort no-op on platforms without pthread CPU affinity.
struct AffinityOptions {
  /// Pin worker thread p to CPU (p mod hardware_concurrency) via
  /// pthread_setaffinity_np where available.
  bool pin_threads = false;
  /// Allocate and zero each processor's reduction/node-read arrays and
  /// its *receiving* staging buffers on the worker thread that will use
  /// them (first-touch page placement on NUMA hosts) instead of on the
  /// caller's thread. Results are unaffected — only page placement moves.
  bool first_touch = false;
};

/// Per-run execution knobs — do not affect the plan.
struct SweepOptions {
  std::uint32_t sweeps = 1;
  /// Wall-clock seconds any single staging-buffer wait may block before
  /// the whole run is declared stalled and aborted with a check_error
  /// naming the waiting processor and protocol step — a deadlocked
  /// protocol surfaces as a diagnostic instead of a hung process. 0 waits
  /// forever (the pre-watchdog behavior).
  double stall_timeout = 30.0;
  /// Test hook: silently skip one ring forward, simulating a lost
  /// message, so the stall watchdog can be exercised deterministically.
  struct LostForward {
    bool enabled = false;
    std::uint32_t proc = 0;
    std::uint32_t phase = 0;
    std::uint32_t sweep = 0;
  } lose_forward;
  /// Execute each phase through PhasedKernel::compute_phase — one batched
  /// call streaming the flattened indirection block — instead of a
  /// per-edge virtual compute_edge call with a heap-backed `redirected`
  /// scatter copy. Results are bit-identical either way (the batch loops
  /// perform the same floating-point operations in the same order;
  /// tests/test_batch_equivalence.cpp proves it); off reproduces the
  /// per-edge executor.
  bool batch = true;
  AffinityOptions affinity{};
};

struct NativeResult {
  /// Wall-clock seconds of the threaded execution (excludes inspector).
  double wall_seconds = 0.0;
  /// Final reduction arrays ([array][element], global indexing).
  std::vector<std::vector<double>> reduction;
  /// Final node read arrays.
  std::vector<std::vector<double>> node_read;
};

/// Executes `sweeps` time steps of `kernel` under a prebuilt plan. The
/// plan is read-only and may be shared by concurrent callers; `kernel`
/// must be the kernel (or an identically-shaped twin) the plan was built
/// from. Raises check_error when a staging-buffer wait exceeds
/// stall_timeout (lost message / protocol deadlock).
NativeResult run_native_plan(const PhasedKernel& kernel,
                             const ExecutionPlan& plan,
                             const SweepOptions& opt);

/// Builds a plan and runs it once (convenience; see run_native_plan). A
/// protocol violation that still completes surfaces as a wrong result,
/// which the caller should check against run_sequential_kernel.
NativeResult run_native_engine(const PhasedKernel& kernel,
                               const PlanOptions& plan_opt,
                               const SweepOptions& sweep_opt);

}  // namespace earthred::core
