#pragma once

// Lowering-strategy selection for irregular reductions.
//
// A "strategy" is the parallel algorithm run_native_plan uses to make the
// scatter side of `X[IA(e,r)] += f(...)` safe under concurrency:
//
//   * Phased     — the paper's rotation engine: the element space is cut
//                  into k*P portions that rotate through the processors,
//                  so every processor only ever accumulates into the
//                  portion it currently owns. Deterministic; the default.
//   * Privatized — every worker accumulates into a full private replica of
//                  the reduction arrays; replicas are folded into the
//                  shared result in fixed worker-ascending order, so the
//                  result is deterministic (bit-identical across runs and
//                  across the batch/per-edge executors, like Phased).
//                  Costs P x num_nodes x num_arrays of replica memory.
//
// Unlike the batch loops' ISA tier (kernels/ops_simd.hpp), strategies CAN
// change result bits, so the strategy is a *plan* knob: it lives in
// PlanOptions, enters the PlanCache key and the persistent plan header,
// and forks shard routing when forced (shard_map.cpp).
//
// The cost model here is deliberately small and explainable — every score
// carries the formula it came from, so `earthred check --explain` and the
// service can show *why* a loop was lowered the way it was. The compiler's
// static pass (src/compiler/strategy.cpp) calls the same scorer with
// symbolic shape estimates, so static advice and runtime dispatch share
// one model; they diverge only on hosts the plan oversubscribes, where
// runtime inputs carry hw_threads and the static pass deliberately does
// not (advice describes the algorithm, dispatch the machine).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace earthred::core {

struct KernelShape;

/// Stable on-disk encoding (plan_io writes the numeric value into the
/// plan header): Auto must stay 0 so pre-strategy plan files — which
/// wrote a zero reserved field — load as "no forced strategy". Value 3
/// belonged to a retired atomic-scatter strategy; plan_io rejects it.
enum class StrategyKind : std::uint8_t {
  Auto = 0,        ///< Resolve via the cost model at plan/run time.
  Phased = 1,      ///< Rotation engine (the paper's executor).
  Privatized = 2,  ///< Per-worker replicas, fixed-order merge.
};

/// "auto", "phased", "privatized".
std::string_view to_string(StrategyKind kind);

/// Parses a strategy name; throws `check_error` ("E-STRATEGY-NAME") on an
/// unknown spelling.
StrategyKind parse_strategy(std::string_view name);

/// Applies the `EARTHRED_FORCE_STRATEGY` environment override: when
/// `requested` is Auto and the variable names a concrete strategy, that
/// strategy becomes the effective request. An explicit request always
/// wins over the environment. This is how CI's strategy-matrix job
/// forces every strategy through the whole test suite without touching
/// each test.
StrategyKind effective_strategy(StrategyKind requested);

/// What the cost model sees. Either filled from a concrete KernelShape
/// (runtime) or from symbolic estimates (the compiler pass, which may
/// only know ratios).
struct StrategyInputs {
  std::uint64_t num_nodes = 1;
  std::uint64_t num_edges = 1;
  std::uint32_t num_refs = 1;             ///< scatter targets per edge
  std::uint32_t num_reduction_arrays = 1;
  std::uint32_t num_procs = 1;
  std::uint32_t k = 1;
  /// Mean scatter fan-in (updates per target element); 0 when unknown.
  /// Not scored — the compiler pass derives its layout line-reuse
  /// estimate from it.
  double fanin_mean = 0.0;
  /// Hardware threads backing the run. 0 = unknown / not modeled — the
  /// compiler's static pass scores for a dedicated P-thread host. When
  /// the plan oversubscribes the host (num_procs > hw_threads), a
  /// semaphore/barrier handoff is a scheduler round trip rather than a
  /// cache-line ping, and the sync terms are priced accordingly; the
  /// phased rotation pays 2*k*P^2 handoffs per sweep against the
  /// privatized merge's 3*P barriers, so oversubscription shifts the
  /// pick toward privatized on small-core hosts.
  std::uint32_t hw_threads = 0;
};

/// Fills StrategyInputs from a kernel shape plus the plan's (P, k).
/// Also fills hw_threads from the host, so runtime Auto resolution knows
/// when the plan oversubscribes the machine (the compiler's static pass
/// builds its inputs directly and leaves hw_threads at 0 — static advice
/// describes the algorithm on a dedicated host, runtime dispatch the
/// host it actually has).
StrategyInputs strategy_inputs(const KernelShape& shape,
                               std::uint32_t num_procs, std::uint32_t k);

/// One scored strategy. `cost_per_edge` is in normalized units where 1.0
/// is a single fused gather-accumulate; lower is better.
struct StrategyCost {
  StrategyKind strategy = StrategyKind::Phased;
  double cost_per_edge = 0.0;
  /// The formula, with numbers plugged in — what --explain prints.
  std::string rationale;
};

/// Scores Phased and Privatized (in that fixed order).
std::vector<StrategyCost> score_strategies(const StrategyInputs& in);

/// Auto resolution: the cheaper scored strategy.
StrategyKind choose_strategy(const StrategyInputs& in);

/// Resolves a request to the concrete strategy that will run: Auto (after
/// the environment override) picks via choose_strategy; a concrete
/// request is returned as is.
StrategyKind resolve_strategy(StrategyKind requested,
                              const StrategyInputs& in);

/// Bytes of replica memory the privatized strategy would allocate for
/// this shape (P full copies of every reduction array) — what the
/// service's admission control budgets against.
std::uint64_t privatized_replica_bytes(const KernelShape& shape,
                                       std::uint32_t num_procs);

}  // namespace earthred::core
