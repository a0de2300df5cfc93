// JobScheduler: a bounded-queue worker pool executing reduction sweeps.
//
// This is the serving half of the reduction service: callers submit jobs
// (kernel + plan parameters + sweep count) and get a futures-style handle
// back immediately. A fixed pool of workers drains the queue; native jobs
// acquire their ExecutionPlan through the shared PlanCache (so repeated
// or concurrent jobs on the same mesh skip distribution + inspection
// entirely) and run on `run_native_plan`; simulated jobs run the
// discrete-event rotation engine on the EARTH machine model instead.
//
// Admission control is reject-with-reason: when the submission queue is
// at capacity (or the scheduler is shutting down) the returned handle
// resolves *immediately* with JobState::Rejected and a reason string —
// submission never blocks and no job is silently dropped; every handle
// eventually resolves to exactly one of Done / Failed / Rejected.
// Static verification extends the same contract to job *content*: a
// request carrying DSL source is checked for reduction legality at
// admission, and a native job whose PlanOptions::verify is set has its
// (possibly cached) plan re-proved against the rotation invariants and
// cross-checked against its kernel's indirection before any sweep runs —
// both reject with the first diagnostic as the reason and are tallied in
// ServiceStats (rejected_dsl / rejected_plan).
//
// Per-job deadlines reuse the stall-timeout watchdog of the native engine
// (PR 1): `deadline_seconds` bounds every protocol wait of the job, and a
// stalled job surfaces as Failed with the watchdog's diagnostic instead of
// wedging a worker forever.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/native_engine.hpp"
#include "core/reduction_engine.hpp"
#include "service/plan_cache.hpp"
#include "service/service_stats.hpp"

namespace earthred::service {

/// One unit of work: run `sweeps` time steps of `kernel` under the given
/// plan parameters.
struct JobRequest {
  std::shared_ptr<const core::PhasedKernel> kernel;
  /// Free-form label echoed in reports ("euler-small/P8k2", ...).
  std::string name;
  core::PlanOptions plan{};
  std::uint32_t sweeps = 1;
  /// Bound (seconds) on any single protocol wait of this job; 0 uses the
  /// scheduler's default_deadline.
  double deadline_seconds = 0.0;
  /// Run on the simulated EARTH machine (cycle cost model) instead of
  /// host threads. Simulated jobs bypass the PlanCache — the simulator
  /// charges inspector cycles as part of the experiment.
  bool simulated = false;
  /// Machine model for simulated jobs.
  earth::MachineConfig machine{};
  /// Precomputed kernel_fingerprint() — avoids rehashing the indirection
  /// arrays on every submission of an already-known mesh.
  std::optional<std::uint64_t> fingerprint;
  /// Adaptive re-planning: content hash of the *base* mesh this kernel is
  /// a mutation of. When set, a native job acquires its plan through
  /// PlanCache::patch_or_build — the base plan (memory or store) is
  /// patched incrementally for `changed_edges` instead of rebuilt; any
  /// patch failure falls back to a full build transparently.
  std::optional<std::uint64_t> patch_base;
  /// Global iteration (edge) ids whose references differ from the base
  /// mesh. Only consulted when `patch_base` is set.
  std::vector<std::uint32_t> changed_edges;
  /// Test hook forwarded to SweepOptions (exercises the deadline path).
  core::SweepOptions::LostForward lose_forward{};
  /// Execute phases through the batched compute_phase hot path (see
  /// core::SweepOptions::batch); off runs the per-edge fallback.
  bool batch = true;
  /// Worker pinning + first-touch placement for this job's sweep threads.
  core::AffinityOptions affinity{};
  /// DSL source this job claims to implement (the CLI's `dsl=` job key).
  /// When non-empty, submit() runs the reduction-legality checker on it
  /// and rejects the job at admission — first diagnostic as the reason,
  /// counted in ServiceStats::rejected_dsl — before it can occupy a
  /// worker. The kernel is still what executes; the source is the
  /// admission contract.
  std::string dsl_source;
  /// Completion notification: called exactly once per submission, *after*
  /// the handle's outcome is set (so `ready()` is already true), on
  /// whichever thread resolved the job — the submitting thread for
  /// admission rejects, a scheduler worker or the abort_queued caller
  /// otherwise. Lets an event loop wake on completion instead of polling
  /// its handles. Must be cheap and must not throw.
  std::function<void()> on_resolved;
};

enum class JobState {
  Pending,   ///< not yet resolved (only observable through stats)
  Rejected,  ///< refused — at admission (queue full, shutdown, illegal
             ///< DSL) or by the plan verifier; `error` holds the reason
  Done,      ///< completed; `native` or `simulated` holds the results
  Failed     ///< raised during setup/execution; `error` holds the reason
};

/// Final disposition of one job.
struct JobOutcome {
  JobState state = JobState::Pending;
  std::string name;
  std::string error;
  /// Plan came out of the cache without a build (Hit or Coalesced).
  bool cache_hit = false;
  /// How the plan was acquired (meaningful for native jobs only): memory
  /// hit, coalesced wait, disk load, incremental patch, or full build.
  PlanCache::Outcome plan_source = PlanCache::Outcome::Built;
  /// Ran on the simulated EARTH machine (simulated_run holds results).
  bool simulated = false;
  double queue_seconds = 0.0;  ///< admission to worker pickup
  double setup_seconds = 0.0;  ///< plan acquisition (0 for simulated)
  /// Host seconds the plan's build itself took (ExecutionPlan::
  /// build_seconds; repeated for cache hits since the plan is shared) —
  /// lets clients separate build cost from cache-lookup cost.
  double plan_build_seconds = 0.0;
  double exec_seconds = 0.0;   ///< sweep execution wall time
  double total_seconds = 0.0;  ///< admission to resolution
  /// Concrete lowering strategy that served the job (native jobs; mirrors
  /// NativeResult::strategy — never Auto. Simulated jobs run the rotation
  /// engine, i.e. Phased).
  core::StrategyKind strategy = core::StrategyKind::Phased;
  core::NativeResult native;       ///< filled for native jobs
  core::RunResult simulated_run;   ///< filled for simulated jobs
};

/// Futures-style handle: copyable, resolves exactly once.
class JobHandle {
 public:
  JobHandle() = default;

  /// Blocks until the job resolves; the outcome reference stays valid for
  /// the life of the handle. Deleted on rvalues: `submit(...).wait()`
  /// would return a reference into the dying temporary.
  const JobOutcome& wait() const& { return future_.get(); }
  const JobOutcome& wait() && = delete;

  /// Non-blocking: true once wait() would return immediately. Lets event
  /// loops (ServeLoop, the signal-aware CLI wait) poll handles without
  /// parking a thread per job.
  bool ready() const {
    return future_.valid() &&
           future_.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  }

  bool valid() const { return future_.valid(); }

 private:
  friend class JobScheduler;
  explicit JobHandle(std::shared_future<JobOutcome> f)
      : future_(std::move(f)) {}
  std::shared_future<JobOutcome> future_;
};

class JobScheduler {
 public:
  struct Config {
    std::uint32_t workers = 4;
    /// Maximum queued (not yet running) jobs before submissions are
    /// rejected.
    std::size_t queue_capacity = 64;
    /// Default per-wait stall bound for jobs that don't set their own.
    double default_deadline = 30.0;
    PlanCache::Config cache{};
    /// Admission budget for the privatized strategy's replica memory
    /// (P full copies of every reduction array). A job *forcing*
    /// strategy=privatized past this budget is rejected with
    /// "E-STRATEGY-UNSUPPORTED"; auto-resolved jobs are steered away by
    /// the cost model instead of rejected. Appended after `cache` so
    /// positional aggregate initializers written before the field
    /// existed stay valid.
    std::uint64_t max_replica_bytes = 2ull << 30;
  };

  JobScheduler() : JobScheduler(Config{}) {}
  explicit JobScheduler(Config cfg);
  /// Drains queued jobs, waits for in-flight ones, joins the workers.
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Never blocks. The handle resolves to Rejected (with reason) when the
  /// queue is full, the request is malformed, or the scheduler is shut
  /// down; otherwise to Done/Failed once a worker finishes it.
  JobHandle submit(JobRequest req);

  /// Submits each request in order; per-request admission (a full queue
  /// rejects the tail of the batch, each with its own reasoned handle).
  std::vector<JobHandle> submit_batch(std::vector<JobRequest> reqs);

  /// Stops admission, drains the queue, and joins the workers. Idempotent;
  /// also run by the destructor.
  void shutdown();

  /// Graceful-drain admission cutoff: new submissions are rejected with
  /// "E-SVC-DRAINING", queued jobs still run — except those already past
  /// their deadline at pickup, which are rejected with the deadline
  /// reason ("E-SVC-DEADLINE", counted in ServiceStats::
  /// rejected_deadline) instead of completing silently late. Workers keep
  /// running so in-flight work finishes; idempotent.
  void begin_drain();

  /// begin_drain() plus: wait for the queue to empty and every in-flight
  /// job to resolve, then join the workers. After drain() every handle
  /// ever returned has resolved and the stats reconcile
  /// (submitted == completed + failed + rejected).
  void drain();

  /// Forced shutdown path: immediately resolves every *queued* (not yet
  /// running) job as Rejected with `reason`. In-flight jobs cannot be
  /// interrupted and still run to completion.
  void abort_queued(const std::string& reason);

  bool draining() const;

  ServiceStats stats() const;
  PlanCache& cache() { return cache_; }

 private:
  struct Queued {
    JobRequest req;
    std::promise<JobOutcome> promise;
    std::chrono::steady_clock::time_point submitted;
  };

  void worker_loop();
  JobOutcome execute(Queued& job);

  Config cfg_;
  PlanCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Queued> queue_;
  bool stopping_ = false;
  bool draining_ = false;
  std::vector<std::thread> workers_;

  // Stats (guarded by mutex_).
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t rejected_dsl_ = 0;   ///< DSL legality errors at admission
  std::uint64_t rejected_plan_ = 0;  ///< plan-verifier rejects
  std::uint64_t rejected_deadline_ = 0;  ///< expired at pickup during drain
  std::uint64_t rejected_strategy_ = 0;  ///< unsupported strategy requests
  std::uint64_t served_phased_ = 0;      ///< Done jobs by serving strategy
  std::uint64_t served_privatized_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t in_flight_ = 0;
  /// total_seconds of the most recent executed jobs: a ring of at most
  /// kMaxLatencySamples, so stats() (run on every wire Ping) costs the
  /// same after a billion jobs as after a thousand.
  static constexpr std::size_t kMaxLatencySamples = 4096;
  std::vector<double> latencies_;
  std::uint64_t latency_samples_ = 0;  ///< latencies ever recorded
  double cold_setup_sum_ = 0.0;
  double warm_setup_sum_ = 0.0;
  std::uint64_t cold_setups_ = 0;
  std::uint64_t warm_setups_ = 0;
};

}  // namespace earthred::service
