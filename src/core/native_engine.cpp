#include "core/native_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <semaphore>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inspector/plan_walk.hpp"
#include "inspector/rotation.hpp"
#include "support/check.hpp"
#include "support/cpu_features.hpp"

#if defined(__linux__) && defined(_GNU_SOURCE)
#include <pthread.h>
#include <sched.h>
#define EARTHRED_HAS_CPU_AFFINITY 1
#else
#define EARTHRED_HAS_CPU_AFFINITY 0
#endif

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#define EARTHRED_HAS_MADVISE 1
#else
#define EARTHRED_HAS_MADVISE 0
#endif

#if defined(__GLIBC__)
#include <malloc.h>
#define EARTHRED_HAS_MALLOC_TRIM 1
#else
#define EARTHRED_HAS_MALLOC_TRIM 0
#endif

namespace earthred::core {

using inspector::InspectorResult;
using inspector::RotationSchedule;

namespace {

/// Best-effort pin of the calling thread to one CPU (no-op where pthread
/// CPU affinity is unavailable; failure is ignored — pinning is a
/// performance hint, never a correctness requirement).
void pin_current_thread(std::uint32_t worker) {
#if EARTHRED_HAS_CPU_AFFINITY
  const std::uint32_t ncpu =
      std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(worker % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)worker;
#endif
}

/// Below this many edges a parallel plan build loses to serial: thread
/// spawn/join plus cold per-worker caches outweigh the inspector work, so
/// run_per_proc runs the serial loop (bench_hotpath Part 2 gates the
/// default build never losing to serial above it).
constexpr std::uint64_t kParallelBuildMinEdges = 1u << 18;

/// Runs fn(p) for every processor 0..P-1, rethrowing the first worker
/// exception. Shared by the cold build and the incremental patch. At or
/// above kParallelBuildMinEdges `num_edges` it uses min(P, hardware
/// threads) workers, below it the calling thread alone. Each processor's
/// run is independent and deterministic, so the plan is byte-identical
/// either way.
template <typename Fn>
void run_per_proc(std::uint32_t P, std::uint64_t num_edges, const Fn& fn) {
  const std::uint32_t workers =
      num_edges < kParallelBuildMinEdges
          ? 1
          : std::min(P, support::hardware_threads());
  if (workers <= 1) {
    for (std::uint32_t p = 0; p < P; ++p) fn(p);
    return;
  }
  std::atomic<std::uint32_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::uint32_t p = next.fetch_add(1, std::memory_order_relaxed);
        if (p >= P) return;
        try {
          fn(p);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
#if EARTHRED_HAS_MALLOC_TRIM
  // The workers' freed temporaries (the reference gather, growth
  // reallocations) sit in glibc's per-thread arenas, which keep them
  // resident after the threads exit; hand them back to the OS.
  malloc_trim(0);
#endif
  if (first_error) std::rethrow_exception(first_error);
}

/// Budget-mode structural verification shared by the cold build and the
/// incremental patch: no kernel.ref() cross-check and no per-entry
/// coverage walk unless a defect is detected, so the cost stays a small
/// fraction of the inspector run itself (bench_hotpath reports the
/// overhead; the budget is <5%). Admission and `earthred check` run the
/// exhaustive pass.
void verify_or_throw(const ExecutionPlan& plan, const char* what) {
  inspector::PlanVerifyOptions vopt;
  vopt.exhaustive = false;
  const inspector::PlanVerifyReport report = inspector::verify_plan(
      plan.sched, plan.insp, plan.shape.num_edges, plan.shape.num_refs,
      vopt);
  if (!report.ok())
    throw verify_error(std::string(what) + " failed verification (" +
                       std::to_string(report.violations) +
                       " violation(s)): " + report.first_error());
}

}  // namespace

std::uint64_t ExecutionPlan::byte_size() const {
  // Every plan-owned buffer, including container-of-container headers:
  // the LRU budget of the PlanCache is only honest if growth anywhere in
  // the phase data is visible here (test_batch_equivalence asserts it).
  // The per-processor traversal is the shared plan walk, so this stays in
  // lockstep with the verifier's and the benches' accounting.
  std::uint64_t bytes = sizeof(ExecutionPlan);
  bytes += insp.capacity() * sizeof(InspectorResult);
  for (const InspectorResult& r : insp)
    bytes += inspector::inspector_byte_size(r);
  return bytes;
}

ExecutionPlan build_execution_plan(const PhasedKernel& kernel,
                                   const PlanOptions& opt) {
  const KernelShape shape = kernel.shape();
  ER_EXPECTS(opt.num_procs >= 1);
  ER_EXPECTS(opt.k >= 1);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t P = opt.num_procs;
  ExecutionPlan plan{shape, opt,
                     RotationSchedule(shape.num_nodes, P, opt.k),
                     {}, 0.0, nullptr};

  auto owned_iters = inspector::distribute_iterations(
      shape.num_edges, P, opt.distribution, opt.block_cyclic_size);
  plan.insp.resize(P);

  // Each processor's reference gather + inspector run is independent and
  // deterministic, so any worker may build any p and the plan comes out
  // byte-identical to a serial build (test_batch_equivalence asserts it).
  const auto build_one = [&](std::uint32_t p) {
    inspector::IterationRefs refs;
    refs.global_iter = std::move(owned_iters[p]);
    refs.refs.resize(shape.num_refs);
    for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
      refs.refs[r].reserve(refs.global_iter.size());
      for (std::uint32_t e : refs.global_iter)
        refs.refs[r].push_back(kernel.ref(r, e));
    }
    plan.insp[p] =
        inspector::run_light_inspector(plan.sched, p, refs, opt.inspector);
  };

  run_per_proc(P, shape.num_edges, build_one);

  plan.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (opt.verify) verify_or_throw(plan, "execution plan");
  return plan;
}

ExecutionPlan patch_execution_plan(
    const PhasedKernel& kernel, const ExecutionPlan& previous,
    std::span<const std::uint32_t> changed_iterations) {
  const KernelShape shape = kernel.shape();
  const PlanOptions& opt = previous.options;
  ER_EXPECTS_MSG(shape.num_nodes == previous.shape.num_nodes &&
                     shape.num_edges == previous.shape.num_edges &&
                     shape.num_refs == previous.shape.num_refs &&
                     shape.num_reduction_arrays ==
                         previous.shape.num_reduction_arrays &&
                     shape.num_node_read_arrays ==
                         previous.shape.num_node_read_arrays,
                 "incremental re-plan requires an identically-shaped kernel");
  ER_EXPECTS_MSG(!opt.inspector.dedup_buffers,
                 "incremental re-plan supports the paper's one-slot-per-"
                 "reference scheme only");

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t P = opt.num_procs;
  // The patched plan keeps the base's schedule and storage handle:
  // untouched phases may still be zero-copy views into a plan-store
  // mapping owned by `previous`.
  ExecutionPlan plan{shape, opt, previous.sched, {}, 0.0, previous.storage};
  plan.insp.resize(P);

  // The iteration distribution depends only on (num_edges, P,
  // distribution) — all unchanged — so each processor owns the same
  // iterations as in the base plan, and the handful of changed ids map to
  // their (processor, local index) homes in O(changes) through the
  // distribution inverse instead of an O(num_edges) re-distribution.
  // Only the changed columns of the reference table are re-gathered.
  std::vector<std::uint32_t> changed_sorted(changed_iterations.begin(),
                                            changed_iterations.end());
  std::sort(changed_sorted.begin(), changed_sorted.end());
  changed_sorted.erase(
      std::unique(changed_sorted.begin(), changed_sorted.end()),
      changed_sorted.end());
  std::vector<std::vector<inspector::ChangedIteration>> per_proc(P);
  for (std::uint32_t g : changed_sorted) {
    ER_EXPECTS_MSG(g < shape.num_edges, "changed iteration id out of range");
    const inspector::IterationHome home = inspector::locate_iteration(
        shape.num_edges, P, opt.distribution, opt.block_cyclic_size, g);
    inspector::ChangedIteration ch;
    ch.local = home.local;
    ch.global = g;
    ch.refs.reserve(shape.num_refs);
    for (std::uint32_t r = 0; r < shape.num_refs; ++r)
      ch.refs.push_back(kernel.ref(r, g));
    per_proc[home.proc].push_back(std::move(ch));
  }
  // Global ids ascending + a monotone local order per processor means
  // each per_proc list is already sorted by local index, as the sparse
  // update requires... except for block-cyclic, where locals of different
  // chunks interleave. Sort to be safe; the lists are tiny.
  for (auto& changes : per_proc)
    std::sort(changes.begin(), changes.end(),
              [](const auto& a, const auto& b) { return a.local < b.local; });

  const auto patch_one = [&](std::uint32_t p) {
    if (per_proc[p].empty()) {
      // No owned iteration changed: the base result is still exact.
      // U32Buf copies share adopted views, so this is cheap for loaded
      // bases and one linear copy for built ones.
      plan.insp[p] = previous.insp[p];
      return;
    }
    plan.insp[p] = inspector::update_light_inspector(
        plan.sched, p, previous.insp[p], per_proc[p], opt.inspector);
  };
  // Sized by the base plan, not the change count: each affected
  // processor's update streams its whole resident plan.
  run_per_proc(P, previous.shape.num_edges, patch_one);

  plan.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (opt.verify) verify_or_throw(plan, "patched execution plan");
  return plan;
}

inspector::PlanVerifyReport verify_execution_plan(
    const ExecutionPlan& plan, const PhasedKernel* kernel,
    const inspector::PlanVerifyOptions& vopt) {
  inspector::PlanVerifyReport report = inspector::verify_plan(
      plan.sched, plan.insp, plan.shape.num_edges, plan.shape.num_refs,
      vopt);
  if (kernel == nullptr) return report;

  const auto fail = [&](std::string msg) {
    ++report.violations;
    if (report.diagnostics.size() >= vopt.max_diagnostics) return;
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = "E-PLAN-REF-MISMATCH";
    d.message = std::move(msg);
    report.diagnostics.push_back(std::move(d));
  };

  // Cross-check: every scheduled reference must resolve — directly or
  // through its buffer slot — to the element the kernel's indirection
  // names for that (ref, iteration). This catches plans that satisfy
  // every rotation invariant but belong to a *different* kernel (stale
  // or aliased cache entries).
  const std::uint32_t n_elems = plan.sched.num_elements();
  for (std::uint32_t p = 0; p < plan.insp.size(); ++p) {
    const InspectorResult& insp = plan.insp[p];
    for (const inspector::PhaseSchedule& phase : insp.phases) {
      const std::size_t n = phase.iter_global.size();
      if (phase.indir_flat.size() != plan.shape.num_refs * n)
        continue;  // already E-PLAN-SHAPE
      for (std::uint32_t r = 0; r < plan.shape.num_refs; ++r) {
        const std::span<const std::uint32_t> row = phase.indir_row(r);
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint64_t g = phase.iter_global[j];
          if (g >= plan.shape.num_edges) continue;  // already E-PLAN-OOB
          const std::uint32_t expected = kernel->ref(r, g);
          const std::uint32_t v = row[j];
          std::uint32_t actual = v;
          if (v >= n_elems) {
            const std::uint64_t slot =
                static_cast<std::uint64_t>(v) - n_elems;
            if (slot >= insp.slot_elem.size()) continue;  // E-PLAN-SLOT-RANGE
            actual = insp.slot_elem[slot];
          }
          if (actual != expected)
            fail("proc " + std::to_string(p) + " ref " + std::to_string(r) +
                 " iteration " + std::to_string(g) +
                 ": plan resolves to element " + std::to_string(actual) +
                 " but the kernel's indirection names " +
                 std::to_string(expected));
        }
      }
    }
  }
  return report;
}

namespace {

/// Synthetic-address cost tags sized for the kernel (detached contexts
/// ignore the charges, but kernels index the vectors).
CostTags make_cost_tags(std::uint32_t RA, std::uint32_t NA) {
  CostTags tags;
  earth::ArrayTagAllocator alloc;
  for (std::uint32_t a = 0; a < RA; ++a)
    tags.reduction.push_back(alloc.next());
  for (std::uint32_t a = 0; a < NA; ++a)
    tags.node_read.push_back(alloc.next());
  tags.edge_data = alloc.next();
  tags.indir = alloc.next();
  return tags;
}

/// The stage recorder's clock (NativeProfile).
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

#if EARTHRED_HAS_MADVISE
/// Applies `advice` to the pages wholly inside [p, p + n). Failure is
/// ignored: every caller's advice is a placement or page-size hint, never
/// a correctness requirement.
void advise_interior(double* p, std::size_t n, int advice) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto b =
      (reinterpret_cast<std::uintptr_t>(p) + page - 1) / page * page;
  const auto e = reinterpret_cast<std::uintptr_t>(p + n) / page * page;
  if (e > b) (void)madvise(reinterpret_cast<void*>(b), e - b, advice);
}
#endif

/// Under first-touch, drops the pages wholly inside [p, p + n) so the next
/// write faults each one in on the writing worker's NUMA node; the
/// contents read back as zero (private anonymous memory). Elsewhere a
/// no-op: the arrays stay zeroed where the caller allocated them.
void release_pages(double* p, std::size_t n) {
#if EARTHRED_HAS_MADVISE
  advise_interior(p, n, MADV_DONTNEED);
#else
  (void)p;
  (void)n;
#endif
}

/// Run-state arrays of at least this many bytes get huge-page advice.
/// Below it an array spans at most one 2 MiB huge page, which the advice
/// could not fill anyway.
constexpr std::size_t kHugePageAdviceBytes = std::size_t{4} << 20;

/// A zeroed run-state array (X, a node-read parity, a worker's slot rows).
/// At or above kHugePageAdviceBytes the array is advised MADV_HUGEPAGE
/// before the zero-fill first touches it, so the fill faults it in on
/// 2 MiB pages where the host's transparent-huge-page mode is `madvise`
/// or `always` (a no-op under `never`; no system setting is touched).
std::vector<double> zeroed_run_array(std::size_t n) {
  std::vector<double> a;
  a.reserve(n);
#if EARTHRED_HAS_MADVISE && defined(MADV_HUGEPAGE)
  if (n * sizeof(double) >= kHugePageAdviceBytes)
    advise_interior(a.data(), n, MADV_HUGEPAGE);
#endif
  a.resize(n, 0.0);
  return a;
}

/// The paper's executor on shared memory: portions of one reduction
/// array X per job rotate through the workers over k*P phases by
/// ownership (see the header comment). Deterministic; bit-identical
/// between the batched and per-edge paths.
NativeResult run_phased(const PhasedKernel& kernel,
                        const ExecutionPlan& plan, const SweepOptions& opt) {
  const auto t_setup = Clock::now();
  const KernelShape shape = kernel.shape();
  const RotationSchedule& sched = plan.sched;
  const std::uint32_t P = plan.options.num_procs;
  const std::uint32_t k = plan.options.k;
  const std::uint32_t kp = P * k;
  const std::uint32_t N = shape.num_nodes;
  const std::uint32_t RA = shape.num_reduction_arrays;
  const std::uint32_t NA = shape.num_node_read_arrays;
  const std::uint32_t sweeps = opt.sweeps;
  const bool first_touch = opt.affinity.first_touch;

  // ---- per-run state (the plan itself stays untouched) ------------------
  // X: the job's one copy of every reduction array. The worker owning
  // portion pid in a phase is the only one touching X[pid] in that phase.
  std::vector<std::vector<double>> X(RA);
  for (std::vector<double>& a : X) a = zeroed_run_array(N);
  // Node-read arrays, double-buffered by sweep parity: sweep s reads
  // nodes[s % 2]; the final owner of each portion writes its refreshed
  // values into nodes[(s + 1) % 2].
  std::vector<std::vector<double>> nodes[2];
  for (std::vector<std::vector<double>>& parity : nodes) {
    parity.resize(NA);
    for (std::vector<double>& a : parity) a = zeroed_run_array(N);
  }
  kernel.init_node_arrays(nodes[0]);
  // Raw pointers for the batched refresh: X's arrays and each parity's.
  std::vector<double*> x_ptr(RA);
  for (std::uint32_t a = 0; a < RA; ++a) x_ptr[a] = X[a].data();
  std::vector<double*> node_ptr[2];
  for (std::uint32_t par = 0; par < 2; ++par)
    for (std::vector<double>& a : nodes[par]) node_ptr[par].push_back(a.data());
  if (first_touch) {
    for (std::vector<double>& a : X) release_pages(a.data(), a.size());
    for (std::vector<double>& a : nodes[1])
      release_pages(a.data(), a.size());
  }
  // token[q * kp + ph]: posted by q's ring sender when the portion q owns
  // in phase ph may be touched; it carries no data.
  struct Token {
    std::binary_semaphore sem{0};
  };
  const std::unique_ptr<Token[]> token = std::make_unique<Token[]>(
      static_cast<std::size_t>(P) * kp);
  // ready[pid]: sweeps whose node-read refresh of pid has been published.
  const std::unique_ptr<std::atomic<std::uint32_t>[]> ready =
      std::make_unique<std::atomic<std::uint32_t>[]>(kp);
  std::mutex ready_mutex;
  std::condition_variable ready_cv;

  const CostTags tags = make_cost_tags(RA, NA);

  NativeResult result;
  result.profile.workers.resize(P);
  std::uint64_t slot_words = 0;
  for (const InspectorResult& insp : plan.insp)
    slot_words += static_cast<std::uint64_t>(RA) *
                  (insp.local_array_size - N);
  result.profile.run_state_bytes =
      sizeof(double) * (static_cast<std::uint64_t>(RA) * N + slot_words +
                        2ull * NA * N);

  // Stall watchdog: every wait is bounded by opt.stall_timeout (0 =
  // unbounded). The first wait to time out records a description and
  // raises `stalled`; every other wait polls the flag and bails, so all
  // threads unwind, join() returns, and the failure surfaces as a
  // check_error instead of a hang. `describe` is a callable producing the
  // diagnostic: the fast path (token or portion ready, or no timeout)
  // never materializes the string, so waiting costs zero allocations.
  std::atomic<bool> stalled{false};
  std::mutex stall_mutex;
  std::string stall_what;
  const auto deadline_after = [&](Clock::time_point start) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opt.stall_timeout));
  };
  const auto give_up = [&](auto&& describe) {
    if (!stalled.exchange(true)) {
      const std::lock_guard<std::mutex> lock(stall_mutex);
      stall_what = describe();
    }
    return false;
  };
  const auto wait_token = [&](Token& t, auto&& describe) -> bool {
    if (opt.stall_timeout <= 0.0) {
      t.sem.acquire();
      return true;
    }
    if (t.sem.try_acquire()) return true;
    const auto deadline = deadline_after(Clock::now());
    while (!t.sem.try_acquire_for(std::chrono::milliseconds(10))) {
      if (stalled.load(std::memory_order_relaxed)) return false;
      if (Clock::now() >= deadline) return give_up(describe);
    }
    return true;
  };
  const auto wait_ready = [&](std::uint32_t pid, std::uint32_t sweep,
                              auto&& describe) -> bool {
    const auto is_ready = [&] {
      return ready[pid].load(std::memory_order_acquire) >= sweep;
    };
    if (is_ready()) return true;
    const auto deadline = deadline_after(Clock::now());
    std::unique_lock<std::mutex> lock(ready_mutex);
    while (!is_ready()) {
      if (stalled.load(std::memory_order_relaxed)) return false;
      if (opt.stall_timeout > 0.0 && Clock::now() >= deadline)
        return give_up(describe);
      ready_cv.wait_for(lock, std::chrono::milliseconds(10));
    }
    return true;
  };

  const auto t0 = Clock::now();
  result.profile.setup_s = seconds_between(t_setup, t0);

  std::vector<std::thread> threads;
  threads.reserve(P);
  for (std::uint32_t p = 0; p < P; ++p) {
    threads.emplace_back([&, p] {
      const auto t_enter = Clock::now();
      if (opt.affinity.pin_threads) pin_current_thread(p);
      WorkerStages& stages = result.profile.workers[p];
      earth::FiberContext ctx = earth::FiberContext::detached(p);
      const InspectorResult& insp = plan.insp[p];
      // The worker's private remote-buffer slots (ids >= N), one row of
      // B_p per reduction array, allocated and zeroed on this thread.
      const std::size_t B = insp.local_array_size - N;
      std::vector<double> slots = zeroed_run_array(B * RA);
      // ps: the views compute and the second loop use (reads nodes[s % 2]);
      // fin, on the per-edge path only: the same reduction views with the
      // refresh target for update_nodes (nodes[(s + 1) % 2]).
      ProcArrays ps;
      for (std::uint32_t a = 0; a < RA; ++a)
        ps.reduction.push_back({X[a].data(), slots.data() + a * B, N});
      ProcArrays fin;
      if (!opt.batch) fin = ps;
      std::vector<std::uint32_t> redirected(shape.num_refs);
      if (first_touch) {
        for (std::uint32_t ph = 0; ph < k; ++ph) {
          const std::uint32_t pid = sched.owned_portion(p, ph);
          for (std::uint32_t a = 0; a < RA; ++a)
            std::fill(X[a].begin() + sched.portion_begin(pid),
                      X[a].begin() + sched.portion_end(pid), 0.0);
        }
      }
      auto t_mark = Clock::now();
      stages.setup_s = seconds_between(t_enter, t_mark);

      for (std::uint32_t sweep = 0; sweep < sweeps; ++sweep) {
        const std::uint32_t cur = sweep % 2;
        ps.node_read = node_ptr[cur];
        if (!opt.batch) fin.node_read = node_ptr[cur ^ 1];
        for (std::uint32_t ph = 0; ph < kp; ++ph) {
          const std::uint32_t pid = sched.owned_portion(p, ph);
          const std::uint32_t begin = sched.portion_begin(pid);
          const std::uint32_t end = sched.portion_end(pid);

          // Sweep boundary: wait until every portion's final owner has
          // published its refresh into nodes[cur]. This one wait covers
          // both parity hazards: reading nodes[cur] before every portion
          // is ready, and overwriting nodes[cur ^ 1] (this sweep's
          // refresh target) while a slower worker still reads it as the
          // previous sweep's nodes[cur] — every worker's last read of it
          // precedes the refresh that worker publishes at phase kP-1.
          if (ph == 0 && sweep > 0 && NA > 0) {
            for (std::uint32_t opid = 0; opid < kp; ++opid) {
              if (!wait_ready(opid, sweep, [&] {
                    return "proc " + std::to_string(p) +
                           " stuck waiting for node-read portion " +
                           std::to_string(opid) + " (final owner proc " +
                           std::to_string(sched.final_owner(opid)) +
                           ") to be ready for sweep " +
                           std::to_string(sweep);
                  }))
                return;
            }
          }

          // Ownership of the portion (the first k phases of sweep 0
          // start owned).
          if (!(sweep == 0 && ph < k)) {
            if (!wait_token(token[std::size_t{p} * kp + ph], [&] {
                  return "proc " + std::to_string(p) +
                         " stuck waiting for portion " +
                         std::to_string(pid) + " to arrive for phase " +
                         std::to_string(ph) + " at sweep " +
                         std::to_string(sweep) + " (lost forward?)";
                }))
              return;
          }
          const auto t_compute = Clock::now();
          stages.wait_s += seconds_between(t_mark, t_compute);

          // Main loop: one batched compute_phase call streaming the
          // indirection block, or the per-edge path (a virtual call plus
          // a `redirected` gather per edge) the tests keep as reference.
          const inspector::PhaseSchedule& phase = insp.phases[ph];
          const std::size_t iters = phase.iter_global.size();
          if (opt.batch) {
            PhaseView view;
            view.iter_global = phase.iter_global;
            view.iter_local = phase.iter_local;
            view.indir = phase.indir_flat;
            view.num_iters = iters;
            view.num_refs = shape.num_refs;
            kernel.compute_phase(ctx, tags, view, ps);
          } else {
            for (std::size_t j = 0; j < iters; ++j) {
              for (std::uint32_t r = 0; r < shape.num_refs; ++r)
                redirected[r] = phase.indir_flat[r * iters + j];
              kernel.compute_edge(ctx, tags, phase.iter_global[j],
                                  phase.iter_local[j], redirected, ps);
            }
          }
          const auto t_fold = Clock::now();
          stages.compute_s += seconds_between(t_compute, t_fold);

          // Second loop: fold this worker's buffer slots into the portion,
          // array by array over raw pointers. copy_dst < N and copy_src >=
          // N are verifier invariants (E-PLAN-OOB, E-PLAN-SLOT-RANGE), so
          // no access needs ReductionView's element/slot select. Each
          // element still sums its slots in j order: bit-identical to an
          // entry-major fold.
          const std::size_t folds = phase.copy_dst.size();
          const std::uint32_t* dst = phase.copy_dst.data();
          const std::uint32_t* src = phase.copy_src.data();
          for (std::uint32_t a = 0; a < RA; ++a) {
            double* const x = X[a].data();
            double* const s = slots.data() + a * B;
            for (std::size_t j = 0; j < folds; ++j) {
              x[dst[j]] += s[src[j] - N];
              s[src[j] - N] = 0.0;
            }
          }
          const auto t_refresh = Clock::now();
          stages.fold_s += seconds_between(t_fold, t_refresh);

          // Hook: the messages this phase posts (its ownership token and,
          // at a last owning phase, the portion's readiness) vanish.
          const bool lost = opt.lose_forward.enabled &&
                            opt.lose_forward.proc == p &&
                            opt.lose_forward.phase == ph &&
                            opt.lose_forward.sweep == sweep;

          // Portion complete: refresh its node-read values into the other
          // parity, re-zero X[pid] for the next sweep (the last sweep
          // leaves X as the result) and publish the portion. The batched
          // path makes one refresh_nodes pass; the per-edge reference path
          // keeps the copy, update_nodes and fill it must match.
          if (sched.last_owning_phase(pid) == ph) {
            const bool zero_x = sweep + 1 < sweeps;
            if (opt.batch) {
              kernel.refresh_nodes(ctx, tags, begin, end, node_ptr[cur],
                                   node_ptr[cur ^ 1], x_ptr, zero_x);
            } else {
              for (std::uint32_t a = 0; a < NA; ++a)
                std::copy(nodes[cur][a].begin() + begin,
                          nodes[cur][a].begin() + end,
                          nodes[cur ^ 1][a].begin() + begin);
              kernel.update_nodes(ctx, tags, begin, end, begin, fin);
              if (zero_x)
                for (std::uint32_t a = 0; a < RA; ++a)
                  std::fill(X[a].begin() + begin, X[a].begin() + end, 0.0);
            }
            if (zero_x && NA > 0 && !lost) {
              {
                const std::lock_guard<std::mutex> lock(ready_mutex);
                ready[pid].store(sweep + 1, std::memory_order_release);
              }
              ready_cv.notify_all();
            }
          }
          t_mark = Clock::now();
          stages.refresh_s += seconds_between(t_refresh, t_mark);

          // Pass ownership around the ring.
          std::uint32_t tph = ph + k;
          const std::uint32_t tsweep = sweep + (tph >= kp ? 1 : 0);
          tph %= kp;
          if (tsweep < sweeps && !lost)
            token[std::size_t{sched.next_owner(p)} * kp + tph].sem.release();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (stalled.load()) {
    const std::lock_guard<std::mutex> lock(stall_mutex);
    throw check_error("native engine stalled after " +
                      std::to_string(opt.stall_timeout) + "s: " +
                      stall_what);
  }

  result.wall_seconds = seconds_between(t0, Clock::now());
  result.reduction = std::move(X);
  result.node_read = std::move(nodes[sweeps % 2]);
  return result;
}

}  // namespace

NativeResult run_native_plan(const PhasedKernel& kernel,
                             const ExecutionPlan& plan,
                             const SweepOptions& opt) {
  const KernelShape shape = kernel.shape();
  ER_EXPECTS(opt.sweeps >= 1);
  ER_CHECK_MSG(shape.num_nodes == plan.shape.num_nodes &&
                   shape.num_edges == plan.shape.num_edges &&
                   shape.num_refs == plan.shape.num_refs &&
                   shape.num_reduction_arrays ==
                       plan.shape.num_reduction_arrays &&
                   shape.num_node_read_arrays ==
                       plan.shape.num_node_read_arrays,
               "execution plan was built for a differently-shaped kernel");

  return run_phased(kernel, plan, opt);
}

NativeResult run_native_engine(const PhasedKernel& kernel,
                               const PlanOptions& plan_opt,
                               const SweepOptions& sweep_opt) {
  const ExecutionPlan plan = build_execution_plan(kernel, plan_opt);
  return run_native_plan(kernel, plan, sweep_opt);
}

}  // namespace earthred::core
