#include "core/native_engine.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
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

namespace earthred::core {

using inspector::InspectorResult;
using inspector::RotationSchedule;

namespace {

/// One-slot bounded buffer: sender waits `free`, writes, posts `full`;
/// receiver waits `full`, reads, posts `free`.
struct StagedSlot {
  std::vector<double> data;
  std::binary_semaphore full{0};
  std::binary_semaphore free{1};
};

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
/// run_per_proc quietly degrades to the serial loop (bench_hotpath Part 2
/// gates build_threads never losing to serial).
constexpr std::uint64_t kParallelBuildMinEdges = 1u << 18;

/// Runs fn(p) for every processor 0..P-1 on `build_threads` workers
/// (1 = serial, 0 = one per affinity-visible core), rethrowing the first
/// worker exception. Shared by the cold build and the incremental patch.
/// `work_items` is the total edge count the workers will chew through;
/// small builds run serial regardless of build_threads (see above).
template <typename Fn>
void run_per_proc(std::uint32_t P, std::uint32_t build_threads,
                  std::uint64_t work_items, const Fn& fn) {
  std::uint32_t workers =
      build_threads == 0 ? support::hardware_threads() : build_threads;
  workers = std::min(workers, P);
  if (work_items < kParallelBuildMinEdges) workers = 1;
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

  run_per_proc(P, opt.build_threads, shape.num_edges, build_one);

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
  run_per_proc(P, opt.build_threads, changed_sorted.size(), patch_one);

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

/// The paper's executor: portions of the reduction arrays rotate through
/// the processors over k*P phases with bounded-buffer staging (see the
/// header comment). Deterministic; bit-identical between the batched and
/// per-edge paths.
NativeResult run_phased(const PhasedKernel& kernel,
                        const ExecutionPlan& plan, const SweepOptions& opt) {
  const KernelShape shape = kernel.shape();
  const RotationSchedule& sched = plan.sched;
  const std::uint32_t P = plan.options.num_procs;
  const std::uint32_t k = plan.options.k;
  const std::uint32_t kp = P * k;
  const std::uint32_t RA = shape.num_reduction_arrays;
  const std::uint32_t NA = shape.num_node_read_arrays;
  const bool first_touch = opt.affinity.first_touch;

  // ---- per-run mutable state (the plan itself stays untouched) ----------
  // The StagedSlot objects (semaphores) are always created here so the
  // staging topology exists before any worker starts; the *data* vectors
  // are sized either here or — under first-touch — on the worker that owns
  // them, so their pages land on that worker's NUMA node.
  std::vector<ProcArrays> arrays(P);
  // rotation[q][ph]: the portion arriving for q's phase ph.
  std::vector<std::vector<std::unique_ptr<StagedSlot>>> rotation(P);
  // bcast[q][pid]: the refreshed node-read portion pid for receiver q.
  std::vector<std::vector<std::unique_ptr<StagedSlot>>> bcast(P);
  for (std::uint32_t q = 0; q < P; ++q) {
    rotation[q].resize(kp);
    for (std::uint32_t ph = 0; ph < kp; ++ph)
      rotation[q][ph] = std::make_unique<StagedSlot>();
    bcast[q].resize(sched.num_portions());
    for (std::uint32_t pid = 0; pid < sched.num_portions(); ++pid) {
      if (sched.final_owner(pid) == q) continue;  // local, no staging
      bcast[q][pid] = std::make_unique<StagedSlot>();
    }
  }

  /// Sizes processor p's arrays and *receiving* staging buffers. Run on
  /// the main thread normally, or on worker p itself under first-touch.
  const auto init_proc_state = [&](std::uint32_t p) {
    arrays[p].reduction.assign(
        RA, std::vector<double>(plan.insp[p].local_array_size, 0.0));
    arrays[p].node_read.assign(NA,
                               std::vector<double>(shape.num_nodes, 0.0));
    kernel.init_node_arrays(arrays[p].node_read);
    for (std::uint32_t ph = 0; ph < kp; ++ph) {
      const std::uint32_t pid = sched.owned_portion(p, ph);
      rotation[p][ph]->data.assign(
          static_cast<std::size_t>(sched.portion_size(pid)) * RA, 0.0);
    }
    for (std::uint32_t pid = 0; pid < sched.num_portions(); ++pid) {
      if (!bcast[p][pid]) continue;
      bcast[p][pid]->data.assign(
          static_cast<std::size_t>(sched.portion_size(pid)) *
              std::max<std::uint32_t>(NA, 1),
          0.0);
    }
  };
  if (!first_touch)
    for (std::uint32_t p = 0; p < P; ++p) init_proc_state(p);

  const CostTags tags = make_cost_tags(RA, NA);

  NativeResult result;
  result.reduction.assign(RA, std::vector<double>(shape.num_nodes, 0.0));
  result.node_read.assign(NA, std::vector<double>(shape.num_nodes, 0.0));

  const std::uint32_t sweeps = opt.sweeps;
  const auto t0 = std::chrono::steady_clock::now();

  // Stall watchdog: every semaphore wait is bounded by opt.stall_timeout
  // (0 = unbounded). The first wait to time out records a description and
  // raises `stalled`; every other wait polls the flag and bails, so all
  // threads unwind, join() returns, and the failure surfaces as a
  // check_error instead of a hang. `describe` is a callable producing the
  // diagnostic: the fast path (semaphore available, or no timeout) never
  // materializes the string, so waiting costs zero allocations.
  std::atomic<bool> stalled{false};
  std::mutex stall_mutex;
  std::string stall_what;
  const auto wait_or_stall = [&](std::binary_semaphore& sem,
                                 auto&& describe) -> bool {
    if (opt.stall_timeout <= 0.0) {
      sem.acquire();
      return true;
    }
    if (sem.try_acquire()) return true;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(opt.stall_timeout));
    while (!sem.try_acquire_for(std::chrono::milliseconds(10))) {
      if (stalled.load(std::memory_order_relaxed)) return false;
      if (std::chrono::steady_clock::now() >= deadline) {
        if (!stalled.exchange(true)) {
          const std::lock_guard<std::mutex> lock(stall_mutex);
          stall_what = describe();
        }
        return false;
      }
    }
    return true;
  };

  // Under first-touch, every worker sizes its own state before any worker
  // may start touching a neighbor's staging buffers.
  std::barrier init_barrier(static_cast<std::ptrdiff_t>(P));

  std::vector<std::thread> threads;
  threads.reserve(P);
  for (std::uint32_t p = 0; p < P; ++p) {
    threads.emplace_back([&, p] {
      if (opt.affinity.pin_threads) pin_current_thread(p);
      if (first_touch) {
        init_proc_state(p);
        init_barrier.arrive_and_wait();
      }
      earth::FiberContext ctx = earth::FiberContext::detached(p);
      const InspectorResult& insp = plan.insp[p];
      ProcArrays& ps = arrays[p];
      std::vector<std::uint32_t> redirected(shape.num_refs);

      for (std::uint32_t sweep = 0; sweep < sweeps; ++sweep) {
        for (std::uint32_t ph = 0; ph < kp; ++ph) {
          const std::uint32_t pid = sched.owned_portion(p, ph);
          const std::uint32_t begin = sched.portion_begin(pid);
          const std::uint32_t end = sched.portion_end(pid);
          const std::uint32_t psize = end - begin;

          // Sweep boundary: apply the staged node-read refreshes.
          if (ph == 0 && sweep > 0 && NA > 0) {
            for (std::uint32_t opid = 0; opid < sched.num_portions();
                 ++opid) {
              StagedSlot* slot = bcast[p][opid].get();
              if (!slot) continue;  // finalized locally
              if (!wait_or_stall(slot->full, [&] {
                    return "proc " + std::to_string(p) +
                           " stuck waiting for the node-read broadcast "
                           "of portion " +
                           std::to_string(opid) + " at sweep " +
                           std::to_string(sweep);
                  }))
                return;
              const std::uint32_t ob = sched.portion_begin(opid);
              const std::uint32_t osz = sched.portion_size(opid);
              for (std::uint32_t a = 0; a < NA; ++a)
                std::copy(slot->data.begin() + a * osz,
                          slot->data.begin() + (a + 1) * osz,
                          ps.node_read[a].begin() + ob);
              slot->free.release();
            }
          }

          // Portion arrival (the first k phases of sweep 0 start local).
          if (!(sweep == 0 && ph < k)) {
            StagedSlot* slot = rotation[p][ph].get();
            if (!wait_or_stall(slot->full, [&] {
                  return "proc " + std::to_string(p) +
                         " stuck waiting for portion " +
                         std::to_string(pid) + " to arrive for phase " +
                         std::to_string(ph) + " at sweep " +
                         std::to_string(sweep) + " (lost forward?)";
                }))
              return;
            for (std::uint32_t a = 0; a < RA; ++a)
              std::copy(slot->data.begin() + a * psize,
                        slot->data.begin() + (a + 1) * psize,
                        ps.reduction[a].begin() + begin);
            slot->free.release();
          }

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
          // Second loop.
          for (std::size_t j = 0; j < phase.copy_dst.size(); ++j) {
            for (std::uint32_t a = 0; a < RA; ++a) {
              ps.reduction[a][phase.copy_dst[j]] +=
                  ps.reduction[a][phase.copy_src[j]];
              ps.reduction[a][phase.copy_src[j]] = 0.0;
            }
          }

          // Portion complete: node update, result capture, zero, bcast.
          if (sched.last_owning_phase(pid) == ph) {
            kernel.update_nodes(ctx, tags, begin, end, begin, ps);
            if (sweep + 1 == sweeps) {
              for (std::uint32_t a = 0; a < RA; ++a)
                std::copy(ps.reduction[a].begin() + begin,
                          ps.reduction[a].begin() + end,
                          result.reduction[a].begin() + begin);
              for (std::uint32_t a = 0; a < NA; ++a)
                std::copy(ps.node_read[a].begin() + begin,
                          ps.node_read[a].begin() + end,
                          result.node_read[a].begin() + begin);
            }
            for (std::uint32_t a = 0; a < RA; ++a)
              std::fill(ps.reduction[a].begin() + begin,
                        ps.reduction[a].begin() + end, 0.0);
            if (NA > 0 && sweep + 1 < sweeps) {
              for (std::uint32_t q = 0; q < P; ++q) {
                if (q == p) continue;
                StagedSlot* slot = bcast[q][pid].get();
                if (!wait_or_stall(slot->free, [&] {
                      return "proc " + std::to_string(p) +
                             " stuck broadcasting portion " +
                             std::to_string(pid) + " to proc " +
                             std::to_string(q) + " at sweep " +
                             std::to_string(sweep);
                    }))
                  return;
                for (std::uint32_t a = 0; a < NA; ++a)
                  std::copy(ps.node_read[a].begin() + begin,
                            ps.node_read[a].begin() + end,
                            slot->data.begin() + a * psize);
                slot->full.release();
              }
            }
          }

          // Forward the portion around the ring.
          std::uint32_t tph = ph + k;
          std::uint32_t tsweep = sweep + (tph >= kp ? 1 : 0);
          tph %= kp;
          if (tsweep < sweeps) {
            if (opt.lose_forward.enabled && opt.lose_forward.proc == p &&
                opt.lose_forward.phase == ph &&
                opt.lose_forward.sweep == sweep)
              continue;  // fault hook: this forward silently vanishes
            const std::uint32_t q = sched.next_owner(p);
            StagedSlot* slot = rotation[q][tph].get();
            if (!wait_or_stall(slot->free, [&] {
                  return "proc " + std::to_string(p) +
                         " stuck forwarding portion " +
                         std::to_string(pid) + " to proc " +
                         std::to_string(q) + " phase " +
                         std::to_string(tph) + " at sweep " +
                         std::to_string(sweep);
                }))
              return;
            for (std::uint32_t a = 0; a < RA; ++a)
              std::copy(ps.reduction[a].begin() + begin,
                        ps.reduction[a].begin() + end,
                        slot->data.begin() + a * psize);
            slot->full.release();
          }
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

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
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
