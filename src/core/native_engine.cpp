#include "core/native_engine.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <queue>
#include <semaphore>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inspector/plan_walk.hpp"
#include "inspector/rotation.hpp"
#include "mesh/mesh.hpp"
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
constexpr std::uint32_t kNoIter = 0xffffffffu;

/// Step 1 of the layout pass: the portion-preserving RCM permutation.
/// A global RCM rank is computed over the kernel's reference graph (one
/// pseudo-edge per distinct pair of reference targets of each iteration),
/// then elements are reordered by that rank *within each rotation portion
/// only* — every element keeps its portion, so phase assignment, buffer
/// allocation, and fold structure are untouched and the relabeled plan is
/// a pure isomorphism of the canonical one. Returns an empty vector when
/// the graph gives no signal (single-reference kernels).
std::vector<std::uint32_t> portion_preserving_perm(
    const PhasedKernel& kernel, const RotationSchedule& sched,
    const KernelShape& shape) {
  mesh::Mesh graph;
  graph.num_nodes = shape.num_nodes;
  if (shape.num_refs >= 2) {
    graph.edges.reserve(static_cast<std::size_t>(shape.num_edges));
    for (std::uint64_t e = 0; e < shape.num_edges; ++e) {
      const std::uint32_t a = kernel.ref(0, e);
      for (std::uint32_t r = 1; r < shape.num_refs; ++r) {
        const std::uint32_t b = kernel.ref(r, e);
        if (a != b) graph.edges.push_back(mesh::Edge{a, b});
      }
    }
  }
  if (graph.edges.empty()) return {};

  const std::vector<std::uint32_t> rank = mesh::rcm_permutation(graph);
  std::vector<std::uint32_t> perm(shape.num_nodes);
  std::vector<std::uint32_t> elems;
  for (std::uint32_t pid = 0; pid < sched.num_portions(); ++pid) {
    const std::uint32_t begin = sched.portion_begin(pid);
    const std::uint32_t end = sched.portion_end(pid);
    elems.resize(end - begin);
    std::iota(elems.begin(), elems.end(), begin);
    std::sort(elems.begin(), elems.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return rank[x] != rank[y] ? rank[x] < rank[y] : x < y;
              });
    for (std::uint32_t i = 0; i < elems.size(); ++i)
      perm[elems[i]] = begin + i;
  }
  if (std::is_sorted(perm.begin(), perm.end())) return {};  // identity
  return perm;
}

/// Step 2 of the layout pass: target-stable reordering of one phase.
/// Iterations are rescheduled so scatter targets ascend (sequential
/// stores instead of a random walk over the owned portion) under the
/// constraint that any two iterations touching the same *element* keep
/// their relative order — precedence-respecting list scheduling, so
/// per-element FP accumulation order (and thus the result bits) is
/// unchanged by construction. The chains are keyed on true (renumbered)
/// element ids, not the redirected slots: the phased executor would stay
/// bit-identical either way (one writer per buffer slot, folded in slot
/// order), but the privatized executor accumulates straight into element
/// arrays in edge order, and two iterations can share an
/// element while holding distinct buffer slots. `last_iter`/`last_ref`
/// are caller-owned scratch sized num_nodes and filled with kNoIter;
/// they are restored before returning so phases can share them.
void reorder_phase_target_stable(const PhasedKernel& kernel,
                                 std::span<const std::uint32_t> perm,
                                 inspector::PhaseSchedule& ph,
                                 std::uint32_t num_refs,
                                 std::vector<std::uint32_t>& last_iter,
                                 std::vector<std::uint32_t>& last_ref) {
  const std::size_t n = ph.iter_global.size();
  const std::uint32_t R = num_refs;
  if (n < 2 || R == 0) return;

  // Per-element FIFO chains as successor links: succ[j*R + r] is the next
  // iteration touching the element that iteration j touches through its
  // reference slot r (kNoIter when j is the chain tail or slot r repeats
  // an earlier slot's element within j).
  std::vector<std::uint32_t> succ(n * R, kNoIter);
  std::vector<std::uint32_t> indegree(n, 0);
  std::vector<std::uint32_t> key(n);
  std::vector<std::uint32_t> touched;
  std::vector<std::uint32_t> truej(R);
  for (std::size_t j = 0; j < n; ++j) {
    std::uint32_t k = ph.indir[0][j];
    for (std::uint32_t r = 1; r < R; ++r)
      k = std::min(k, ph.indir[r][j]);
    key[j] = k;
    const std::uint32_t e = ph.iter_global[j];
    for (std::uint32_t r = 0; r < R; ++r) {
      const std::uint32_t raw = kernel.ref(r, e);
      truej[r] = perm.empty() ? raw : perm[raw];
    }
    for (std::uint32_t r = 0; r < R; ++r) {
      const std::uint32_t t = truej[r];
      bool dup = false;
      for (std::uint32_t r2 = 0; r2 < r; ++r2)
        if (truej[r2] == t) {
          dup = true;
          break;
        }
      if (dup) continue;
      if (last_iter[t] != kNoIter) {
        succ[static_cast<std::size_t>(last_iter[t]) * R + last_ref[t]] =
            static_cast<std::uint32_t>(j);
        ++indegree[j];
      } else {
        touched.push_back(t);
      }
      last_iter[t] = static_cast<std::uint32_t>(j);
      last_ref[t] = r;
    }
  }
  for (const std::uint32_t t : touched) last_iter[t] = kNoIter;

  // Kahn's algorithm with a min-heap on (scatter key, original index):
  // always emit the ready iteration with the lowest target, ties by
  // original position — fully deterministic.
  using Entry = std::pair<std::uint32_t, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
  for (std::size_t j = 0; j < n; ++j)
    if (indegree[j] == 0)
      ready.emplace(key[j], static_cast<std::uint32_t>(j));
  std::vector<std::uint32_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::uint32_t j = ready.top().second;
    ready.pop();
    order.push_back(j);
    for (std::uint32_t r = 0; r < R; ++r) {
      const std::uint32_t s = succ[static_cast<std::size_t>(j) * R + r];
      if (s != kNoIter && --indegree[s] == 0) ready.emplace(key[s], s);
    }
  }
  ER_ENSURES(order.size() == n);  // chains are acyclic by construction

  const auto permute = [&](inspector::U32Buf& buf) {
    std::vector<std::uint32_t> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = buf[order[i]];
    buf = inspector::U32Buf(std::move(out));
  };
  permute(ph.iter_global);
  permute(ph.iter_local);
  for (std::uint32_t r = 0; r < R; ++r) permute(ph.indir[r]);
  ph.flatten_indir();
}

/// Rough bytes streamed per iteration by the batched loops (indices plus
/// edge data plus one gathered double per reference) — only the scale
/// matters, the tile size is clamped anyway.
std::uint32_t layout_bytes_per_iter(std::uint32_t num_refs) {
  return 4u * (num_refs + 1) + 8u * num_refs + 24u;
}

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
  bytes += perm.footprint_bytes() + perm_inv.footprint_bytes();
  return bytes;
}

ExecutionPlan build_execution_plan(const PhasedKernel& kernel,
                                   const PlanOptions& opt) {
  const KernelShape shape = kernel.shape();
  ER_EXPECTS(opt.num_procs >= 1);
  ER_EXPECTS(opt.k >= 1);
  // Fail a forced strategy the host cannot run at build time (the same
  // E-STRATEGY-UNSUPPORTED the service's admission control reports)
  // instead of on the first run of the cached plan.
  (void)resolve_strategy(opt.strategy,
                         strategy_inputs(shape, opt.num_procs, opt.k));

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t P = opt.num_procs;
  ExecutionPlan plan{shape, opt,
                     RotationSchedule(shape.num_nodes, P, opt.k),
                     {}, 0.0, nullptr, {}, {}, LayoutKind::None, 0};

  // ---- layout pass, step 1 (core/layout.hpp) --------------------------
  // Resolve the request (environment override included) and compute the
  // portion-preserving permutation. The effective kind is written back
  // into plan.options so the plan and its cache/store key can never
  // disagree about what was built.
  const LayoutKind requested = effective_layout(opt.layout);
  plan.options.layout = requested;
  std::vector<std::uint32_t> perm;
  if (requested != LayoutKind::None) {
    perm = portion_preserving_perm(kernel, plan.sched, shape);
    bool renumberable = true;
    if (!perm.empty()) renumberable = kernel.clone_renumbered(perm) != nullptr;
    if (renumberable) {
      plan.applied_layout = LayoutKind::Rcm;
    } else if (requested == LayoutKind::Auto) {
      perm.clear();  // fall back: paper-faithful plan
    } else {
      throw check_error(
          "E-LAYOUT-UNSUPPORTED: layout=rcm requires a kernel that "
          "implements clone_renumbered");
    }
  }

  auto owned_iters = inspector::distribute_iterations(
      shape.num_edges, P, opt.distribution, opt.block_cyclic_size);
  plan.insp.resize(P);

  // Each processor's reference gather + inspector run is independent and
  // deterministic, so any worker may build any p and the plan comes out
  // byte-identical to a serial build (test_batch_equivalence asserts it).
  // Under a layout the references are gathered *through the permutation*
  // — the plan is exactly what a fresh build against the renumbered
  // kernel clone would produce — and each finished phase is reordered
  // target-stable (step 2).
  const auto build_one = [&](std::uint32_t p) {
    inspector::IterationRefs refs;
    refs.global_iter = std::move(owned_iters[p]);
    refs.refs.resize(shape.num_refs);
    for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
      refs.refs[r].reserve(refs.global_iter.size());
      if (perm.empty()) {
        for (std::uint32_t e : refs.global_iter)
          refs.refs[r].push_back(kernel.ref(r, e));
      } else {
        for (std::uint32_t e : refs.global_iter)
          refs.refs[r].push_back(perm[kernel.ref(r, e)]);
      }
    }
    plan.insp[p] =
        inspector::run_light_inspector(plan.sched, p, refs, opt.inspector);
    if (plan.applied_layout != LayoutKind::None) {
      std::vector<std::uint32_t> last_iter(shape.num_nodes, kNoIter);
      std::vector<std::uint32_t> last_ref(last_iter.size(), 0);
      for (inspector::PhaseSchedule& ph : plan.insp[p].phases)
        reorder_phase_target_stable(kernel, perm, ph, shape.num_refs,
                                    last_iter, last_ref);
    }
  };

  run_per_proc(P, opt.build_threads, shape.num_edges, build_one);

  // Step 3: cache-blocked tile size for the batched loops; 0 (untiled)
  // whenever the layout is None so the default hot path is untouched.
  if (plan.applied_layout != LayoutKind::None) {
    plan.tile_iters = layout_tile_iters(
        layout_bytes_per_iter(shape.num_refs), opt.layout_tile_iters);
    if (!perm.empty()) {
      std::vector<std::uint32_t> inv(perm.size());
      for (std::uint32_t v = 0; v < perm.size(); ++v) inv[perm[v]] = v;
      plan.perm = inspector::U32Buf(std::move(perm));
      plan.perm_inv = inspector::U32Buf(std::move(inv));
    }
  }

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
  // Layout bases interleave the inspector's canonical iteration order
  // with the target-stable reorder, which the sparse updater cannot patch
  // through. Builds are deterministic, so rebuilding under the base's
  // options is bit-identical to a fresh build — the patch contract — just
  // not incremental; the PlanCache counts this fallback separately.
  if (previous.applied_layout != LayoutKind::None ||
      previous.options.layout != LayoutKind::None)
    return build_execution_plan(kernel, previous.options);
  ER_EXPECTS_MSG(!opt.inspector.dedup_buffers,
                 "incremental re-plan supports the paper's one-slot-per-"
                 "reference scheme only");

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t P = opt.num_procs;
  // The patched plan keeps the base's schedule and storage handle:
  // untouched phases may still be zero-copy views into a plan-store
  // mapping owned by `previous`.
  ExecutionPlan plan{shape, opt, previous.sched, {}, 0.0, previous.storage,
                     {},    {},  LayoutKind::None, 0};
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
  // or aliased cache entries). A layout plan's references live in the
  // relabeled element space, so the expectation is mapped through the
  // plan's permutation.
  const inspector::U32Buf& perm = plan.perm;
  const std::uint32_t n_elems = plan.sched.num_elements();
  for (std::uint32_t p = 0; p < plan.insp.size(); ++p) {
    const InspectorResult& insp = plan.insp[p];
    for (const inspector::PhaseSchedule& phase : insp.phases) {
      const std::size_t n = phase.iter_global.size();
      for (std::size_t r = 0; r < phase.indir.size(); ++r) {
        if (phase.indir[r].size() != n) continue;  // already E-PLAN-SHAPE
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint64_t g = phase.iter_global[j];
          if (g >= plan.shape.num_edges) continue;  // already E-PLAN-OOB
          std::uint32_t expected =
              kernel->ref(static_cast<std::uint32_t>(r), g);
          if (!perm.empty() && expected < perm.size())
            expected = perm[expected];
          const std::uint32_t v = phase.indir[r][j];
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
          // flattened indirection block, or the per-edge fallback (a
          // virtual call plus a `redirected` scatter copy per edge).
          const inspector::PhaseSchedule& phase = insp.phases[ph];
          const std::size_t iters = phase.iter_global.size();
          if (opt.batch &&
              phase.indir_flat.size() == iters * shape.num_refs) {
            PhaseView view;
            view.iter_global = phase.iter_global;
            view.iter_local = phase.iter_local;
            view.indir = phase.indir_flat;
            view.num_iters = iters;
            view.num_refs = shape.num_refs;
            view.tile_iters = plan.tile_iters;
            kernel.compute_phase(ctx, tags, view, ps);
          } else {
            for (std::size_t j = 0; j < iters; ++j) {
              for (std::uint32_t r = 0; r < shape.num_refs; ++r)
                redirected[r] = phase.indir[r][j];
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

/// Privatized executor: every worker accumulates into a full private
/// replica of the reduction arrays using the *direct* element ids (the
/// plan's redirection undone via kernel.ref), then the replicas are
/// folded into a shared result in fixed worker-ascending order over
/// disjoint node ranges. The fixed fold order is the strategy's
/// bit-identity contract: the batched and per-edge paths perform the
/// same FP ops in the same order (the phased contract, inherited), and
/// the merge adds replica 0, 1, ..., P-1 per element regardless of
/// thread timing, so results never depend on interleaving.
NativeResult run_privatized(const PhasedKernel& kernel,
                            const ExecutionPlan& plan,
                            const SweepOptions& opt) {
  const KernelShape shape = kernel.shape();
  const std::uint32_t P = plan.options.num_procs;
  const std::uint32_t kp = P * plan.options.k;
  const std::uint32_t RA = shape.num_reduction_arrays;
  const std::uint32_t NA = shape.num_node_read_arrays;
  const std::uint32_t N = shape.num_nodes;
  const std::uint32_t R = shape.num_refs;
  const bool first_touch = opt.affinity.first_touch;

  // The shared arrays the fold writes and update_nodes reads/writes.
  ProcArrays merged;
  merged.reduction.assign(RA, std::vector<double>(N, 0.0));
  merged.node_read.assign(NA, std::vector<double>(N, 0.0));
  kernel.init_node_arrays(merged.node_read);

  std::vector<ProcArrays> priv(P);
  // direct[p][ph]: the worker's schedule with redirection undone — a
  // flattened ref-major block of true element ids, same layout as the
  // plan's indir_flat, so the kernels' batched phase loops run unchanged
  // against the full-size replica.
  std::vector<std::vector<std::vector<std::uint32_t>>> direct(P);

  const auto init_proc_state = [&](std::uint32_t p) {
    priv[p].reduction.assign(RA, std::vector<double>(N, 0.0));
    priv[p].node_read.assign(NA, std::vector<double>(N, 0.0));
    kernel.init_node_arrays(priv[p].node_read);
    direct[p].resize(kp);
    for (std::uint32_t ph = 0; ph < kp; ++ph) {
      const inspector::PhaseSchedule& phase = plan.insp[p].phases[ph];
      const std::size_t iters = phase.iter_global.size();
      std::vector<std::uint32_t>& flat = direct[p][ph];
      flat.resize(iters * R);
      for (std::uint32_t r = 0; r < R; ++r)
        for (std::size_t j = 0; j < iters; ++j)
          flat[static_cast<std::size_t>(r) * iters + j] =
              kernel.ref(r, phase.iter_global[j]);
    }
  };
  if (!first_touch)
    for (std::uint32_t p = 0; p < P; ++p) init_proc_state(p);

  const CostTags tags = make_cost_tags(RA, NA);
  NativeResult result;
  const std::uint32_t sweeps = opt.sweeps;
  std::barrier sync(static_cast<std::ptrdiff_t>(P));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(P);
  for (std::uint32_t p = 0; p < P; ++p) {
    threads.emplace_back([&, p] {
      if (opt.affinity.pin_threads) pin_current_thread(p);
      if (first_touch) {
        init_proc_state(p);
        sync.arrive_and_wait();
      }
      earth::FiberContext ctx = earth::FiberContext::detached(p);
      ProcArrays& ps = priv[p];
      std::vector<std::uint32_t> redirected(R);
      // This worker's node range: it folds, updates and publishes
      // exactly these elements.
      const std::uint32_t lo = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(N) * p / P);
      const std::uint32_t hi = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(N) * (p + 1) / P);

      for (std::uint32_t sweep = 0; sweep < sweeps; ++sweep) {
        for (std::uint32_t ph = 0; ph < kp; ++ph) {
          const inspector::PhaseSchedule& phase = plan.insp[p].phases[ph];
          const std::size_t iters = phase.iter_global.size();
          const std::vector<std::uint32_t>& flat = direct[p][ph];
          if (opt.batch) {
            PhaseView view;
            view.iter_global = phase.iter_global;
            view.iter_local = phase.iter_local;
            view.indir = flat;
            view.num_iters = iters;
            view.num_refs = R;
            view.tile_iters = plan.tile_iters;
            kernel.compute_phase(ctx, tags, view, ps);
          } else {
            for (std::size_t j = 0; j < iters; ++j) {
              for (std::uint32_t r = 0; r < R; ++r)
                redirected[r] = flat[static_cast<std::size_t>(r) * iters + j];
              kernel.compute_edge(ctx, tags, phase.iter_global[j],
                                  phase.iter_local[j], redirected, ps);
            }
          }
        }

        // All replicas complete before anyone folds.
        sync.arrive_and_wait();

        // Fixed-order fold over this worker's node range: replica 0
        // first, then ascending — the deterministic-merge contract.
        for (std::uint32_t a = 0; a < RA; ++a) {
          for (std::uint32_t v = lo; v < hi; ++v) {
            double sum = priv[0].reduction[a][v];
            for (std::uint32_t q = 1; q < P; ++q)
              sum += priv[q].reduction[a][v];
            merged.reduction[a][v] = sum;
          }
        }
        kernel.update_nodes(ctx, tags, lo, hi, lo, merged);

        // Publish before anyone reads another range or zeroes a replica
        // someone may still be folding from.
        sync.arrive_and_wait();

        if (sweep + 1 < sweeps) {
          for (std::uint32_t a = 0; a < RA; ++a)
            std::fill(ps.reduction[a].begin(), ps.reduction[a].end(), 0.0);
          for (std::uint32_t a = 0; a < NA; ++a)
            std::copy(merged.node_read[a].begin(),
                      merged.node_read[a].end(), ps.node_read[a].begin());
          sync.arrive_and_wait();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.reduction = std::move(merged.reduction);
  result.node_read = std::move(merged.node_read);
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

  // Resolve the lowering strategy once, before any worker spawns: Auto
  // picks through the cost model.
  const StrategyKind strategy = resolve_strategy(
      plan.options.strategy,
      strategy_inputs(shape, plan.options.num_procs, plan.options.k));

  // Layout plans address the relabeled element space: every executor runs
  // against a renumbered clone of the kernel and the result arrays are
  // un-permuted at read-out, so callers never see the relabeling.
  std::unique_ptr<PhasedKernel> renumbered;
  const PhasedKernel* exec = &kernel;
  if (!plan.perm.empty()) {
    ER_CHECK_MSG(plan.perm.size() == shape.num_nodes,
                 "layout permutation does not match the kernel's node count");
    renumbered = kernel.clone_renumbered(plan.perm);
    ER_CHECK_MSG(renumbered != nullptr,
                 "E-LAYOUT-UNSUPPORTED: plan carries a layout permutation "
                 "but the kernel cannot renumber");
    exec = renumbered.get();
  }

  NativeResult result;
  switch (strategy) {
    case StrategyKind::Privatized:
      result = run_privatized(*exec, plan, opt);
      break;
    case StrategyKind::Auto:  // unreachable after resolution
    case StrategyKind::Phased:
      result = run_phased(*exec, plan, opt);
      break;
  }
  result.strategy = strategy;

  if (!plan.perm.empty()) {
    // res_old[a][v] = res_new[a][perm[v]] — one gather per array.
    std::vector<double> tmp;
    const auto unpermute = [&](std::vector<std::vector<double>>& arrs) {
      for (std::vector<double>& a : arrs) {
        tmp.resize(a.size());
        for (std::uint32_t v = 0; v < shape.num_nodes; ++v)
          tmp[v] = a[plan.perm[v]];
        a.swap(tmp);
      }
    };
    unpermute(result.reduction);
    unpermute(result.node_read);
  }
  return result;
}

NativeResult run_native_engine(const PhasedKernel& kernel,
                               const PlanOptions& plan_opt,
                               const SweepOptions& sweep_opt) {
  const ExecutionPlan plan = build_execution_plan(kernel, plan_opt);
  return run_native_plan(kernel, plan, sweep_opt);
}

}  // namespace earthred::core
