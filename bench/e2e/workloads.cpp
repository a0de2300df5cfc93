#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "core/native_engine.hpp"
#include "core/plan_io.hpp"
#include "core/sequential.hpp"
#include "inspector/distribution.hpp"
#include "inspector/light_inspector.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "net/client.hpp"
#include "service/job_builder.hpp"
#include "service/job_scheduler.hpp"
#include "service/plan_cache.hpp"
#include "service/serve_loop.hpp"
#include "shard/shard_map.hpp"
#include "shard/shard_router.hpp"
#include "support/check.hpp"
#include "support/cpu_features.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "trace.hpp"

namespace earthred::e2e {
namespace {

using service::JobOutcome;
using service::JobRequest;
using service::JobScheduler;
using service::JobState;
using KernelPtr = std::shared_ptr<const core::PhasedKernel>;

constexpr std::uint32_t kOverlapK = 2;  // the paper's k, on every workload

/// setup_s is the median of several setups: at least three, and as many
/// as fit in about a second (at most 21), so that millisecond setups
/// report a steady median.
int setup_reps(double first_seconds) {
  const double fit = std::ceil(1.0 / std::max(first_seconds, 1e-6));
  return static_cast<int>(std::clamp(fit, 3.0, 21.0));
}
/// Warm-up before each timed window: at least one step and this long.
constexpr double kWarmupSeconds = 1.0;
/// Tolerance against the sequential reference, relative to each array's
/// largest magnitude (fig1 is integer-valued and must match exactly).
constexpr double kReferenceTolerance = 1e-9;

double since(Clock::time_point t) { return seconds_between(t, Clock::now()); }

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

KernelPtr make_kernel(const std::string& kind, mesh::Mesh m) {
  if (kind == "euler")
    return std::make_shared<kernels::EulerKernel>(std::move(m));
  if (kind == "moldyn")
    return std::make_shared<kernels::MoldynKernel>(std::move(m));
  ER_CHECK_MSG(kind == "fig1", "unknown kernel '" + kind + "'");
  return std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(std::move(m)));
}

const mesh::Mesh& mesh_of(const core::PhasedKernel& k) {
  if (const auto* e = dynamic_cast<const kernels::EulerKernel*>(&k))
    return e->mesh();
  if (const auto* m = dynamic_cast<const kernels::MoldynKernel*>(&k))
    return m->mesh();
  return dynamic_cast<const kernels::Fig1Kernel&>(k).mesh();
}

core::PlanOptions plan_options(std::uint32_t procs) {
  core::PlanOptions p;  // defaults everywhere else, as a user gets them
  p.num_procs = procs;
  p.k = kOverlapK;
  return p;
}

JobRequest request(KernelPtr kernel, const char* name, std::uint32_t procs,
                   std::uint32_t sweeps,
                   std::optional<std::uint64_t> fingerprint) {
  JobRequest req;
  req.kernel = std::move(kernel);
  req.name = name;
  req.plan = plan_options(procs);
  req.sweeps = sweeps;
  req.fingerprint = fingerprint;
  return req;
}

JobScheduler::Config scheduler_config(std::uint64_t cache_budget) {
  JobScheduler::Config cfg;
  cfg.workers = 1;
  cfg.cache.byte_budget = cache_budget;
  return cfg;
}

/// Bytes one sweep touches, computed from array sizes (cache misses are
/// ignored): the per-edge index and edge-data streams, plus every
/// processor's node-read replicas and its reduction arrays, read and
/// written.
std::uint64_t computed_sweep_bytes(const core::KernelShape& s,
                                   std::uint32_t procs) {
  const std::uint64_t per_edge = 4ull * (s.num_refs + 1) + 8;
  const std::uint64_t per_node =
      8ull * (s.num_node_read_arrays + 2ull * s.num_reduction_arrays);
  return s.num_edges * per_edge + std::uint64_t{procs} * s.num_nodes * per_node;
}

/// Compares a native result with the sequential reference run.
bool matches_sequential(const core::PhasedKernel& kernel, bool exact,
                        std::uint32_t sweeps, const core::NativeResult& r,
                        std::string* why) {
  core::SequentialOptions so;
  so.sweeps = sweeps;
  so.machine.cache.enabled = false;  // only the values are used
  const core::RunResult ref = core::run_sequential_kernel(kernel, so);
  const auto same = [&](const std::vector<std::vector<double>>& got,
                        const std::vector<std::vector<double>>& want,
                        const char* what) {
    if (got.size() != want.size()) {
      *why = strformat("%s: %zu arrays, reference has %zu", what, got.size(),
                       want.size());
      return false;
    }
    for (std::size_t a = 0; a < want.size(); ++a) {
      if (got[a].size() != want[a].size()) {
        *why = strformat("%s[%zu]: length differs from the reference", what, a);
        return false;
      }
      double scale = 0.0;
      for (double v : want[a]) scale = std::max(scale, std::fabs(v));
      for (std::size_t i = 0; i < want[a].size(); ++i) {
        const double diff = std::fabs(got[a][i] - want[a][i]);
        if (exact ? got[a][i] != want[a][i]
                  : !(diff <= kReferenceTolerance * scale)) {
          *why = strformat("%s[%zu][%zu] = %.17g, reference %.17g", what, a,
                           i, got[a][i], want[a][i]);
          return false;
        }
      }
    }
    return true;
  };
  return same(r.reduction, ref.reduction, "reduction") &&
         same(r.node_read, ref.node_read, "node_read");
}

/// Correctness bookkeeping shared by every phase of a run.
struct Checks {
  /// Digest of each key's first completed job; later jobs must match it.
  std::map<std::string, std::uint64_t> expected;
  std::uint64_t attempted = 0;
  /// Jobs that failed, were rejected, or returned a wrong result.
  std::uint64_t failed = 0;
  /// Wrong results and failed reference checks.
  std::uint64_t mismatches = 0;
  std::uint64_t reference_checks = 0;
  /// Seconds spent in reference checks (outside setup and the window).
  double reference_s = 0.0;
  std::string first_error;

  void note(const std::string& why) {
    if (first_error.empty()) first_error = why;
  }
  void wrong(const std::string& why) {
    ++mismatches;
    note(why);
  }
};

/// Samples of one timed window.
struct Window {
  double elapsed_s = 0.0;
  /// Sum of every job's latency: the time the single caller of a closed
  /// loop spent waiting on the system.
  double busy_s = 0.0;
  double edge_updates = 0.0;  ///< edges x sweeps of completed jobs
  std::vector<double> latency_s;  ///< completed jobs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> submit_s, queue_s, acquire_s, exec_s, residual_s,
      digest_s;
  std::vector<double> write_latency_s, write_acquire_s;  ///< replan-churn
  std::uint64_t phased = 0, privatized = 0;

  void merge(const Window& o) {
    const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    busy_s += o.busy_s;
    edge_updates += o.edge_updates;
    attempted += o.attempted;
    failed += o.failed;
    phased += o.phased;
    privatized += o.privatized;
    cat(latency_s, o.latency_s);
    cat(submit_s, o.submit_s);
    cat(queue_s, o.queue_s);
    cat(acquire_s, o.acquire_s);
    cat(exec_s, o.exec_s);
    cat(residual_s, o.residual_s);
    cat(digest_s, o.digest_s);
  }
};

/// Places derived queue / acquire / exec spans, from the durations the
/// service reported, inside a job span that resolved at `resolved`.
void place_service_spans(std::uint64_t parent, std::uint64_t job,
                         Clock::time_point parent_start,
                         Clock::time_point resolved, double queue,
                         double acquire, double exec, double total) {
  const auto at = [&](double s) {
    return std::min(resolved, resolved - to_duration(total - s));
  };
  tracer().derived("service.queue", parent, job, parent_start, at(queue),
                   queue);
  tracer().derived("service.acquire", parent, job, parent_start,
                   at(queue + acquire), acquire);
  tracer().derived("core.exec", parent, job, parent_start,
                   at(queue + acquire + exec), exec);
}

std::atomic<std::uint64_t> g_next_job{1};

struct JobDone {
  bool ok = false;
  double latency_s = 0.0;
  double acquire_s = 0.0;
};

/// Runs one job to completion, accounts it in `w` and `checks`, and
/// checks its result: the first completed job of `key` fixes the key's
/// expected digest (and, with `reference`, is compared with the
/// sequential run); every later job of the key must reproduce it.
JobDone run_job(JobScheduler& sched, JobRequest req, const std::string& key,
                bool reference, Checks& checks, Window& w) {
  const std::uint64_t job = g_next_job.fetch_add(1);
  const KernelPtr kernel = req.kernel;
  const std::uint32_t sweeps = req.sweeps;
  const bool exact = dynamic_cast<const kernels::Fig1Kernel*>(kernel.get());
  service::JobHandle handle;
  const JobOutcome* o = nullptr;
  JobDone done;
  {
    const Span span("service.job", job);
    const auto t0 = Clock::now();
    {
      const Span submit("service.submit", job);
      handle = sched.submit(std::move(req));
    }
    w.submit_s.push_back(since(t0));
    o = &handle.wait();
    const auto t1 = Clock::now();
    done.latency_s = seconds_between(t0, t1);
    place_service_spans(span.id(), job, span.start(), t1, o->queue_seconds,
                        o->setup_seconds, o->exec_seconds, o->total_seconds);
  }
  ++w.attempted;
  ++checks.attempted;
  w.busy_s += done.latency_s;
  if (o->state != JobState::Done) {
    ++w.failed;
    ++checks.failed;
    checks.note(key + ": " + o->error);
    return done;
  }

  std::uint64_t digest = 0;
  {
    const Span span("service.digest", job);
    const auto t = Clock::now();
    digest = service::result_digest(o->native);
    w.digest_s.push_back(since(t));
  }
  const auto [it, first] = checks.expected.try_emplace(key, digest);
  bool right = first || it->second == digest;
  if (!right) checks.wrong(key + ": digest differs from the first job's");
  if (first && reference) {
    const auto t = Clock::now();
    std::string why;
    ++checks.reference_checks;
    if (!matches_sequential(*kernel, exact, sweeps, o->native, &why)) {
      checks.wrong(key + ": first result differs from the sequential "
                   "reference: " + why);
      right = false;
    }
    checks.reference_s += since(t);
  }
  if (!right) {
    ++w.failed;
    ++checks.failed;
    return done;
  }

  done.ok = true;
  done.acquire_s = o->setup_seconds;
  w.latency_s.push_back(done.latency_s);
  w.edge_updates += static_cast<double>(kernel->shape().num_edges) * sweeps;
  w.queue_s.push_back(o->queue_seconds);
  w.acquire_s.push_back(o->setup_seconds);
  w.exec_s.push_back(o->exec_seconds);
  w.residual_s.push_back(o->total_seconds - o->queue_seconds -
                         o->setup_seconds - o->exec_seconds);
  if (o->strategy == core::StrategyKind::Phased) ++w.phased;
  if (o->strategy == core::StrategyKind::Privatized) ++w.privatized;
  return done;
}

/// Calls `step` until `seconds` have passed and at least `min_steps` ran.
template <class Step>
Window run_window(double seconds, std::uint64_t min_steps, Step&& step) {
  Window w;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < min_steps || since(t0) < seconds; ++i)
    step(w);
  w.elapsed_s = since(t0);
  return w;
}

/// End-to-end metrics of a window. `rate_s` is the time rates are taken
/// over: the caller's busy time for a closed loop, wall time for an open
/// one.
std::vector<Metric> e2e_metrics(const std::vector<double>& setup_s,
                                const Window& w, double rate_s,
                                double tail_pct, JsonWriter& detail) {
  const Tail tail = tail_percentile(w.latency_s, tail_pct);
  detail.field("tail_percentile", tail.percentile)
      .field("tail_beyond", static_cast<std::uint64_t>(tail.beyond))
      .field("tail_valid", tail.valid)
      .field("window_elapsed_s", w.elapsed_s);
  const std::uint64_t n = w.latency_s.size();
  const double rate_base = rate_s > 0 ? rate_s : 1.0;
  return {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"edge_updates_per_s", w.edge_updates / rate_base / 1e6,
       "Medge-updates/s", n},
      {"jobs_per_s", static_cast<double>(n) / rate_base, "jobs/s", n},
      {"job_p50_ms", median(w.latency_s) * 1e3, "ms", n},
      {"job_tail_ms", tail.value * 1e3, "ms", n},
      {"peak_rss_mb", peak_rss_mib(), "MiB", 1},
  };
}

/// Per-layer numbers the service reports for the jobs of a window.
void service_layers(const Window& w, std::vector<Metric>& out) {
  const auto ms = [](const std::vector<double>& xs) {
    return median(xs) * 1e3;
  };
  out.push_back({"service.submit_us", median(w.submit_s) * 1e6, "us",
                 w.submit_s.size()});
  out.push_back({"service.queue_ms", ms(w.queue_s), "ms", w.queue_s.size()});
  out.push_back(
      {"service.acquire_ms", ms(w.acquire_s), "ms", w.acquire_s.size()});
  out.push_back({"service.exec_ms", ms(w.exec_s), "ms", w.exec_s.size()});
  out.push_back(
      {"service.residual_ms", ms(w.residual_s), "ms", w.residual_s.size()});
  out.push_back(
      {"service.digest_ms", ms(w.digest_s), "ms", w.digest_s.size()});
  out.push_back({"core.jobs_phased", static_cast<double>(w.phased), "count"});
  out.push_back(
      {"core.jobs_privatized", static_cast<double>(w.privatized), "count"});
}

void cache_layers(const service::PlanCache::Counters& c,
                  std::vector<Metric>& out) {
  out.push_back({"cache.hit_rate", c.hit_rate(), "fraction",
                 c.hits + c.coalesced + c.misses});
  out.push_back({"cache.misses", static_cast<double>(c.misses), "count"});
  out.push_back({"cache.patched", static_cast<double>(c.patched), "count"});
  out.push_back({"cache.patch_fallbacks",
                 static_cast<double>(c.patch_fallbacks), "count"});
  out.push_back(
      {"cache.evictions", static_cast<double>(c.evictions), "count"});
  out.push_back({"cache.bytes", static_cast<double>(c.bytes), "B"});
}

service::PlanCache::Counters& operator+=(service::PlanCache::Counters& a,
                                         const service::PlanCache::Counters& b) {
  a.hits += b.hits;
  a.coalesced += b.coalesced;
  a.misses += b.misses;
  a.evictions += b.evictions;
  a.bytes += b.bytes;
  a.patched += b.patched;
  a.patch_fallbacks += b.patch_fallbacks;
  return a;
}

// ---- decomposed pass ----------------------------------------------------
//
// Calls the layer functions one by one on the workload's own inputs, so
// each layer's cost is measured by timing a public call: the kernel
// constructor, the fingerprint, the iteration distribution and the
// LightInspector separately, then the full plan build they are part of,
// verification, execution at P and at P=1, and one incremental re-plan
// (0.5% of edges rewired) at every level: LightInspector update, plan
// patch, and the cache's patch_or_build.

struct Input {
  std::string kind;  ///< euler | moldyn | fig1
  mesh::Mesh mesh;
};

/// Median seconds of run_native_plan (three runs when one is short).
double time_exec(const core::PhasedKernel& kernel,
                 const core::ExecutionPlan& plan, std::uint32_t sweeps,
                 const char* span_name) {
  core::SweepOptions so;
  so.sweeps = sweeps;
  std::vector<double> times;
  do {
    const Span span(span_name);
    const auto t = Clock::now();
    (void)core::run_native_plan(kernel, plan, so);
    times.push_back(since(t));
  } while (times.size() < 3 && times.front() < 0.2);
  return median(times);
}

void decompose(std::vector<Input> inputs, std::uint32_t procs,
               std::uint32_t sweeps, std::uint64_t seed, Checks& checks,
               std::vector<Metric>& out) {
  double construct = 0, fingerprint = 0, distribute = 0, light = 0,
         build = 0, verify = 0, update = 0, patch = 0;
  double exec_s = 0, exec1_s = 0, updates = 0, computed_bytes = 0;
  double refs = 0, redirected = 0, layout_applied = 0;
  std::uint64_t plan_bytes = 0;
  std::vector<double> phase_cv, replan_s;
  const core::PlanOptions popt = plan_options(procs);

  for (Input& in : inputs) {
    KernelPtr kernel;
    {
      const Span span("kernels.construct");
      const auto t = Clock::now();
      kernel = make_kernel(in.kind, std::move(in.mesh));
      construct += since(t);
    }
    const core::KernelShape shape = kernel->shape();
    std::uint64_t fp = 0;
    {
      const Span span("service.fingerprint");
      const auto t = Clock::now();
      fp = service::kernel_fingerprint(*kernel);
      fingerprint += since(t);
    }

    // The inspector calls build_execution_plan makes, one at a time.
    std::vector<std::vector<std::uint32_t>> owned;
    {
      const Span span("inspector.distribute");
      const auto t = Clock::now();
      owned = inspector::distribute_iterations(
          shape.num_edges, procs, popt.distribution, popt.block_cyclic_size);
      distribute += since(t);
    }
    const inspector::RotationSchedule rot(shape.num_nodes, procs, kOverlapK);
    std::vector<std::uint64_t> sizes;
    for (std::uint32_t p = 0; p < procs; ++p) {
      inspector::IterationRefs iters;
      iters.global_iter = std::move(owned[p]);
      iters.refs.resize(shape.num_refs);
      for (std::uint32_t r = 0; r < shape.num_refs; ++r) {
        iters.refs[r].reserve(iters.global_iter.size());
        for (std::uint32_t e : iters.global_iter)
          iters.refs[r].push_back(kernel->ref(r, e));
      }
      const Span span("inspector.light");
      const auto t = Clock::now();
      const inspector::InspectorResult res =
          inspector::run_light_inspector(rot, p, iters, popt.inspector);
      light += since(t);
      redirected += static_cast<double>(res.total_deferred());
      const std::vector<std::uint64_t> ps = res.phase_sizes();
      sizes.insert(sizes.end(), ps.begin(), ps.end());
    }
    refs += static_cast<double>(shape.num_edges) * shape.num_refs;
    phase_cv.push_back(coefficient_of_variation(sizes));

    std::optional<core::ExecutionPlan> plan;
    {
      const Span span("core.plan_build");
      const auto t = Clock::now();
      plan.emplace(core::build_execution_plan(*kernel, popt));
      build += since(t);
    }
    {
      const Span span("inspector.verify");
      const auto t = Clock::now();
      const inspector::PlanVerifyReport report =
          core::verify_execution_plan(*plan, kernel.get());
      verify += since(t);
      if (!report.ok())
        checks.wrong(in.kind + ": plan verification failed: " +
                     report.first_error());
    }
    plan_bytes += plan->byte_size();
    if (plan->applied_layout != core::LayoutKind::None) ++layout_applied;

    exec_s += time_exec(*kernel, *plan, sweeps, "core.exec");
    updates += static_cast<double>(shape.num_edges) * sweeps;
    computed_bytes +=
        static_cast<double>(computed_sweep_bytes(shape, procs)) * sweeps;

    // One incremental re-plan of the same size as replan-churn's steps.
    mesh::Mesh mutated = mesh_of(*kernel);
    const std::vector<std::uint32_t> changed = mesh::rewire_edges(
        mutated, std::max<std::uint64_t>(1, shape.num_edges / 200), seed);
    const KernelPtr next = make_kernel(in.kind, std::move(mutated));
    std::vector<std::vector<inspector::ChangedIteration>> per_proc(procs);
    for (std::uint32_t g : changed) {
      const inspector::IterationHome home = inspector::locate_iteration(
          shape.num_edges, procs, popt.distribution, popt.block_cyclic_size,
          g);
      inspector::ChangedIteration ch;
      ch.local = home.local;
      ch.global = g;
      for (std::uint32_t r = 0; r < shape.num_refs; ++r)
        ch.refs.push_back(next->ref(r, g));
      per_proc[home.proc].push_back(std::move(ch));
    }
    for (auto& list : per_proc)
      std::sort(list.begin(), list.end(),
                [](const auto& a, const auto& b) { return a.local < b.local; });
    {
      const Span span("inspector.update");
      const auto t = Clock::now();
      for (std::uint32_t p = 0; p < procs; ++p)
        (void)inspector::update_light_inspector(
            plan->sched, p, plan->insp[p], per_proc[p], popt.inspector);
      update += since(t);
    }
    {
      const Span span("core.plan_patch");
      const auto t = Clock::now();
      (void)core::patch_execution_plan(*next, *plan, changed);
      patch += since(t);
    }
    plan.reset();
    {
      service::PlanCache::Config ccfg;
      ccfg.byte_budget = ~0ull;
      service::PlanCache cache(ccfg);
      (void)cache.lookup_or_build(*kernel, popt, fp);  // the base plan
      const Span span("service.replan");
      const auto t = Clock::now();
      (void)cache.patch_or_build(*next, popt, fp, changed);
      replan_s.push_back(since(t));
    }

    // The same problem on one processor: the single-threaded baseline.
    core::PlanOptions p1 = popt;
    p1.num_procs = 1;
    const core::ExecutionPlan plan1 = core::build_execution_plan(*kernel, p1);
    exec1_s += time_exec(*kernel, plan1, sweeps, "core.exec_p1");
  }

  const double rate = exec_s > 0 ? updates / exec_s / 1e6 : 0.0;
  const double rate1 = exec1_s > 0 ? updates / exec1_s / 1e6 : 0.0;
  const auto add = [&](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit, inputs.size()});
  };
  add("kernels.construct_s", construct, "s");
  add("service.fingerprint_s", fingerprint, "s");
  add("inspector.distribute_s", distribute, "s");
  add("inspector.light_s", light, "s");
  add("inspector.update_s", update, "s");
  add("inspector.verify_s", verify, "s");
  add("inspector.redirected_frac", refs > 0 ? redirected / refs : 0.0,
      "fraction");
  add("inspector.phase_cv",
      std::accumulate(phase_cv.begin(), phase_cv.end(), 0.0) /
          static_cast<double>(std::max<std::size_t>(1, phase_cv.size())),
      "ratio");
  add("core.plan_build_s", build, "s");
  add("core.plan_build_self_s", build - distribute - light, "s");
  add("core.plan_patch_s", patch, "s");
  add("core.plan_bytes", static_cast<double>(plan_bytes), "B");
  add("core.exec_edges_per_s", rate, "Medge-updates/s");
  add("core.exec_edges_per_s_p1", rate1, "Medge-updates/s");
  add("core.parallel_efficiency", rate1 > 0 ? rate / (procs * rate1) : 0.0,
      "ratio");
  add("core.computed_gbps", exec_s > 0 ? computed_bytes / exec_s / 1e9 : 0.0,
      "GB/s");
  add("core.layout_applied", layout_applied, "count");
  add("service.replan_ms", median(replan_s) * 1e3, "ms");
}

/// STREAM triad a = b + s*c over `threads` threads on arrays totalling
/// `bytes`; the best of three passes, counting 24 bytes per element as
/// STREAM does.
double triad_gbps(std::uint64_t bytes, unsigned threads) {
  const std::size_t n = bytes / 24;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const Span span("mem.triad");
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
      pool.emplace_back([&, i] {
        const std::size_t lo = n * i / threads, hi = n * (i + 1) / threads;
        for (std::size_t j = lo; j < hi; ++j) a[j] = b[j] + 3.0 * c[j];
      });
    for (std::thread& th : pool) th.join();
    const double s = since(t);
    if (s > 0) best = std::max(best, 24.0 * static_cast<double>(n) / s / 1e9);
  }
  return n > 0 && a[n / 2] == 7.0 ? best : 0.0;
}

/// Bytes the triad streams: at least four times the last-level cache.
std::uint64_t triad_bytes(bool smoke) {
  if (smoke) return 3ull << 20;
  const std::uint64_t llc = support::host_cache_info().llc_bytes;
  return 4 * (llc ? llc : 32ull << 20);
}

/// Per-layer numbers that only traced runs produce, common to every
/// workload: the decomposed pass, the host's memory bandwidth, and the
/// tracing overhead relative to the untraced window.
void traced_layers(std::vector<Input> inputs, std::uint32_t procs,
                   std::uint32_t sweeps, const RunConfig& cfg,
                   const Window& untraced, const Window& traced,
                   double gen_s, Checks& checks, WorkloadResult& out) {
  out.layers.push_back({"mesh.gen_s", gen_s, "s", inputs.size()});
  decompose(std::move(inputs), procs, sweeps, cfg.seed, checks, out.layers);
  const std::uint64_t bytes = triad_bytes(cfg.smoke);
  out.layers.push_back(
      {"mem.triad_gbps",
       triad_gbps(bytes, std::min(procs, support::hardware_threads())),
       "GB/s", 3});
  out.detail.field("triad_bytes", bytes);
  const double base = median(untraced.latency_s);
  out.layers.push_back(
      {"trace.overhead_frac",
       base > 0 ? median(traced.latency_s) / base - 1.0 : 0.0, "fraction",
       traced.latency_s.size()});
}

// ---- in-process closed-loop workloads -----------------------------------

/// One caller submits a job, waits for it, and submits the next, against
/// a JobScheduler with one worker; each job runs on `procs` threads.
class InProcessWorkload {
 public:
  virtual ~InProcessWorkload() = default;

  std::uint32_t procs = 4;
  std::uint32_t sweeps = 2;
  double tail_pct = 90.0;
  std::uint64_t cache_budget = service::PlanCache::Config{}.byte_budget;
  /// Seconds the benchmark spent generating the inputs (mesh layer).
  double gen_s = 0.0;

  /// Untimed: readies what one setup repetition consumes; `last` marks
  /// the repetition whose state the windows use.
  virtual void prepare(bool last) = 0;
  /// Timed as setup_s: kernel construction, fingerprints, and the first
  /// (cold) plan acquisition.
  virtual void setup(JobScheduler& sched) = 0;
  /// One closed-loop step of one or more jobs.
  virtual void step(JobScheduler& sched, Checks& checks, Window& w) = 0;
  /// Copies of the workload's meshes for the decomposed pass.
  virtual std::vector<Input> inputs() const = 0;
  /// Frees the workload's kernels before the decomposed pass.
  virtual void release() = 0;
  /// Computed bytes one sweep of the largest input touches (after setup).
  virtual std::uint64_t working_set_bytes() const = 0;
};

WorkloadResult run_in_process(const RunConfig& cfg, InProcessWorkload& wl,
                              WorkloadResult out) {
  Checks checks;
  std::vector<double> setup_s;
  std::unique_ptr<JobScheduler> sched;
  for (int rep = 0, reps = 3; rep < reps; ++rep) {
    sched.reset();  // the next cold build must not share a cache
    wl.prepare(rep + 1 == reps);
    const auto t = Clock::now();
    sched = std::make_unique<JobScheduler>(scheduler_config(wl.cache_budget));
    wl.setup(*sched);
    setup_s.push_back(since(t));
    if (rep == 0) reps = setup_reps(setup_s[0]);
  }
  out.working_set_bytes = wl.working_set_bytes();
  const auto step = [&](Window& w) { wl.step(*sched, checks, w); };
  run_window(cfg.smoke ? 0.0 : kWarmupSeconds, 1, step);
  const Window window = run_window(cfg.seconds, 1, step);
  out.e2e = e2e_metrics(setup_s, window, window.busy_s, wl.tail_pct,
                        out.detail);

  if (cfg.traced) {
    tracer().enable();
    const Window traced = run_window(cfg.seconds, 1, step);
    service_layers(traced, out.layers);
    cache_layers(sched->cache().counters(), out.layers);
    if (!traced.write_acquire_s.empty()) {
      out.detail.field("write_p50_ms", median(traced.write_latency_s) * 1e3)
          .field("write_acquire_p50_ms",
                 median(traced.write_acquire_s) * 1e3)
          .field("write_acquire_share", median(traced.write_acquire_s) /
                                            median(traced.write_latency_s));
    }
    std::vector<Input> inputs = wl.inputs();
    sched.reset();
    wl.release();
    traced_layers(std::move(inputs), wl.procs, wl.sweeps, cfg, window, traced,
                  wl.gen_s, checks, out);
  }
  if (!window.write_latency_s.empty())
    out.detail.field("replan_p50_ms", median(window.write_acquire_s) * 1e3)
        .field("write_jobs", static_cast<std::uint64_t>(
                                 window.write_latency_s.size()));

  out.attempted = checks.attempted;
  out.failed = checks.failed;
  out.mismatches = checks.mismatches;
  out.procs = wl.procs;
  out.detail.field("mesh_gen_s", wl.gen_s)
      .field("reference_checks", checks.reference_checks)
      .field("reference_check_s", checks.reference_s)
      .field("first_error", checks.first_error);
  return out;
}

/// Four geometric tiles generated concurrently and laid side by side,
/// then node ids shuffled so that they carry no locality at all.
mesh::Mesh make_dram_mesh(std::uint64_t seed, std::uint32_t tile_nodes,
                          std::uint64_t tile_edges) {
  constexpr std::uint32_t kTiles = 4;
  std::vector<std::future<mesh::Mesh>> tiles;
  for (std::uint32_t i = 0; i < kTiles; ++i)
    tiles.push_back(std::async(std::launch::async, [=] {
      return mesh::make_geometric_mesh({tile_nodes, tile_edges,
                                        seed * kTiles + i});
    }));
  mesh::Mesh m;
  m.edges.reserve(kTiles * tile_edges);
  m.coords.reserve(std::size_t{kTiles} * tile_nodes);
  for (std::uint32_t i = 0; i < kTiles; ++i) {
    const mesh::Mesh t = tiles[i].get();
    const std::uint32_t base = m.num_nodes;
    for (const mesh::Edge& e : t.edges)
      m.edges.push_back({e.a + base, e.b + base});
    for (const auto& c : t.coords)
      m.coords.push_back({c[0] + static_cast<double>(i), c[1], c[2]});
    m.num_nodes += t.num_nodes;
  }
  std::vector<std::uint32_t> perm(m.num_nodes);
  std::iota(perm.begin(), perm.end(), 0u);
  Xoshiro256 rng(seed ^ 0x5eed5eedull);
  for (std::uint32_t i = m.num_nodes; i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  return mesh::renumber(m, perm);
}

class SweepDram final : public InProcessWorkload {
 public:
  SweepDram(const RunConfig& cfg, JsonWriter& detail) {
    procs = 4;
    sweeps = 2;
    // About five jobs fit in a window, so no percentile has ten samples
    // beyond it: the tail reported is the slowest job (README).
    tail_pct = 100.0;
    cache_budget = 4ull << 30;  // one plan of about 1.2 GiB stays cached
    const std::uint32_t tile_nodes = cfg.smoke ? 500 : 1500000;
    const std::uint64_t tile_edges = cfg.smoke ? 2000 : 6000000;
    const auto t = Clock::now();
    {
      const Span span("mesh.gen");
      source_ = make_dram_mesh(cfg.seed, tile_nodes, tile_edges);
    }
    gen_s = since(t);
    detail.field("nodes", source_.num_nodes)
        .field("edges", source_.num_edges())
        .field("sweeps_per_job", sweeps);
  }

  void prepare(bool last) override {
    pending_ = last ? std::move(source_) : source_;
  }
  void setup(JobScheduler& sched) override {
    kernel_ = make_kernel("euler", std::move(pending_));
    fp_ = service::kernel_fingerprint(*kernel_);
    (void)sched.cache().lookup_or_build(*kernel_, plan_options(procs), fp_);
  }
  void step(JobScheduler& sched, Checks& checks, Window& w) override {
    run_job(sched, request(kernel_, "dram", procs, sweeps, fp_), "dram", true,
            checks, w);
  }
  std::vector<Input> inputs() const override {
    std::vector<Input> in;
    in.push_back({"euler", mesh_of(*kernel_)});
    return in;
  }
  void release() override { kernel_.reset(); }
  std::uint64_t working_set_bytes() const override {
    return computed_sweep_bytes(kernel_->shape(), procs);
  }

 private:
  mesh::Mesh source_, pending_;
  KernelPtr kernel_;
  std::uint64_t fp_ = 0;
};

class SweepPaper final : public InProcessWorkload {
 public:
  SweepPaper(const RunConfig& cfg, JsonWriter& detail) {
    procs = 4;
    sweeps = cfg.smoke ? 2 : 20;
    // p99 (about 30 jobs beyond it) moved by 30% between runs on the
    // reference host; p90 is the highest percentile that repeats.
    tail_pct = 90.0;
    // The paper's sizes: euler 9,428 / 59,863 and moldyn 10,976 (14^3
    // FCC cells) / 65,856; fig1 on the euler-sized mesh, integer-valued.
    const std::uint32_t nodes = cfg.smoke ? 900 : 9428;
    const std::uint64_t edges = cfg.smoke ? 5000 : 59863;
    const std::uint32_t cells = cfg.smoke ? 4 : 14;
    const std::uint64_t pairs = cfg.smoke ? 1200 : 65856;
    const std::uint64_t s = cfg.seed * 4;
    const auto t = Clock::now();
    {
      const Span span("mesh.gen");
      meshes_.push_back(
          {"euler", mesh::make_geometric_mesh({nodes, edges, s + 1})});
      meshes_.push_back(
          {"moldyn", mesh::make_moldyn_lattice({cells, pairs, 0.05, s + 2})});
      meshes_.push_back(
          {"fig1", mesh::make_geometric_mesh({nodes, edges, s + 3})});
    }
    gen_s = since(t);
    std::string sizes;
    for (const Input& in : meshes_)
      sizes += strformat("%s%s %u/%llu", sizes.empty() ? "" : ", ",
                         in.kind.c_str(), in.mesh.num_nodes,
                         static_cast<unsigned long long>(in.mesh.num_edges()));
    detail.field("meshes", sizes).field("sweeps_per_job", sweeps);
  }

  void prepare(bool) override { pending_ = meshes_; }
  void setup(JobScheduler& sched) override {
    kernels_.clear();
    fps_.clear();
    for (Input& in : pending_) {
      kernels_.push_back(make_kernel(in.kind, std::move(in.mesh)));
      fps_.push_back(service::kernel_fingerprint(*kernels_.back()));
      (void)sched.cache().lookup_or_build(*kernels_.back(),
                                          plan_options(procs), fps_.back());
    }
  }
  void step(JobScheduler& sched, Checks& checks, Window& w) override {
    const std::size_t i = next_++ % kernels_.size();
    const std::string& kind = meshes_[i].kind;
    run_job(sched, request(kernels_[i], kind.c_str(), procs, sweeps, fps_[i]),
            kind, true, checks, w);
  }
  std::vector<Input> inputs() const override { return meshes_; }
  void release() override { kernels_.clear(); }
  std::uint64_t working_set_bytes() const override {
    std::uint64_t most = 0;
    for (const KernelPtr& k : kernels_)
      most = std::max(most, computed_sweep_bytes(k->shape(), procs));
    return most;
  }

 private:
  std::vector<Input> meshes_, pending_;
  std::vector<KernelPtr> kernels_;
  std::vector<std::uint64_t> fps_;
  std::uint64_t next_ = 0;
};

class ReplanChurn final : public InProcessWorkload {
 public:
  ReplanChurn(const RunConfig& cfg, JsonWriter& detail) : seed_(cfg.seed) {
    procs = 4;
    sweeps = 2;
    // A quarter of the jobs are writes; p90 falls among them.
    tail_pct = 90.0;
    const std::uint32_t cells = cfg.smoke ? 5 : 20;
    const std::uint64_t interactions = cfg.smoke ? 3000 : 192000;
    const auto t = Clock::now();
    {
      const Span span("mesh.gen");
      source_ = mesh::make_moldyn_lattice({cells, interactions, 0.05, seed_});
    }
    gen_s = since(t);
    mutate_ = std::max<std::uint64_t>(1, source_.num_edges() / 200);
    detail.field("nodes", source_.num_nodes)
        .field("edges", source_.num_edges())
        .field("rewired_per_step", mutate_)
        .field("sweeps_per_job", sweeps);
  }

  void prepare(bool) override { pending_ = source_; }
  void setup(JobScheduler& sched) override {
    base_ = make_kernel("moldyn", std::move(pending_));
    base_fp_ = service::kernel_fingerprint(*base_);
    (void)sched.cache().lookup_or_build(*base_, plan_options(procs),
                                        base_fp_);
  }

  /// One step: the base mesh with 0.5% of its interactions rewired (made
  /// outside job timing), one write job that patches the base plan, and
  /// three read jobs that hit the cache: two on the new mesh, one on the
  /// base (which keeps the base plan resident while the steps' own plans
  /// are evicted). Every 16th step the patched plan is compared with a
  /// fresh build.
  void step(JobScheduler& sched, Checks& checks, Window& w) override {
    const core::PlanOptions popt = plan_options(procs);
    mesh::Mesh m = source_;
    std::vector<std::uint32_t> changed =
        mesh::rewire_edges(m, mutate_, seed_ * 1000003 + step_);
    const KernelPtr kernel = make_kernel("moldyn", std::move(m));
    const std::string key = "step";
    checks.expected.erase(key);

    JobRequest write = request(kernel, "write", procs, sweeps, std::nullopt);
    write.patch_base = base_fp_;
    write.changed_edges = std::move(changed);
    const JobDone d =
        run_job(sched, std::move(write), key, step_ == 0, checks, w);
    if (d.ok) {
      w.write_latency_s.push_back(d.latency_s);
      w.write_acquire_s.push_back(d.acquire_s);
    }
    const std::uint64_t fp = service::kernel_fingerprint(*kernel);
    for (int r = 0; r < 3; ++r) {
      const bool on_base = r == 2;
      run_job(sched,
              on_base ? request(base_, "read-base", procs, sweeps, base_fp_)
                      : request(kernel, "read", procs, sweeps, fp),
              on_base ? "base" : key, on_base && step_ == 0, checks, w);
    }
    if (step_ % 16 == 0) {
      const auto t = Clock::now();
      const service::PlanPtr patched =
          sched.cache().lookup_or_build(*kernel, popt, fp);
      const core::ExecutionPlan fresh =
          core::build_execution_plan(*kernel, popt);
      ++checks.reference_checks;
      if (!core::plans_bit_identical(*patched, fresh))
        checks.wrong(strformat("step %llu: patched plan differs from a fresh "
                               "build",
                               static_cast<unsigned long long>(step_)));
      checks.reference_s += since(t);
    }
    ++step_;
  }
  std::vector<Input> inputs() const override {
    std::vector<Input> in;
    in.push_back({"moldyn", source_});
    return in;
  }
  void release() override { base_.reset(); }
  std::uint64_t working_set_bytes() const override {
    return computed_sweep_bytes(base_->shape(), procs);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t mutate_ = 1;
  std::uint64_t step_ = 0;
  mesh::Mesh source_, pending_;
  KernelPtr base_;
  std::uint64_t base_fp_ = 0;
};

// ---- route-open: open loop through the shard router ---------------------

/// Offered load, jobs/s: about half the closed-loop capacity of this
/// fleet measured on the reference host (README).
constexpr double kRouteRate = 90.0;
/// A run whose generator ran later than this at p99 did not offer the
/// load it claims and is marked invalid.
constexpr double kRouteLateBoundMs = 5.0;
constexpr std::uint32_t kRouteClients = 2;
/// A 15 s window holds 1,350 jobs, about 13 beyond p99: too few for a
/// steady tail, so the tail is p90.
constexpr double kRouteTailPct = 90.0;
constexpr std::uint32_t kRouteProcs = 2;
constexpr std::uint32_t kRouteSweeps = 2;
/// Fleets replaced at start-up (see route_open) before the run gives up.
constexpr std::uint64_t kMaxFleetRestarts = 40;

struct RouteLine {
  std::string text;
  std::string kind;
  std::uint32_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t seed = 0;
};

std::string shard_name(std::size_t i) { return "shard-" + std::to_string(i); }

/// Eight lines, euler and fig1 alternating, growing in size. Each line's
/// mesh seed is the first one from the run's seed that routes it to the
/// shard the pattern 0,1,1,0,0,1,1,0 names, so both shards own two euler
/// and two fig1 lines with equal total size whatever the seed: the routing
/// skew, and with it the queueing, does not vary between runs.
std::vector<RouteLine> route_lines(const RunConfig& cfg) {
  const shard::ShardMap map(
      {{shard_name(0), "127.0.0.1", 0}, {shard_name(1), "127.0.0.1", 0}});
  constexpr std::uint32_t kOwner[8] = {0, 1, 1, 0, 0, 1, 1, 0};
  std::vector<RouteLine> lines;
  for (std::uint32_t i = 0; i < 8; ++i) {
    RouteLine l;
    l.kind = i % 2 ? "fig1" : "euler";
    l.nodes = (cfg.smoke ? 300 : 2000) + i * (cfg.smoke ? 40 : 420);
    l.edges = 4ull * l.nodes;
    for (std::uint64_t attempt = 0;; ++attempt) {
      l.seed = (cfg.seed * 8 + i) * 1000 + attempt;
      l.text = strformat(
          "kernel=%s nodes=%u edges=%llu seed=%llu procs=%u k=%u sweeps=%u "
          "name=line%u",
          l.kind.c_str(), l.nodes, static_cast<unsigned long long>(l.edges),
          static_cast<unsigned long long>(l.seed), kRouteProcs, kOverlapK,
          kRouteSweeps, i);
      if (map.owner(shard::content_key(l.text)) == kOwner[i]) break;
    }
    lines.push_back(std::move(l));
  }
  return lines;
}

/// One backend shard: a JobScheduler with one worker behind a ServeLoop
/// whose job lines go through the benchmark's JobBuilder callback.
struct Shard {
  JobScheduler sched{scheduler_config(service::PlanCache::Config{}.byte_budget)};
  service::JobBuilder builder{[] {
    service::JobLimits limits;
    limits.allow_file_io = false;
    return limits;
  }()};
  std::vector<double> build_s;  ///< loop thread only, until it exits
  std::unique_ptr<service::ServeLoop> loop;

  Shard() {
    loop = std::make_unique<service::ServeLoop>(
        sched,
        [this](std::string_view line) {
          const Span span("service.jobbuilder");
          const auto t = Clock::now();
          service::JobBuild b = builder.build(line);
          build_s.push_back(since(t));
          return b;
        },
        service::ServeConfig{});
  }
};

net::ClientConfig client_config(std::uint16_t port) {
  net::ClientConfig c;
  c.port = port;
  return c;
}

/// Two shards and a router, all on loopback in this process.
class Fleet {
 public:
  Fleet() {
    std::vector<shard::ShardEndpoint> eps;
    std::string error;
    for (int i = 0; i < 2; ++i) {
      shards_.push_back(std::make_unique<Shard>());
      ER_CHECK_MSG(shards_.back()->loop->start(&error),
                   "shard start failed: " + error);
      eps.push_back({shard_name(i), "127.0.0.1",
                     shards_.back()->loop->port()});
    }
    router_ = std::make_unique<shard::ShardRouter>(shard::ShardMap(eps),
                                                   shard::RouterConfig{});
    ER_CHECK_MSG(router_->start(&error), "router start failed: " + error);
  }
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Drains router-last; counters are final afterwards. Each shard is
  /// also asked directly, so one lost Drain frame cannot hang the run.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    router_->drain_fleet();
    router_->wait();
    for (auto& s : shards_) {
      s->loop->request_drain();
      s->loop->wait();
      s->sched.drain();
    }
  }

  std::uint16_t router_port() const { return router_->port(); }
  std::uint16_t shard_port(std::size_t i) const {
    return shards_[i]->loop->port();
  }
  shard::ShardRouter& router() { return *router_; }
  const std::vector<std::unique_ptr<Shard>>& shards() const {
    return shards_;
  }

 private:
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<shard::ShardRouter> router_;
  bool stopped_ = false;
};

bool done_reply(const net::Client::Reply& r) {
  return r.ok() &&
         r.result.state == static_cast<std::uint32_t>(JobState::Done);
}

struct LoadStats {
  std::uint64_t arrivals = 0;
  std::vector<double> late_s;  ///< the generator's own lateness
  std::vector<double> wire_s;  ///< client latency minus service total
  net::ClientStats client;
};

/// Open loop: Poisson arrivals at `rate` over `seconds`, served by
/// kRouteClients generator threads with one client connection each.
/// Latency is taken from each job's scheduled send time.
Window open_loop(Fleet& fleet, const std::vector<RouteLine>& lines,
                 const std::vector<std::uint64_t>& expected, double rate,
                 double seconds, std::uint64_t seed, Checks& checks,
                 LoadStats& load) {
  struct Arrival {
    double at = 0.0;
    std::uint32_t line = 0;
  };
  // A Poisson process conditioned on its count: rate x seconds arrivals
  // at uniform random times, each line equally often in random order, so
  // that the offered load and job mix do not vary with the seed.
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<Arrival> arrivals(n);
  Xoshiro256 rng(seed);
  for (std::size_t j = 0; j < n; ++j)
    arrivals[j] = {rng.uniform() * seconds,
                   static_cast<std::uint32_t>(j % lines.size())};
  for (std::size_t j = n; j > 1; --j)
    std::swap(arrivals[j - 1].line, arrivals[rng.below(j)].line);
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  load.arrivals += n;

  Window total;
  std::mutex mutex;  // guards total, load, checks
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kRouteClients; ++c)
    threads.emplace_back([&, c] {
      net::ClientConfig cc = client_config(fleet.router_port());
      cc.jitter_seed = seed + c;
      net::Client client(cc);
      Window w;
      std::vector<double> late, wire;
      std::vector<std::string> failures, wrong;
      for (std::size_t j; (j = next.fetch_add(1)) < arrivals.size();) {
        const Arrival& a = arrivals[j];
        const auto due = t0 + to_duration(a.at);
        const auto free = Clock::now();
        std::this_thread::sleep_until(due);
        const std::uint64_t job = g_next_job.fetch_add(1);
        const Span span("net.submit", job);
        const auto sent = Clock::now();
        const net::Client::Reply r = client.submit(lines[a.line].text);
        const auto got = Clock::now();
        ++w.attempted;
        // The generator's own lateness: how far past the later of the due
        // time and its connection becoming free it sent. Waiting for a
        // busy connection is the system's doing and counts in latency.
        late.push_back(seconds_between(std::max(due, free), sent));
        const double latency = seconds_between(due, got);
        w.busy_s += latency;
        if (!done_reply(r)) {
          ++w.failed;
          failures.push_back(
              lines[a.line].text + ": " +
              (r.ok() ? r.result.error : r.code + " " + r.detail));
          continue;
        }
        if (r.result.digest != expected[a.line]) {
          ++w.failed;
          wrong.push_back(lines[a.line].text +
                          ": remote digest differs from the first job's");
          continue;
        }
        const net::ResultBody& b = r.result;
        const double wire_s = seconds_between(sent, got) - b.total_seconds;
        wire.push_back(wire_s);
        const auto service_end = got - to_duration(wire_s / 2);
        const Tracer::Placed svc = tracer().derived(
            "service.job", span.id(), job, span.start(), service_end,
            b.total_seconds);
        place_service_spans(svc.id, job, svc.start, service_end,
                             b.queue_seconds, b.setup_seconds,
                             b.exec_seconds, b.total_seconds);
        w.latency_s.push_back(latency);
        w.edge_updates += static_cast<double>(lines[a.line].edges) *
                          kRouteSweeps;
        w.queue_s.push_back(b.queue_seconds);
        w.acquire_s.push_back(b.setup_seconds);
        w.exec_s.push_back(b.exec_seconds);
        w.residual_s.push_back(b.total_seconds - b.queue_seconds -
                               b.setup_seconds - b.exec_seconds);
      }
      const std::lock_guard<std::mutex> lock(mutex);
      total.merge(w);
      load.late_s.insert(load.late_s.end(), late.begin(), late.end());
      load.wire_s.insert(load.wire_s.end(), wire.begin(), wire.end());
      const net::ClientStats& s = client.stats();
      load.client.calls += s.calls;
      load.client.attempts += s.attempts;
      load.client.retries += s.retries;
      load.client.reconnects += s.reconnects;
      checks.attempted += w.attempted;
      checks.failed += w.failed;
      for (const std::string& e : failures) checks.note(e);
      for (const std::string& e : wrong) checks.wrong(e);
    });
  for (std::thread& t : threads) t.join();
  total.elapsed_s = since(t0);
  return total;
}

/// Median microseconds of `n` pings.
double ping_us(std::uint16_t port, int n) {
  net::Client client(client_config(port));
  std::vector<double> s;
  for (int i = 0; i < n; ++i) {
    const Span span("net.ping");
    const auto t = Clock::now();
    if (client.ping().ok()) s.push_back(since(t));
  }
  return median(s) * 1e6;
}

/// Median microseconds of `n` submits of `line` on one connection.
double submit_us(std::uint16_t port, const std::string& line, int n) {
  net::Client client(client_config(port));
  (void)client.submit(line);  // warms that shard's plan cache
  std::vector<double> s;
  for (int i = 0; i < n; ++i) {
    const Span span("net.submit");
    const auto t = Clock::now();
    if (done_reply(client.submit(line))) s.push_back(since(t));
  }
  return median(s) * 1e6;
}

/// Closed-loop jobs/s of the fleet with kRouteClients callers.
double route_capacity(std::uint16_t port, const std::vector<RouteLine>& lines,
                      double seconds) {
  std::atomic<std::uint64_t> done{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kRouteClients; ++c)
    threads.emplace_back([&, c] {
      net::Client client(client_config(port));
      for (std::size_t j = c; since(t0) < seconds; j += kRouteClients)
        if (done_reply(client.submit(lines[j % lines.size()].text))) ++done;
    });
  for (std::thread& t : threads) t.join();
  return static_cast<double>(done.load()) / since(t0);
}

WorkloadResult route_open(const RunConfig& cfg, WorkloadResult out) {
  const std::vector<RouteLine> lines = route_lines(cfg);
  Checks checks;
  std::vector<double> setup_s;
  std::vector<std::uint64_t> expected(lines.size(), 0);
  std::unique_ptr<Fleet> fleet;
  std::uint64_t restarts = 0;
  for (int rep = 0, reps = 3; rep < reps;) {
    fleet.reset();
    // Fleet start plus one submit per line, which synthesizes the line's
    // mesh and builds its plan on the owning shard. The first job of each
    // line fixes the line's expected digest.
    const auto t = Clock::now();
    fleet = std::make_unique<Fleet>();
    net::Client client(client_config(fleet->router_port()));
    std::vector<net::Client::Reply> replies;
    bool wire_ok = true;
    for (const RouteLine& l : lines) {
      replies.push_back(client.submit(l.text));
      wire_ok = wire_ok && replies.back().ok();
    }
    const double took = since(t);
    // ServeLoop sometimes closes a connection the moment it accepts it
    // (it reads poll results past the end of its poll set for connections
    // accepted in the same round). When that hits the router's first
    // connection to a shard, the router serves that shard's lines from
    // the other one, and the window would measure one shard instead of
    // two; when it hits both shards, submits fail on the wire. Either
    // way the fleet is counted and replaced, and its submits are not
    // accounted: they measure fleet start-up, not the system under load.
    if (!wire_ok || fleet->router().stats().reroutes != 0) {
      ER_CHECK_MSG(++restarts < kMaxFleetRestarts,
                   "no fleet came up with both shards");
      continue;
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const net::Client::Reply& r = replies[i];
      ++checks.attempted;
      if (!done_reply(r)) {
        ++checks.failed;
        checks.note(lines[i].text + ": setup job failed: " + r.result.error);
      } else if (rep == 0) {
        expected[i] = r.result.digest;
      } else if (expected[i] != r.result.digest) {
        ++checks.failed;
        checks.wrong(lines[i].text + ": digest changed between fleets");
      }
    }
    setup_s.push_back(took);
    if (rep == 0) reps = setup_reps(setup_s[0]);
    ++rep;
  }
  out.detail.field("fleet_restarts", restarts);

  // Every remote digest must equal an in-process run of the same line
  // (JobBuilder + JobScheduler), and the first euler and the first fig1
  // line must match the sequential reference.
  Window local;
  {
    const auto t = Clock::now();
    const double before = checks.reference_s;
    JobScheduler sched(
        scheduler_config(service::PlanCache::Config{}.byte_budget));
    service::JobBuilder builder;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      service::JobBuild b = builder.build(lines[i].text);
      ER_CHECK_MSG(b.ok() && b.requests.size() == 1,
                   "route line did not build: " + b.detail);
      const std::string key = "local-line" + std::to_string(i);
      const bool reference = i < 2;
      if (!reference) checks.expected[key] = expected[i];
      run_job(sched, std::move(b.requests[0]), key, reference, checks, local);
      if (reference && checks.expected.count(key) &&
          checks.expected[key] != expected[i])
        checks.wrong(lines[i].text + ": remote digest differs from the "
                     "in-process one");
    }
    checks.reference_checks += lines.size();
    checks.reference_s = before + since(t);
  }

  LoadStats load;
  (void)open_loop(*fleet, lines, expected, kRouteRate,
                  cfg.smoke ? 0.1 : kWarmupSeconds, cfg.seed * 31 + 7,
                  checks, load);
  load = LoadStats{};
  const Window window = open_loop(*fleet, lines, expected, kRouteRate,
                                  cfg.seconds, cfg.seed * 31 + 11, checks,
                                  load);
  out.e2e = e2e_metrics(setup_s, window, window.elapsed_s, kRouteTailPct,
                        out.detail);
  out.detail.field("window_reroutes", fleet->router().stats().reroutes);
  const double late_p99_ms =
      tail_percentile(load.late_s, 99.0).value * 1e3;
  out.detail.field("offered_per_s",
                   static_cast<double>(load.arrivals) / cfg.seconds)
      .field("rate_per_s", kRouteRate)
      .field("late_p99_ms", late_p99_ms)
      .field("late_bound_ms", kRouteLateBoundMs)
      .field("load_valid", late_p99_ms <= kRouteLateBoundMs);
  if (late_p99_ms > kRouteLateBoundMs)
    std::fprintf(stderr,
                 "bench_e2e: route-open generator ran %.2f ms late at p99 "
                 "(bound %.1f ms); this run did not offer its load\n",
                 late_p99_ms, kRouteLateBoundMs);

  if (cfg.traced) {
    tracer().enable();
    LoadStats tload;
    const Window traced = open_loop(*fleet, lines, expected, kRouteRate,
                                    cfg.seconds, cfg.seed * 31 + 13, checks,
                                    tload);
    Window svc = traced;
    svc.submit_s = local.submit_s;  // the in-process submits
    svc.digest_s = local.digest_s;
    const double router_us = ping_us(fleet->router_port(), 100);
    const double shard_us = ping_us(fleet->shard_port(0), 100);
    const double routed_us = submit_us(fleet->router_port(), lines[0].text, 50);
    const double direct_us = submit_us(fleet->shard_port(0), lines[0].text, 50);
    const double capacity =
        route_capacity(fleet->router_port(), lines,
                       cfg.smoke ? 0.1 : std::min(2.0, cfg.seconds / 5));
    fleet->stop();

    service::PlanCache::Counters cache;
    std::vector<double> build_s;
    for (const auto& s : fleet->shards()) {
      cache += s->sched.cache().counters();
      const service::ServiceStats st = s->sched.stats();
      svc.phased += st.served_phased;
      svc.privatized += st.served_privatized;
      build_s.insert(build_s.end(), s->build_s.begin(), s->build_s.end());
    }
    service_layers(svc, out.layers);
    cache_layers(cache, out.layers);
    const shard::RouterStats rs = fleet->router().stats();
    std::uint64_t fmin = ~0ull, fmax = 0;
    for (const shard::ShardSnapshot& s : fleet->router().pool().snapshot()) {
      fmin = std::min(fmin, s.forwards);
      fmax = std::max(fmax, s.forwards);
    }
    // Route-only layers: recorded in the JSON record, not in the per-layer
    // list every workload shares.
    JsonWriter route;
    route.field("net.wire_ms", median(tload.wire_s) * 1e3)
        .field("net.ping_router_us", router_us)
        .field("net.ping_shard_us", shard_us)
        .field("shard.hop_us", routed_us - direct_us)
        .field("net.retries", tload.client.retries)
        .field("net.reconnects", tload.client.reconnects)
        .field("net.attempts_per_call",
               tload.client.calls ? static_cast<double>(tload.client.attempts) /
                                        static_cast<double>(tload.client.calls)
                                  : 0.0)
        .field("shard.forward_spread",
               fmin ? static_cast<double>(fmax) / static_cast<double>(fmin)
                    : 0.0)
        .field("shard.reroutes", rs.reroutes)
        .field("shard.submit_rejects", rs.submit_rejects)
        .field("jobbuilder.build_us", median(build_s) * 1e6)
        .field("loadgen.offered_per_s",
               static_cast<double>(tload.arrivals) / cfg.seconds)
        .field("loadgen.late_p99_ms",
               tail_percentile(tload.late_s, 99.0).value * 1e3)
        .field("capacity_per_s", capacity)
        .field("offered_over_capacity", kRouteRate / capacity);
    out.detail.raw_field("route_layers", route.str());

    std::vector<Input> inputs;
    const auto t = Clock::now();
    {
      const Span span("mesh.gen");
      for (const RouteLine& l : lines)
        inputs.push_back(
            {l.kind, mesh::make_geometric_mesh({l.nodes, l.edges, l.seed})});
    }
    const double gen_s = since(t);
    fleet.reset();
    traced_layers(std::move(inputs), kRouteProcs, kRouteSweeps, cfg, window,
                  traced, gen_s, checks, out);
  }

  out.attempted = checks.attempted;
  out.failed = checks.failed;
  out.mismatches = checks.mismatches;
  out.procs = kRouteProcs;
  std::uint64_t ws = 0;
  for (const RouteLine& l : lines)  // euler's arrays, the larger kernel's
    ws = std::max(ws, computed_sweep_bytes({l.nodes, l.edges, 2, 2, 2},
                                           kRouteProcs));
  out.working_set_bytes = ws;
  std::string sizes;
  for (const RouteLine& l : lines)
    sizes += strformat("%s%s %u/%llu", sizes.empty() ? "" : ", ",
                       l.kind.c_str(), l.nodes,
                       static_cast<unsigned long long>(l.edges));
  out.detail.field("lines", sizes)
      .field("sweeps_per_job", kRouteSweeps)
      .field("reference_checks", checks.reference_checks)
      .field("reference_check_s", checks.reference_s)
      .field("first_error", checks.first_error);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sweep-dram", "sweep-paper", "replan-churn", "route-open"};
  return names;
}

WorkloadResult run_workload(const RunConfig& cfg) {
  WorkloadResult out;
  if (cfg.traced) tracer().enable();  // spans input generation too
  std::unique_ptr<InProcessWorkload> wl;
  if (cfg.workload == "sweep-dram")
    wl = std::make_unique<SweepDram>(cfg, out.detail);
  else if (cfg.workload == "sweep-paper")
    wl = std::make_unique<SweepPaper>(cfg, out.detail);
  else if (cfg.workload == "replan-churn")
    wl = std::make_unique<ReplanChurn>(cfg, out.detail);
  else if (cfg.workload != "route-open")
    throw check_error("unknown workload '" + cfg.workload + "'");
  tracer().disable();  // the untraced window comes first
  if (!wl) return route_open(cfg, std::move(out));
  return run_in_process(cfg, *wl, std::move(out));
}

}  // namespace earthred::e2e
