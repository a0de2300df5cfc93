#include "service/job_scheduler.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "compiler/check.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"

namespace earthred::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Publishes `out`, then fires the request's completion notification — in
/// that order, so a woken observer always finds the handle ready.
void resolve(std::promise<JobOutcome>& promise, const JobRequest& req,
             JobOutcome out) {
  promise.set_value(std::move(out));
  if (req.on_resolved) req.on_resolved();
}

}  // namespace

JobScheduler::JobScheduler(Config cfg)
    : cfg_(cfg), cache_(cfg.cache) {
  ER_EXPECTS(cfg_.workers >= 1);
  ER_EXPECTS(cfg_.queue_capacity >= 1);
  workers_.reserve(cfg_.workers);
  for (std::uint32_t w = 0; w < cfg_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

JobScheduler::~JobScheduler() { shutdown(); }

JobHandle JobScheduler::submit(JobRequest req) {
  std::promise<JobOutcome> promise;
  JobHandle handle(promise.get_future().share());

  const auto reject = [&](const std::string& reason,
                          std::uint64_t* bucket = nullptr) {
    JobOutcome out;
    out.state = JobState::Rejected;
    out.name = req.name;
    out.error = reason;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++submitted_;
      ++rejected_;
      if (bucket) ++*bucket;
    }
    resolve(promise, req, std::move(out));
  };

  if (!req.dsl_source.empty()) {
    // Admission-time legality check (runs before the kernel check so an
    // illegal loop is diagnosed as such even when no kernel could be
    // bound from it): refused before it can occupy a worker, with the
    // checker's first diagnostic as the reason.
    const compiler::CheckReport report =
        compiler::check_source(req.dsl_source);
    if (report.has_errors()) {
      reject("DSL rejected: " + report.first_error(), &rejected_dsl_);
      return handle;
    }
  }
  if (!req.kernel) {
    reject("malformed request: null kernel");
    return handle;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      lock.unlock();
      reject("scheduler is shut down");
      return handle;
    }
    if (draining_) {
      lock.unlock();
      reject("scheduler is draining (E-SVC-DRAINING)");
      return handle;
    }
    if (queue_.size() >= cfg_.queue_capacity) {
      lock.unlock();
      reject("queue full (capacity " +
             std::to_string(cfg_.queue_capacity) + ")");
      return handle;
    }
    ++submitted_;
    Queued job;
    job.req = std::move(req);
    job.promise = std::move(promise);
    job.submitted = Clock::now();
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return handle;
}

std::vector<JobHandle> JobScheduler::submit_batch(
    std::vector<JobRequest> reqs) {
  std::vector<JobHandle> handles;
  handles.reserve(reqs.size());
  for (JobRequest& r : reqs) handles.push_back(submit(std::move(r)));
  return handles;
}

void JobScheduler::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
}

void JobScheduler::begin_drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  cv_.notify_all();
}

void JobScheduler::drain() {
  begin_drain();
  // Draining workers exit once the queue is empty; joining them is the
  // wait for every in-flight job.
  shutdown();
}

bool JobScheduler::draining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void JobScheduler::abort_queued(const std::string& reason) {
  std::deque<Queued> orphans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    orphans.swap(queue_);
    rejected_ += orphans.size();
  }
  for (Queued& job : orphans) {
    JobOutcome out;
    out.state = JobState::Rejected;
    out.name = job.req.name;
    out.error = reason;
    out.queue_seconds = seconds_since(job.submitted);
    out.total_seconds = out.queue_seconds;
    resolve(job.promise, job.req, std::move(out));
  }
  cv_.notify_all();
}

void JobScheduler::worker_loop() {
  for (;;) {
    Queued job;
    bool expire = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      if (draining_) {
        // Deadline x drain interplay: a queued job whose deadline has
        // already elapsed is rejected with the deadline reason rather
        // than silently completed late.
        const double deadline = job.req.deadline_seconds > 0.0
                                    ? job.req.deadline_seconds
                                    : cfg_.default_deadline;
        if (seconds_since(job.submitted) > deadline) {
          expire = true;
          ++rejected_;
          ++rejected_deadline_;
        }
      }
      if (!expire) ++in_flight_;
    }
    if (expire) {
      JobOutcome out;
      out.state = JobState::Rejected;
      out.name = job.req.name;
      out.queue_seconds = seconds_since(job.submitted);
      out.total_seconds = out.queue_seconds;
      out.error = strformat(
          "deadline exceeded during drain (E-SVC-DEADLINE): queued %.3f s "
          "against a %.3f s deadline",
          out.queue_seconds,
          job.req.deadline_seconds > 0.0 ? job.req.deadline_seconds
                                         : cfg_.default_deadline);
      resolve(job.promise, job.req, std::move(out));
      continue;
    }

    JobOutcome out = execute(job);
    out.total_seconds = seconds_since(job.submitted);

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (out.state == JobState::Done) {
        ++completed_;
      } else if (out.state == JobState::Rejected) {
        // Worker-resolved rejects (plan verification) land in the same
        // lifetime tally as admission rejects, plus their own bucket.
        ++rejected_;
        ++rejected_plan_;
      } else {
        ++failed_;
      }
      if (latencies_.size() < kMaxLatencySamples)
        latencies_.push_back(out.total_seconds);
      else
        latencies_[latency_samples_ % kMaxLatencySamples] = out.total_seconds;
      ++latency_samples_;
      if (!job.req.simulated) {
        if (out.cache_hit) {
          warm_setup_sum_ += out.setup_seconds;
          ++warm_setups_;
        } else {
          cold_setup_sum_ += out.setup_seconds;
          ++cold_setups_;
        }
      }
    }
    resolve(job.promise, job.req, std::move(out));
  }
}

JobOutcome JobScheduler::execute(Queued& job) {
  const JobRequest& req = job.req;
  JobOutcome out;
  out.name = req.name;
  out.simulated = req.simulated;
  out.queue_seconds = seconds_since(job.submitted);

  try {
    if (req.simulated) {
      core::RotationOptions ropt;
      ropt.num_procs = req.plan.num_procs;
      ropt.k = req.plan.k;
      ropt.distribution = req.plan.distribution;
      ropt.block_cyclic_size = req.plan.block_cyclic_size;
      ropt.inspector = req.plan.inspector;
      ropt.sweeps = req.sweeps;
      ropt.machine = req.machine;
      const auto t0 = Clock::now();
      out.simulated_run = core::run_rotation_engine(*req.kernel, ropt);
      out.exec_seconds = seconds_since(t0);
    } else {
      const auto t0 = Clock::now();
      PlanCache::Outcome cache_outcome = PlanCache::Outcome::Built;
      const PlanPtr plan =
          req.patch_base
              ? cache_.patch_or_build(*req.kernel, req.plan, *req.patch_base,
                                      req.changed_edges, req.fingerprint,
                                      &cache_outcome)
              : cache_.lookup_or_build(*req.kernel, req.plan,
                                       req.fingerprint, &cache_outcome);
      out.setup_seconds = seconds_since(t0);
      // "Warm" means no inspector ran for this job: a memory hit or a
      // coalesced wait. Disk loads and incremental patches are cheaper
      // than builds but still did per-job plan work, so they tally as
      // cold setups (their own cache counters break them out).
      out.cache_hit = cache_outcome == PlanCache::Outcome::Hit ||
                      cache_outcome == PlanCache::Outcome::Coalesced;
      out.plan_source = cache_outcome;
      out.plan_build_seconds = plan->build_seconds;

      if (req.plan.verify) {
        // Full verification — rotation invariants plus the kernel
        // cross-check — on every acquisition, warm hits included: the
        // cache key ignores `verify`, and a cached plan keyed by content
        // hash could in principle be served to a kernel it doesn't
        // describe. A defective plan is a *rejected* job, not a failed
        // one — the request was fine for some kernel, just not provable
        // for this one.
        const inspector::PlanVerifyReport vr =
            core::verify_execution_plan(*plan, req.kernel.get());
        if (!vr.ok()) {
          out.state = JobState::Rejected;
          out.error = "plan rejected (" + std::to_string(vr.violations) +
                      " violation(s)): " + vr.first_error();
          return out;
        }
      }

      core::SweepOptions sopt;
      sopt.sweeps = req.sweeps;
      sopt.stall_timeout = req.deadline_seconds > 0.0
                               ? req.deadline_seconds
                               : cfg_.default_deadline;
      sopt.lose_forward = req.lose_forward;
      sopt.batch = req.batch;
      sopt.affinity = req.affinity;
      const auto t1 = Clock::now();
      out.native = core::run_native_plan(*req.kernel, *plan, sopt);
      out.exec_seconds = seconds_since(t1);
    }
    out.state = JobState::Done;
  } catch (const verify_error& e) {
    // A cold build with plan.verify set runs the structural verifier
    // inside build_execution_plan; its throw means the plan itself is
    // unsound — same disposition as the explicit check above.
    out.state = JobState::Rejected;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.state = JobState::Failed;
    out.error = e.what();
  }
  return out;
}

ServiceStats JobScheduler::stats() const {
  ServiceStats s;
  std::vector<double> latencies;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.rejected_dsl = rejected_dsl_;
    s.rejected_plan = rejected_plan_;
    s.rejected_deadline = rejected_deadline_;
    s.completed = completed_;
    s.served_phased = completed_;
    s.failed = failed_;
    s.queue_depth = queue_.size();
    s.in_flight = in_flight_;
    s.cold_setups = cold_setups_;
    s.warm_setups = warm_setups_;
    s.mean_cold_setup =
        cold_setups_ ? cold_setup_sum_ / static_cast<double>(cold_setups_)
                     : 0.0;
    s.mean_warm_setup =
        warm_setups_ ? warm_setup_sum_ / static_cast<double>(warm_setups_)
                     : 0.0;
    latencies = latencies_;
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    s.p50_latency = quantile_sorted(latencies, 0.50);
    s.p95_latency = quantile_sorted(latencies, 0.95);
    s.p99_latency = quantile_sorted(latencies, 0.99);
  }
  s.cache = cache_.counters();
  return s;
}

}  // namespace earthred::service
