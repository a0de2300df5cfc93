// The reduction service: shared-plan execution correctness, the job
// scheduler's worker pool, admission control, deadlines, batch
// submission, and the stats snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/native_engine.hpp"
#include "core/sequential.hpp"
#include "kernels/euler.hpp"
#include "kernels/fig1.hpp"
#include "kernels/moldyn.hpp"
#include "mesh/generators.hpp"
#include "service/job_builder.hpp"
#include "service/job_scheduler.hpp"
#include "support/check.hpp"

namespace earthred::service {
namespace {

core::PlanOptions plan_opts(std::uint32_t P, std::uint32_t k) {
  core::PlanOptions opt;
  opt.num_procs = P;
  opt.k = k;
  return opt;
}

// --- satellite: cached schedules are genuinely shareable ----------------

TEST(SharedPlan, ReusedScheduleIsBitIdenticalToColdRuns) {
  // Two sweeps reusing one cached schedule must produce bit-identical
  // results to two cold runs (build + run each time).
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({150, 900, 5}));

  core::PlanOptions plan_opt;
  core::SweepOptions sweep_opt;
  plan_opt.num_procs = 4;
  plan_opt.k = 2;
  sweep_opt.sweeps = 3;
  const core::NativeResult cold1 =
      run_native_engine(kernel, plan_opt, sweep_opt);
  const core::NativeResult cold2 =
      run_native_engine(kernel, plan_opt, sweep_opt);

  const core::ExecutionPlan plan =
      core::build_execution_plan(kernel, plan_opt);
  const core::NativeResult warm1 =
      core::run_native_plan(kernel, plan, sweep_opt);
  const core::NativeResult warm2 =
      core::run_native_plan(kernel, plan, sweep_opt);

  ASSERT_EQ(warm1.reduction.size(), cold1.reduction.size());
  for (std::size_t a = 0; a < cold1.reduction.size(); ++a)
    for (std::size_t i = 0; i < cold1.reduction[a].size(); ++i) {
      ASSERT_EQ(warm1.reduction[a][i], cold1.reduction[a][i]);
      ASSERT_EQ(warm2.reduction[a][i], cold2.reduction[a][i]);
      ASSERT_EQ(warm1.reduction[a][i], warm2.reduction[a][i]);
    }
}

TEST(SharedPlan, EulerFloatingPointAlsoBitIdentical) {
  // The schedule fixes the summation order, so even non-exact arithmetic
  // reproduces bitwise across plan reuse.
  const kernels::EulerKernel kernel(
      mesh::make_geometric_mesh({120, 600, 6}));
  core::PlanOptions plan_opt;
  core::SweepOptions sweep_opt;
  plan_opt.num_procs = 3;
  plan_opt.k = 2;
  sweep_opt.sweeps = 4;
  const core::NativeResult cold =
      run_native_engine(kernel, plan_opt, sweep_opt);
  const core::ExecutionPlan plan =
      core::build_execution_plan(kernel, plan_opt);
  const core::NativeResult warm =
      core::run_native_plan(kernel, plan, sweep_opt);
  for (std::size_t a = 0; a < cold.node_read.size(); ++a)
    for (std::size_t i = 0; i < cold.node_read[a].size(); ++i)
      ASSERT_EQ(warm.node_read[a][i], cold.node_read[a][i]);
}

TEST(SharedPlan, OnePlanServesConcurrentExecutors) {
  const auto kernel = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({150, 900, 7}));
  const core::ExecutionPlan plan =
      core::build_execution_plan(kernel, plan_opts(4, 2));
  core::SweepOptions sopt;
  sopt.sweeps = 2;

  core::SequentialOptions seq_opt;
  seq_opt.sweeps = 2;
  const core::RunResult seq = run_sequential_kernel(kernel, seq_opt);

  constexpr int kRunners = 6;
  std::vector<core::NativeResult> results(kRunners);
  std::vector<std::thread> threads;
  threads.reserve(kRunners);
  for (int t = 0; t < kRunners; ++t)
    threads.emplace_back([&, t] {
      results[t] = core::run_native_plan(kernel, plan, sopt);
    });
  for (std::thread& t : threads) t.join();

  for (const core::NativeResult& r : results)
    for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
      ASSERT_EQ(r.reduction[0][i], seq.reduction[0][i]);
}

TEST(SharedPlan, RejectsMismatchedKernelShape) {
  const auto small = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({100, 500, 8}));
  const auto big = kernels::Fig1Kernel::with_integer_values(
      mesh::make_geometric_mesh({200, 900, 8}));
  const core::ExecutionPlan plan =
      core::build_execution_plan(small, plan_opts(2, 2));
  EXPECT_THROW((void)core::run_native_plan(big, plan, {}), check_error);
}

// --- the scheduler ------------------------------------------------------

TEST(JobScheduler, ConcurrentSubmissionMixedMeshesCorrectResults) {
  // Acceptance scenario: >= 8 submitting threads, mixed meshes, every
  // handle resolves, accepted jobs produce per-kernel-correct results,
  // rejected jobs carry a reason (none silently dropped).
  struct Workload {
    std::shared_ptr<const core::PhasedKernel> kernel;
    std::vector<double> expected;  // sequential reduction[0]
    core::PlanOptions plan;
    std::uint32_t sweeps;
  };
  std::vector<Workload> workloads;
  const auto add = [&](std::uint64_t seed, std::uint32_t P, std::uint32_t k,
                       std::uint32_t sweeps) {
    Workload w;
    w.kernel = std::make_shared<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(
            mesh::make_geometric_mesh(
                {static_cast<std::uint32_t>(120 + 10 * (seed % 3)), 700,
                 seed})));
    w.plan = plan_opts(P, k);
    w.sweeps = sweeps;
    core::SequentialOptions sopt;
    sopt.sweeps = sweeps;
    w.expected = run_sequential_kernel(*w.kernel, sopt).reduction[0];
    workloads.push_back(std::move(w));
  };
  add(40, 4, 2, 2);
  add(41, 3, 1, 3);
  add(42, 2, 2, 1);
  add(43, 5, 2, 2);

  JobScheduler::Config cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 16;
  JobScheduler sched(cfg);

  constexpr int kSubmitters = 8;
  constexpr int kJobsPerThread = 6;
  std::vector<std::vector<JobHandle>> handles(kSubmitters);
  std::atomic<int> ready{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kSubmitters) std::this_thread::yield();
      for (int j = 0; j < kJobsPerThread; ++j) {
        const Workload& w = workloads[(t + j) % workloads.size()];
        JobRequest req;
        req.kernel = w.kernel;
        req.name = "t" + std::to_string(t) + "j" + std::to_string(j);
        req.plan = w.plan;
        req.sweeps = w.sweeps;
        handles[t].push_back(sched.submit(std::move(req)));
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  std::uint64_t done = 0, rejected = 0;
  for (int t = 0; t < kSubmitters; ++t) {
    for (int j = 0; j < kJobsPerThread; ++j) {
      const JobOutcome& o = handles[t][j].wait();
      const Workload& w = workloads[(t + j) % workloads.size()];
      if (o.state == JobState::Done) {
        ++done;
        ASSERT_EQ(o.native.reduction[0].size(), w.expected.size());
        for (std::size_t i = 0; i < w.expected.size(); ++i)
          ASSERT_EQ(o.native.reduction[0][i], w.expected[i]) << o.name;
      } else {
        ASSERT_EQ(o.state, JobState::Rejected) << o.error;
        ASSERT_FALSE(o.error.empty()) << "rejection must carry a reason";
        ++rejected;
      }
    }
  }
  EXPECT_EQ(done + rejected,
            static_cast<std::uint64_t>(kSubmitters) * kJobsPerThread);
  EXPECT_GT(done, 0u);

  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.submitted, done + rejected);
  EXPECT_EQ(s.completed, done);
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.pending(), 0u);
  // Single-flight: each of the 4 plan keys was built at most... exactly once.
  EXPECT_EQ(s.cache.misses, workloads.size());
}

TEST(JobScheduler, QueueFullRejectsWithReason) {
  JobScheduler::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  JobScheduler sched(cfg);

  const auto kernel = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({400, 2400, 9}));
  std::vector<JobHandle> handles;
  for (int j = 0; j < 5; ++j) {
    JobRequest req;
    req.kernel = kernel;
    req.name = "job" + std::to_string(j);
    req.plan = plan_opts(4, 2);
    req.sweeps = 40;
    handles.push_back(sched.submit(std::move(req)));
  }
  std::uint64_t done = 0, rejected = 0;
  for (const JobHandle& h : handles) {
    const JobOutcome& o = h.wait();
    if (o.state == JobState::Done) {
      ++done;
    } else {
      ASSERT_EQ(o.state, JobState::Rejected);
      EXPECT_NE(o.error.find("queue full"), std::string::npos) << o.error;
      ++rejected;
    }
  }
  EXPECT_EQ(done + rejected, 5u);
  EXPECT_GE(done, 1u);  // at least the first job ran
  EXPECT_GE(rejected, 2u);
  EXPECT_EQ(sched.stats().rejected, rejected);
}

TEST(JobScheduler, NullKernelRejectedNotCrashed) {
  JobScheduler sched;
  const JobHandle handle = sched.submit(JobRequest{});
  const JobOutcome& o = handle.wait();
  EXPECT_EQ(o.state, JobState::Rejected);
  EXPECT_NE(o.error.find("null kernel"), std::string::npos) << o.error;
}

TEST(JobScheduler, ShutdownRejectsLateSubmissions) {
  JobScheduler sched;
  sched.shutdown();
  JobRequest req;
  req.kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({50, 200, 10})));
  const JobHandle handle = sched.submit(std::move(req));
  const JobOutcome& o = handle.wait();
  EXPECT_EQ(o.state, JobState::Rejected);
  EXPECT_NE(o.error.find("shut down"), std::string::npos) << o.error;
}

TEST(JobScheduler, DeadlineStallSurfacesAsFailedJob) {
  // A lost ring forward (PR 1's fault hook) must trip the per-job
  // deadline and resolve the handle as Failed with the watchdog's
  // diagnostic — not wedge the worker.
  JobScheduler::Config cfg;
  cfg.workers = 1;
  JobScheduler sched(cfg);

  JobRequest req;
  req.kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 600, 11})));
  req.name = "stalling";
  req.plan = plan_opts(4, 2);
  req.sweeps = 3;
  req.deadline_seconds = 0.3;
  req.lose_forward = {true, 0, 0, 0};
  const JobHandle handle = sched.submit(std::move(req));
  const JobOutcome& o = handle.wait();
  EXPECT_EQ(o.state, JobState::Failed);
  EXPECT_NE(o.error.find("stalled"), std::string::npos) << o.error;
  EXPECT_EQ(sched.stats().failed, 1u);

  // The worker survived: a healthy job still completes.
  JobRequest ok;
  ok.kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 600, 11})));
  ok.plan = plan_opts(2, 1);
  ok.sweeps = 1;
  const JobHandle ok_handle = sched.submit(std::move(ok));
  EXPECT_EQ(ok_handle.wait().state, JobState::Done);
}

TEST(JobScheduler, HealthyJobAfterAStallMatchesAFreshScheduler) {
  // A stalled job must leave nothing behind in the worker or the cached
  // plan it shares: the next job on the same kernel returns the digest a
  // fresh scheduler produces.
  const auto kernel = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({200, 1000, 23}));
  const auto job = [&](const std::string& name) {
    JobRequest req;
    req.kernel = kernel;
    req.name = name;
    req.plan = plan_opts(4, 2);
    req.sweeps = 3;
    return req;
  };
  const auto healthy_digest = [&](JobScheduler& sched) {
    const JobHandle h = sched.submit(job("healthy"));
    const JobOutcome& o = h.wait();
    EXPECT_EQ(o.state, JobState::Done) << o.error;
    return result_digest(o.native);
  };

  JobScheduler::Config cfg;
  cfg.workers = 1;
  JobScheduler sched(cfg);
  JobRequest stall = job("stalling");
  stall.deadline_seconds = 0.3;
  stall.lose_forward = {true, 0, 0, 0};
  const JobHandle stalled = sched.submit(std::move(stall));
  EXPECT_EQ(stalled.wait().state, JobState::Failed);
  const std::uint64_t after_stall = healthy_digest(sched);

  JobScheduler fresh(cfg);
  EXPECT_EQ(after_stall, healthy_digest(fresh));
}

TEST(JobScheduler, BatchSharesOnePlanAcrossJobs) {
  JobScheduler::Config cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 32;
  JobScheduler sched(cfg);

  const auto kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({150, 900, 12})));
  const std::uint64_t fp = kernel_fingerprint(*kernel);
  std::vector<JobRequest> reqs;
  for (int j = 0; j < 10; ++j) {
    JobRequest req;
    req.kernel = kernel;
    req.name = "batch" + std::to_string(j);
    req.plan = plan_opts(4, 2);
    req.sweeps = 2;
    req.fingerprint = fp;
    reqs.push_back(std::move(req));
  }
  const std::vector<JobHandle> handles = sched.submit_batch(std::move(reqs));
  ASSERT_EQ(handles.size(), 10u);
  for (const JobHandle& h : handles)
    EXPECT_EQ(h.wait().state, JobState::Done) << h.wait().error;

  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.completed, 10u);
  EXPECT_EQ(s.cache.misses, 1u) << "ten jobs, one plan build";
  EXPECT_EQ(s.cold_setups, 1u);
  EXPECT_EQ(s.warm_setups, 9u);
  EXPECT_LE(s.p50_latency, s.p95_latency);
}

TEST(JobScheduler, SimulatedJobRunsOnEarthMachine) {
  JobScheduler sched;
  const auto kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, 13})));
  core::SequentialOptions sopt;
  sopt.sweeps = 2;
  const core::RunResult seq = run_sequential_kernel(*kernel, sopt);

  JobRequest req;
  req.kernel = kernel;
  req.name = "sim";
  req.plan = plan_opts(4, 2);
  req.sweeps = 2;
  req.simulated = true;
  const JobHandle handle = sched.submit(std::move(req));
  const JobOutcome& o = handle.wait();
  ASSERT_EQ(o.state, JobState::Done) << o.error;
  EXPECT_TRUE(o.simulated);
  EXPECT_GT(o.simulated_run.total_cycles, 0u);
  ASSERT_EQ(o.simulated_run.reduction[0].size(), seq.reduction[0].size());
  for (std::size_t i = 0; i < seq.reduction[0].size(); ++i)
    ASSERT_EQ(o.simulated_run.reduction[0][i], seq.reduction[0][i]);
  // Simulated jobs bypass the plan cache.
  EXPECT_EQ(sched.stats().cache.misses, 0u);
}

TEST(JobScheduler, DestructorDrainsQueuedJobs) {
  std::vector<JobHandle> handles;
  {
    JobScheduler::Config cfg;
    cfg.workers = 2;
    cfg.queue_capacity = 16;
    JobScheduler sched(cfg);
    const auto kernel = std::make_shared<kernels::Fig1Kernel>(
        kernels::Fig1Kernel::with_integer_values(
            mesh::make_geometric_mesh({100, 500, 14})));
    for (int j = 0; j < 8; ++j) {
      JobRequest req;
      req.kernel = kernel;
      req.name = "drain" + std::to_string(j);
      req.plan = plan_opts(2, 2);
      req.sweeps = 1;
      handles.push_back(sched.submit(std::move(req)));
    }
  }  // ~JobScheduler drains
  for (const JobHandle& h : handles)
    EXPECT_EQ(h.wait().state, JobState::Done) << h.wait().error;
}

// --- graceful drain: deadline interaction and stats reconciliation ------

TEST(JobSchedulerDrain, ExpiredQueuedJobsRejectAtPickupDuringDrain) {
  JobScheduler::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  JobScheduler sched(cfg);

  // One long blocker occupies the single worker...
  const auto big = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({2000, 12000, 8}));
  JobRequest blocker;
  blocker.kernel = big;
  blocker.name = "blocker";
  blocker.plan = plan_opts(4, 2);
  blocker.sweeps = 4000;
  blocker.deadline_seconds = 60.0;
  const JobHandle blocker_handle = sched.submit(std::move(blocker));
  // ...and is definitely running before anything else is queued.
  for (int i = 0; i < 500 && sched.stats().in_flight == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(sched.stats().in_flight, 1u);

  // Tight-deadline jobs queue behind it; by the time the drain lets the
  // worker pick them up their deadline has long expired.
  const auto small = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, 14})));
  std::vector<JobHandle> expired;
  for (int j = 0; j < 3; ++j) {
    JobRequest req;
    req.kernel = small;
    req.name = "expired" + std::to_string(j);
    req.plan = plan_opts(2, 2);
    req.sweeps = 1;
    req.deadline_seconds = 0.001;
    expired.push_back(sched.submit(std::move(req)));
  }
  sched.begin_drain();
  EXPECT_TRUE(sched.draining());

  EXPECT_EQ(blocker_handle.wait().state, JobState::Done)
      << blocker_handle.wait().error;
  for (const JobHandle& h : expired) {
    const JobOutcome& o = h.wait();
    EXPECT_EQ(o.state, JobState::Rejected) << o.name;
    EXPECT_NE(o.error.find("deadline"), std::string::npos) << o.error;
  }

  // Reconciliation: every submitted job is accounted for exactly once
  // and nothing is left queued or running after the drain.
  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed + s.failed + s.rejected, s.submitted);
  EXPECT_EQ(s.rejected_deadline, 3u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(JobSchedulerDrain, SubmitAfterDrainIsRejectedWithCode) {
  JobScheduler sched(JobScheduler::Config{});
  sched.begin_drain();

  const auto kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, 14})));
  JobRequest req;
  req.kernel = kernel;
  req.name = "late";
  req.plan = plan_opts(2, 2);
  const JobHandle late = sched.submit(std::move(req));
  const JobOutcome& o = late.wait();
  EXPECT_EQ(o.state, JobState::Rejected);
  EXPECT_NE(o.error.find("E-SVC-DRAINING"), std::string::npos) << o.error;

  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(JobSchedulerDrain, AbortQueuedResolvesEveryHandleWithReason) {
  JobScheduler::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 32;
  JobScheduler sched(cfg);

  const auto big = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({2000, 12000, 8}));
  JobRequest blocker;
  blocker.kernel = big;
  blocker.name = "blocker";
  blocker.plan = plan_opts(4, 2);
  blocker.sweeps = 4000;
  blocker.deadline_seconds = 60.0;
  const JobHandle blocker_handle = sched.submit(std::move(blocker));
  for (int i = 0; i < 500 && sched.stats().in_flight == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

  const auto small = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, 14})));
  std::vector<JobHandle> queued;
  for (int j = 0; j < 5; ++j) {
    JobRequest req;
    req.kernel = small;
    req.name = "queued" + std::to_string(j);
    req.plan = plan_opts(2, 2);
    queued.push_back(sched.submit(std::move(req)));
  }

  sched.abort_queued("forced shutdown (test)");
  for (const JobHandle& h : queued) {
    const JobOutcome& o = h.wait();
    EXPECT_EQ(o.state, JobState::Rejected) << o.name;
    EXPECT_NE(o.error.find("forced shutdown"), std::string::npos)
        << o.error;
  }
  // The in-flight blocker is never killed mid-run: abort empties the
  // queue, it does not corrupt running work.
  EXPECT_EQ(blocker_handle.wait().state, JobState::Done)
      << blocker_handle.wait().error;
  EXPECT_EQ(sched.stats().pending(), 0u);
}

// --- completion notification (JobRequest::on_resolved) ------------------

/// Observes one request's completion notification: counts the calls and
/// checks, at each, that the handle is already ready. The submitting
/// thread holds `mutex` across submit() and the handle's publication, so
/// a worker's notification cannot look before the handle exists. An
/// admission reject notifies inside submit() on that same thread (hence
/// the recursive mutex), before any handle exists to look at.
struct ResolveProbe {
  std::recursive_mutex mutex;
  std::optional<JobHandle> handle;
  int calls = 0;
  int ready_calls = 0;   ///< calls that found the handle ready
  int inline_calls = 0;  ///< calls from inside submit()

  const JobHandle& submit(JobScheduler& sched, JobRequest req) {
    req.on_resolved = [this] {
      const std::lock_guard<std::recursive_mutex> lock(mutex);
      ++calls;
      if (!handle)
        ++inline_calls;
      else if (handle->ready())
        ++ready_calls;
    };
    const std::lock_guard<std::recursive_mutex> lock(mutex);
    handle = sched.submit(std::move(req));
    return *handle;
  }
};

JobRequest small_job(const std::string& name, double deadline = 0.0) {
  JobRequest req;
  req.kernel = std::make_shared<kernels::Fig1Kernel>(
      kernels::Fig1Kernel::with_integer_values(
          mesh::make_geometric_mesh({100, 500, 14})));
  req.name = name;
  req.plan = plan_opts(2, 2);
  req.deadline_seconds = deadline;
  return req;
}

/// Submits a long job to the scheduler's single worker and returns once
/// it is running, so whatever is submitted next stays queued.
void occupy_worker(JobScheduler& sched, ResolveProbe& probe) {
  JobRequest blocker;
  blocker.kernel = std::make_shared<kernels::EulerKernel>(
      mesh::make_geometric_mesh({2000, 12000, 8}));
  blocker.name = "blocker";
  blocker.plan = plan_opts(4, 2);
  blocker.sweeps = 4000;
  blocker.deadline_seconds = 60.0;
  probe.submit(sched, std::move(blocker));
  for (int i = 0; i < 500 && sched.stats().in_flight == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(sched.stats().in_flight, 1u);
}

JobScheduler::Config one_worker() {
  JobScheduler::Config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  return cfg;
}

TEST(JobSchedulerNotify, AdmissionRejectNotifiesOnceInsideSubmit) {
  JobScheduler sched;
  ResolveProbe null_kernel;
  const JobHandle& h = null_kernel.submit(sched, JobRequest{});
  EXPECT_TRUE(h.ready());
  EXPECT_EQ(h.wait().state, JobState::Rejected);
  EXPECT_EQ(null_kernel.calls, 1);
  EXPECT_EQ(null_kernel.inline_calls, 1);

  sched.begin_drain();
  ResolveProbe draining;
  EXPECT_EQ(draining.submit(sched, small_job("late")).wait().state,
            JobState::Rejected);
  sched.drain();
  EXPECT_EQ(draining.calls, 1);
  EXPECT_EQ(draining.inline_calls, 1);
}

TEST(JobSchedulerNotify, WorkerOutcomesNotifyOnceAfterTheHandleIsReady) {
  ResolveProbe done, failed;
  JobScheduler sched(one_worker());
  EXPECT_EQ(done.submit(sched, small_job("done")).wait().state,
            JobState::Done);
  // The lost-forward hook stalls the phased ring; the deadline fails it.
  JobRequest stall = small_job("failed", 0.3);
  stall.lose_forward = {true, 0, 0, 0};
  EXPECT_EQ(failed.submit(sched, std::move(stall)).wait().state,
            JobState::Failed);
  // The notification follows set_value; joining the worker makes the
  // counts final.
  sched.drain();
  for (const ResolveProbe* p : {&done, &failed}) {
    EXPECT_EQ(p->calls, 1);
    EXPECT_EQ(p->ready_calls, 1);
  }
}

TEST(JobSchedulerNotify, DrainDeadlineExpiryNotifiesOnce) {
  ResolveProbe blocker;
  std::vector<std::unique_ptr<ResolveProbe>> expired;
  JobScheduler sched(one_worker());
  occupy_worker(sched, blocker);
  for (int j = 0; j < 3; ++j) {
    expired.push_back(std::make_unique<ResolveProbe>());
    expired.back()->submit(sched,
                           small_job("expired" + std::to_string(j), 0.001));
  }
  sched.drain();
  EXPECT_EQ(blocker.handle->wait().state, JobState::Done);
  EXPECT_EQ(blocker.ready_calls, 1);
  for (const auto& p : expired) {
    EXPECT_EQ(p->handle->wait().state, JobState::Rejected);
    EXPECT_NE(p->handle->wait().error.find("E-SVC-DEADLINE"),
              std::string::npos);
    EXPECT_EQ(p->calls, 1);
    EXPECT_EQ(p->ready_calls, 1);
  }
}

TEST(JobSchedulerNotify, AbortQueuedNotifiesOnce) {
  ResolveProbe blocker;
  std::vector<std::unique_ptr<ResolveProbe>> queued;
  JobScheduler sched(one_worker());
  occupy_worker(sched, blocker);
  for (int j = 0; j < 5; ++j) {
    queued.push_back(std::make_unique<ResolveProbe>());
    queued.back()->submit(sched, small_job("queued" + std::to_string(j)));
  }
  // abort_queued notifies on this thread before returning.
  sched.abort_queued("forced shutdown (test)");
  for (const auto& p : queued) {
    EXPECT_EQ(p->handle->wait().state, JobState::Rejected);
    EXPECT_EQ(p->calls, 1);
    EXPECT_EQ(p->ready_calls, 1);
  }
  sched.drain();
  EXPECT_EQ(blocker.calls, 1);
  EXPECT_EQ(blocker.ready_calls, 1);
}

// ---- the executor-count shim and retired job keys ----------------------

TEST(StrategyService, ServedCountersTallyPerStrategy) {
  // Every completed job ran the phased executor, so the counters the
  // benchmark harness reads (JobOutcome::strategy, served_phased /
  // served_privatized) report every job as phased.
  JobScheduler sched;
  for (const bool simulated : {false, true}) {
    JobRequest req = small_job(simulated ? "sim" : "native");
    req.simulated = simulated;
    const JobHandle h = sched.submit(std::move(req));
    const JobOutcome& o = h.wait();
    ASSERT_EQ(o.state, JobState::Done) << o.error;
    EXPECT_EQ(o.strategy, core::StrategyKind::Phased);
  }
  JobRequest bad = small_job("failed", 0.3);
  bad.lose_forward = {true, 0, 0, 0};  // stalls the ring: not served
  const JobHandle failed = sched.submit(std::move(bad));
  EXPECT_EQ(failed.wait().state, JobState::Failed);

  const ServiceStats s = sched.stats();
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.served_phased, 2u);
  EXPECT_EQ(s.served_privatized, 0u);
}

TEST(StrategyService, BuilderParsesStrategyJobKey) {
  // strategy= is no longer a job key: every value, the formerly valid
  // phased, auto and privatized included, is an E-JOB-KEY naming it,
  // while the same line without the key builds the job.
  JobBuilder builder;
  const std::string line = "kernel=fig1 nodes=100 edges=500 procs=4 k=2";
  const JobBuild plain = builder.build(line);
  ASSERT_TRUE(plain.ok()) << plain.code << ": " << plain.detail;
  EXPECT_EQ(plain.requests.size(), 1u);
  for (const char* value :
       {"phased", "auto", "privatized", "atomic", "bogus"}) {
    const JobBuild b = builder.build(line + " strategy=" + value);
    EXPECT_FALSE(b.ok()) << value;
    EXPECT_EQ(b.code, "E-JOB-KEY") << value << ": " << b.detail;
    EXPECT_NE(b.detail.find("'strategy'"), std::string::npos) << b.detail;
  }
}

TEST(StrategyService, BuilderRejectsRetiredSpellings) {
  // The retired backend, layout and build-thread keys fail as coded job
  // errors that name the key, never as a silently ignored token.
  JobBuilder builder;
  for (const std::string retired :
       {"backend=avx2", "layout=rcm", "layout=none", "parallel-build",
        "parallel-build=4"}) {
    const JobBuild b = builder.build(
        "kernel=fig1 nodes=100 edges=500 procs=4 k=2 " + retired);
    EXPECT_FALSE(b.ok()) << retired;
    EXPECT_EQ(b.code, "E-JOB-KEY") << retired << ": " << b.detail;
    EXPECT_NE(b.detail.find(retired.substr(0, retired.find('='))),
              std::string::npos)
        << retired << ": " << b.detail;
  }
}

}  // namespace
}  // namespace earthred::service
