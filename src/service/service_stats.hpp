// Point-in-time snapshot of the reduction service's health, rendered
// through support/table for CLI and bench reporting.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "service/plan_cache.hpp"

namespace earthred::service {

struct ServiceStats {
  // Lifetime job counts.
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   ///< refused: queue full / shutdown / static checks
  /// Breakdown of `rejected` by static analysis (the remainder is
  /// admission pressure: full queue, shutdown, malformed request).
  std::uint64_t rejected_dsl = 0;   ///< DSL failed the legality checker
  std::uint64_t rejected_plan = 0;  ///< plan failed the invariant verifier
  /// Queued jobs already past their deadline when a draining scheduler
  /// picked them up — rejected with the deadline reason, never silently
  /// completed late.
  std::uint64_t rejected_deadline = 0;
  /// Jobs forcing a privatized strategy whose replica memory exceeds the
  /// admission budget ("E-STRATEGY-UNSUPPORTED"); `strategy=auto` never
  /// trips this.
  std::uint64_t rejected_strategy = 0;
  std::uint64_t completed = 0;  ///< finished successfully
  std::uint64_t failed = 0;     ///< raised (deadline stall, bad shapes, ...)

  // Completed jobs by the lowering strategy that served them (after auto
  // resolution; simulated jobs run the rotation engine and count as
  // phased).
  std::uint64_t served_phased = 0;
  std::uint64_t served_privatized = 0;

  // Instantaneous occupancy.
  std::uint64_t queue_depth = 0;
  std::uint64_t in_flight = 0;

  // End-to-end latency (submit to completion, seconds) over finished jobs.
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  // Setup cost (plan acquisition, seconds) split by cache outcome.
  double mean_cold_setup = 0.0;
  double mean_warm_setup = 0.0;
  std::uint64_t cold_setups = 0;
  std::uint64_t warm_setups = 0;

  PlanCache::Counters cache;

  /// Jobs whose outcome is still pending (queued or running).
  std::uint64_t pending() const {
    return submitted - rejected - completed - failed;
  }

  /// Renders the snapshot as an aligned table titled `title`.
  void print(std::ostream& os, const std::string& title = "service stats") const;
};

}  // namespace earthred::service
