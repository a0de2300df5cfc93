// The four workloads of the end-to-end benchmark (see README.md for why
// each exists and which layer it stresses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "support/json.hpp"

namespace earthred::e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window, identical on every commit compared.
  double seconds = 30.0;
  /// Tiny inputs and no minimum warm-up: the ctest self-check.
  bool smoke = false;
  /// Also run a traced window and the decomposed per-layer pass.
  bool traced = false;
};

struct WorkloadResult {
  /// From the untraced window, always.
  std::vector<Metric> e2e;
  /// Per-layer numbers; filled by traced runs only.
  std::vector<Metric> layers;
  std::uint64_t attempted = 0;
  /// Jobs that failed, were rejected, or returned a wrong result.
  std::uint64_t failed = 0;
  /// Wrong results among `failed`, plus failed reference checks.
  std::uint64_t mismatches = 0;
  std::uint32_t procs = 0;
  /// Bytes one sweep touches, computed from array sizes.
  std::uint64_t working_set_bytes = 0;
  /// Workload-specific sizes, checks and validity, as JSON fields.
  JsonWriter detail;
};

/// sweep-dram, sweep-paper, replan-churn, route-open.
const std::vector<std::string>& workload_names();

/// Runs one workload; throws check_error for an unknown name.
WorkloadResult run_workload(const RunConfig& cfg);

}  // namespace earthred::e2e
