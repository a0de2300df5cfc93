// Job-line parsing and JobRequest construction, shared by every front-end
// (CLI batch/serve, the networked ServeLoop, tests, benches).
//
// A job line is `key=value` tokens separated by whitespace (the format
// documented at the top of tools/earthred_cli.cpp). Parsing is hardened
// against adversarial input — the line is untrusted once it can arrive
// over a socket — with explicit limits that reject with a coded
// diagnostic *before* any allocation proportional to the claimed sizes:
//
//   E-JOB-LINELEN   line longer than max_line_bytes
//   E-JOB-KEYCOUNT  more than max_keys tokens
//   E-JOB-KEY       unknown key (typo or junk — never silently ignored)
//   E-JOB-VALUE     malformed value (non-numeric count, bad enum, ...)
//   E-JOB-RANGE     value outside its documented bound (nodes, edges,
//                   procs, k, sweeps, bc, name length)
//   E-JOB-MUTATE    mutate= rewire count above max_mutate
//   E-JOB-FILEIO    mesh=/dsl= file reference where file IO is disabled
//                   (networked submissions must not read server files)
//   E-JOB-EMPTY     no job content (blank/comment line)
//
// A build that passes yields one JobRequest — or several for a DSL
// program that fissions into multiple loops (local mode only, since
// `dsl=` names a file). Kernels are cached per mesh key so repeated jobs
// on the same mesh share one kernel and one plan-cache fingerprint.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "service/job_scheduler.hpp"

namespace earthred::service {

struct JobLimits {
  std::size_t max_line_bytes = 4096;
  std::size_t max_keys = 32;
  std::size_t max_name_bytes = 256;
  std::uint64_t max_mutate = 100000;
  std::uint64_t max_nodes = 20000000;     ///< caps mesh synthesis memory
  std::uint64_t max_edges = 200000000;
  std::uint64_t max_procs = 4096;
  std::uint64_t max_k = 64;
  std::uint64_t max_sweeps = 100000;
  std::uint64_t max_block_cyclic = 1u << 20;
  /// False for networked submissions: `mesh=`/`dsl=` file references are
  /// refused (E-JOB-FILEIO) instead of reading server-side paths chosen
  /// by a remote peer.
  bool allow_file_io = true;
};

struct JobBuild {
  std::string code;    ///< empty = ok; else an E-JOB-* diagnostic
  std::string detail;
  std::vector<JobRequest> requests;
  bool ok() const { return code.empty(); }
};

class JobBuilder {
 public:
  explicit JobBuilder(JobLimits limits = {});

  /// Parses and materializes one job line. Never throws; every failure is
  /// a coded JobBuild. `lineno` labels diagnostics and default job names.
  JobBuild build(std::string_view line, std::size_t lineno = 0);

  const JobLimits& limits() const { return limits_; }

 private:
  struct KernelEntry {
    std::shared_ptr<const core::PhasedKernel> kernel;
    std::uint64_t fingerprint = 0;
  };

  JobLimits limits_;
  /// Kernels shared across lines naming the same mesh (same sharing the
  /// CLI always had — repeat jobs hit the plan cache with an O(1) key).
  std::map<std::string, KernelEntry> kernels_;
};

/// Content hash of a native run's output arrays (reduction + node reads,
/// in order): the wire-portable fingerprint a client uses to check that a
/// remote execution is bit-identical to a local one.
std::uint64_t result_digest(const core::NativeResult& r);

}  // namespace earthred::service
