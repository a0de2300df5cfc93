#pragma once

// Runtime CPU feature detection (CPUID + XGETBV) for the batch loops'
// AVX-512 tier (kernels/ops_simd), the host's cache geometry (reported by
// `earthred version` and the benches), and a robust hardware-thread count
// that respects the process affinity mask (containers and `taskset` runs
// frequently expose fewer CPUs than the machine has online).

#include <cstdint>
#include <string>

namespace earthred::support {

/// The CPU features the batch loops dispatch on, as observed at process
/// start.
struct CpuFeatures {
  /// The CPU has AVX-512F *and* the OS saves the opmask/ZMM register
  /// state (XCR0 bits via XGETBV), so the instructions are safe to run.
  bool avx512f = false;
};

/// Detected features of this host, probed once and cached.
const CpuFeatures& host_cpu_features();

/// Test-only override for `host_cpu_features()`: pass a value to force a
/// specific feature set (e.g. a host without AVX-512), or `nullptr` to
/// restore real detection. Not thread-safe; call before spawning workers.
void set_cpu_features_for_test(const CpuFeatures* forced);

/// Number of hardware threads available to *this process*: the CPU
/// affinity mask population count when available, else
/// `std::thread::hardware_concurrency()`, and never less than 1.
unsigned hardware_threads();

/// Detected cache geometry. Sizes are bytes; 0 means the level could not
/// be detected (callers fall back to conservative defaults). `line_bytes`
/// is never 0 — an undetectable line size reports the x86 default of 64.
struct CacheInfo {
  std::uint64_t l1d_bytes = 0;  ///< per-core L1 data cache
  std::uint64_t l2_bytes = 0;   ///< per-core (or per-CCX-slice) L2
  std::uint64_t llc_bytes = 0;  ///< last-level cache (shared)
  std::uint32_t line_bytes = 64;
};

/// Detected cache geometry of this host, probed once and cached. Probes
/// sysconf(_SC_LEVEL*_CACHE_SIZE) first (respects cgroup-visible
/// topology), then CPUID leaf 4 on x86. Undetectable levels stay 0.
const CacheInfo& host_cache_info();

/// Human-readable summary, e.g. "L1d 32 KiB, L2 1 MiB, LLC 32 MiB, line 64 B".
std::string to_string(const CacheInfo& c);

}  // namespace earthred::support
