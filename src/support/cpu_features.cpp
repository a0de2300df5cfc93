#include "support/cpu_features.hpp"

#include <cstdint>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define EARTHRED_HAS_SYSCONF 1
#else
#define EARTHRED_HAS_SYSCONF 0
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define EARTHRED_HAS_CPUID 1
#else
#define EARTHRED_HAS_CPUID 0
#endif

#if defined(__linux__)
#include <sched.h>
#define EARTHRED_HAS_SCHED_GETAFFINITY 1
#else
#define EARTHRED_HAS_SCHED_GETAFFINITY 0
#endif

namespace earthred::support {

namespace {

#if EARTHRED_HAS_CPUID

// XGETBV with ECX=0 reads XCR0, the OS-controlled register that says which
// register state the kernel context-switches. Guarded by the OSXSAVE CPUID
// bit: executing xgetbv without it is #UD.
std::uint64_t read_xcr0() {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0"  // xgetbv
                   : "=a"(eax), "=d"(edx)
                   : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

CpuFeatures detect() {
  CpuFeatures f;
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  if ((ecx & (1u << 27)) == 0) return f;  // no OSXSAVE: no XCR0 to read
  // XCR0 bits 1|2: XMM+YMM state. Bits 5|6|7: opmask, ZMM-hi256, hi16-ZMM.
  const std::uint64_t xcr0 = read_xcr0();
  const bool os_zmm = (xcr0 & 0xe6) == 0xe6;
  if (!os_zmm || __get_cpuid_max(0, nullptr) < 7) return f;
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned d = 0;
  __cpuid_count(7, 0, a, b, c, d);
  f.avx512f = (b & (1u << 16)) != 0;
  return f;
}

#else  // !EARTHRED_HAS_CPUID

CpuFeatures detect() { return {}; }

#endif

const CpuFeatures* g_forced = nullptr;

}  // namespace

const CpuFeatures& host_cpu_features() {
  static const CpuFeatures detected = detect();
  return g_forced ? *g_forced : detected;
}

void set_cpu_features_for_test(const CpuFeatures* forced) {
  g_forced = forced;
}

namespace {

const CacheInfo* g_forced_cache = nullptr;

#if EARTHRED_HAS_CPUID
/// CPUID leaf 4 (Intel deterministic cache parameters; AMD mirrors it on
/// leaf 0x8000001d, probed as a fallback). Fills only levels sysconf left
/// at 0 so cgroup-aware numbers win when present.
void cpuid_cache_fill(CacheInfo& c) {
  const auto probe = [&](unsigned leaf) {
    for (unsigned sub = 0;; ++sub) {
      unsigned a = 0;
      unsigned b = 0;
      unsigned cx = 0;
      unsigned d = 0;
      __cpuid_count(leaf, sub, a, b, cx, d);
      const unsigned type = a & 0x1f;  // 0 = no more caches
      if (type == 0) break;
      const unsigned level = (a >> 5) & 0x7;
      const bool is_data = type == 1 || type == 3;  // data or unified
      const std::uint64_t line = (b & 0xfff) + 1;
      const std::uint64_t partitions = ((b >> 12) & 0x3ff) + 1;
      const std::uint64_t ways = ((b >> 22) & 0x3ff) + 1;
      const std::uint64_t sets = static_cast<std::uint64_t>(cx) + 1;
      const std::uint64_t bytes = line * partitions * ways * sets;
      if (!is_data || bytes == 0) continue;
      if (level == 1 && c.l1d_bytes == 0) c.l1d_bytes = bytes;
      if (level == 2 && c.l2_bytes == 0) c.l2_bytes = bytes;
      if (level >= 3 && c.llc_bytes == 0) c.llc_bytes = bytes;
      if (line != 0) c.line_bytes = static_cast<std::uint32_t>(line);
    }
  };
  if (__get_cpuid_max(0, nullptr) >= 4) probe(4);
  if (c.l1d_bytes == 0 && __get_cpuid_max(0x80000000, nullptr) >= 0x8000001d)
    probe(0x8000001d);
}
#endif

CacheInfo detect_cache() {
  CacheInfo c;
#if EARTHRED_HAS_SYSCONF
  const auto sc = [](int name) -> std::uint64_t {
    const long v = sysconf(name);
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  };
#ifdef _SC_LEVEL1_DCACHE_SIZE
  c.l1d_bytes = sc(_SC_LEVEL1_DCACHE_SIZE);
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  c.l2_bytes = sc(_SC_LEVEL2_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL4_CACHE_SIZE
  c.llc_bytes = sc(_SC_LEVEL4_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL3_CACHE_SIZE
  if (c.llc_bytes == 0) c.llc_bytes = sc(_SC_LEVEL3_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL1_DCACHE_LINESIZE
  if (const std::uint64_t line = sc(_SC_LEVEL1_DCACHE_LINESIZE); line != 0)
    c.line_bytes = static_cast<std::uint32_t>(line);
#endif
#endif  // EARTHRED_HAS_SYSCONF
#if EARTHRED_HAS_CPUID
  cpuid_cache_fill(c);
#endif
  return c;
}

std::string fmt_bytes(std::uint64_t b) {
  if (b == 0) return "?";
  if (b % (1024 * 1024) == 0)
    return std::to_string(b / (1024 * 1024)) + " MiB";
  if (b % 1024 == 0) return std::to_string(b / 1024) + " KiB";
  return std::to_string(b) + " B";
}

}  // namespace

const CacheInfo& host_cache_info() {
  static const CacheInfo detected = detect_cache();
  return g_forced_cache ? *g_forced_cache : detected;
}

void set_cache_info_for_test(const CacheInfo* forced) {
  g_forced_cache = forced;
}

std::string to_string(const CacheInfo& c) {
  return "L1d " + fmt_bytes(c.l1d_bytes) + ", L2 " + fmt_bytes(c.l2_bytes) +
         ", LLC " + fmt_bytes(c.llc_bytes) + ", line " +
         std::to_string(c.line_bytes) + " B";
}

unsigned hardware_threads() {
#if EARTHRED_HAS_SCHED_GETAFFINITY
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n >= 1) return static_cast<unsigned>(n);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n >= 1 ? n : 1;
}

}  // namespace earthred::support
