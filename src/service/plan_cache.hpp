// PlanCache: memoization of ExecutionPlans for the reduction service.
//
// The paper's LightInspector output is cheap to build but *reusable*
// forever: it depends only on the indirection arrays, the processor
// count, k, the iteration distribution, and the buffer policy — never on
// sweep count or input values (Sec. 3). The cache exploits that
// compile-once/run-many shape: the first request for a (mesh, config)
// pair pays the distribution + inspector cost; every later sweep request
// for the same pair starts executing immediately from the shared
// immutable plan.
//
// Keying: a 64-bit FNV-1a content hash of the kernel's indirection arrays
// (IA(*,r) for every reference slot) and shape, combined with the exact
// PlanOptions. Two kernels with identical indirection structure share a
// plan even if their edge *values* differ — precisely the reuse the paper
// allows, since redirection never looks at values.
//
// Concurrency: lookup_or_build is thread-safe with per-key single-flight
// deduplication — when N workers request the same missing key at once,
// exactly one builds while the rest wait on a shared future, so a burst
// of identical jobs costs one inspector run. Eviction is LRU by
// approximate byte footprint; entries being waited on are never evicted
// mid-build, and eviction only drops the cache's reference — callers
// holding the shared_ptr keep their plan alive.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "core/native_engine.hpp"

namespace earthred::service {

class PlanStore;

/// Cache key: content hash of the indirection arrays + the plan options.
/// Ordered (for std::map) and fully compared — a hash collision between
/// different option sets cannot alias.
struct PlanKey {
  std::uint64_t content_hash = 0;
  std::uint32_t num_procs = 0;
  std::uint32_t k = 0;
  inspector::Distribution distribution = inspector::Distribution::Cyclic;
  std::uint32_t block_cyclic_size = 0;
  bool dedup_buffers = false;

  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

/// Builds the key for a kernel/options pair. `fingerprint` short-circuits
/// the content hash when the caller has already computed it (e.g. once
/// per loaded mesh) — passing it makes a warm lookup O(1) instead of
/// O(edges).
PlanKey make_plan_key(const core::PhasedKernel& kernel,
                      const core::PlanOptions& opt,
                      std::optional<std::uint64_t> fingerprint = {});

/// 64-bit FNV-1a over the kernel's shape and indirection arrays.
std::uint64_t kernel_fingerprint(const core::PhasedKernel& kernel);

using PlanPtr = std::shared_ptr<const core::ExecutionPlan>;

class PlanCache {
 public:
  struct Config {
    /// LRU byte budget for *ready* entries. 0 disables retention: every
    /// lookup builds (single-flight still coalesces concurrent twins),
    /// which is how benches measure the cold path with unchanged code.
    std::uint64_t byte_budget = 256ull << 20;
    /// Optional on-disk tier. When set, a memory miss first tries a
    /// zero-copy load from the store (single-flighted like a build —
    /// concurrent requests for one key cost one disk load), and every
    /// freshly built or patched plan is persisted back best-effort. A
    /// store file that fails any validation is a counted fallback to a
    /// rebuild, never an error.
    std::shared_ptr<PlanStore> store;
  };

  struct Counters {
    std::uint64_t hits = 0;        ///< served from a ready entry
    std::uint64_t coalesced = 0;   ///< joined an in-flight build
    std::uint64_t misses = 0;      ///< initiated a build or disk load
    std::uint64_t evictions = 0;   ///< ready entries dropped by LRU
    std::uint64_t build_failures = 0;
    std::uint64_t bytes = 0;       ///< current retained footprint
    std::uint64_t entries = 0;     ///< current retained entry count
    // --- disk tier -------------------------------------------------------
    std::uint64_t disk_hits = 0;       ///< served by a store load
    std::uint64_t disk_misses = 0;     ///< key simply not stored
    std::uint64_t disk_fallbacks = 0;  ///< stored but rejected -> rebuilt
    std::uint64_t persisted = 0;       ///< plans written to the store
    std::uint64_t persist_failures = 0;
    // --- incremental re-planning ----------------------------------------
    std::uint64_t patched = 0;          ///< plans produced by a patch
    std::uint64_t patch_fallbacks = 0;  ///< patch failed -> full rebuild
    double hit_rate() const {
      const std::uint64_t total = hits + coalesced + misses;
      return total ? static_cast<double>(hits + coalesced) /
                         static_cast<double>(total)
                   : 0.0;
    }
  };

  PlanCache() : PlanCache(Config{}) {}
  explicit PlanCache(Config cfg) : cfg_(cfg) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// How a lookup_or_build / patch_or_build call was satisfied.
  enum class Outcome {
    Hit,         ///< served from a ready entry
    Coalesced,   ///< waited on another thread's in-flight build
    Built,       ///< this call ran the build
    DiskLoaded,  ///< this call loaded the plan from the store tier
    Patched      ///< this call patched a base plan incrementally
  };

  /// Returns the cached plan for (kernel, opt), building it at most once
  /// per key across all threads. With a store configured, a miss tries
  /// the disk tier before building. Propagates the builder's exception to
  /// every waiter and forgets the key so a later request can retry.
  /// `outcome`, when non-null, reports how the call was satisfied.
  PlanPtr lookup_or_build(const core::PhasedKernel& kernel,
                          const core::PlanOptions& opt,
                          std::optional<std::uint64_t> fingerprint = {},
                          Outcome* outcome = nullptr);

  /// The adaptive path: `kernel` is a mutation of the mesh whose plan is
  /// cached under `base_fingerprint`, with `changed_iterations` naming
  /// the global iterations whose references differ. If the base plan is
  /// resident (memory or store), the new plan is produced by
  /// core::patch_execution_plan and re-verified in budget mode — on any
  /// patch or verification failure the *base* entry is invalidated, the
  /// fallback is a full build, and the client never sees an error. The
  /// result is cached and persisted under its own key exactly like a
  /// built plan. `fingerprint` is the mutated kernel's content hash (so
  /// repeat requests hit normally).
  PlanPtr patch_or_build(const core::PhasedKernel& kernel,
                         const core::PlanOptions& opt,
                         std::uint64_t base_fingerprint,
                         std::span<const std::uint32_t> changed_iterations,
                         std::optional<std::uint64_t> fingerprint = {},
                         Outcome* outcome = nullptr);

  /// True if `key` is resident and ready (does not touch LRU order).
  bool contains(const PlanKey& key) const;

  Counters counters() const;

  /// Digest over the *ready* resident entries' keys (content hash +
  /// options), folded in canonical (sorted) key order so the value is
  /// independent of insertion history. `entries`, when non-null, receives
  /// the ready-entry count. This is the identity a serving process
  /// advertises in its Pong (wire v2) so `earthred fleet status` can show
  /// which warm plans live on which shard.
  std::uint64_t resident_key_digest(std::uint64_t* entries = nullptr) const;

  /// Code of the most recent store-load rejection (e.g. E-STORE-CHECKSUM)
  /// with its detail — the diagnostic surfaced when disk_fallbacks grows.
  std::string last_fallback_reason() const;

  const std::shared_ptr<PlanStore>& store() const noexcept {
    return cfg_.store;
  }

 private:
  struct Entry {
    std::shared_future<PlanPtr> future;
    bool ready = false;
    std::uint64_t bytes = 0;
    std::list<PlanKey>::iterator lru;  ///< valid only when ready
  };

  /// Drops least-recently-used ready entries until within budget.
  /// Requires mutex_ held.
  void evict_to_budget();

  /// The shared single-flight skeleton: hit/coalesce fast paths, then
  /// `produce` (run outside the lock, exactly once per key across all
  /// threads) makes the plan and reports how. Exceptions propagate to
  /// every waiter and the key is forgotten for retry.
  PlanPtr acquire(const PlanKey& key, Outcome* outcome,
                  const std::function<PlanPtr(Outcome&)>& produce);

  /// Builds (or disk-loads) + persists for `key`; the lookup_or_build
  /// produce step.
  PlanPtr produce_from_tiers(const PlanKey& key,
                             const core::PhasedKernel& kernel,
                             const core::PlanOptions& opt, Outcome& how);

  /// Store-tier load for `key`: null on miss (counted disk_miss) or on a
  /// rejected file (counted disk_fallback with the reason recorded).
  PlanPtr try_store_load(const PlanKey& key, Outcome& how);

  /// Best-effort store write, counting persisted / persist_failures.
  void persist(const PlanKey& key, const core::ExecutionPlan& plan);

  /// Ready plan for `key` from memory only (counts nothing, no LRU
  /// touch); null if absent or in flight.
  PlanPtr peek_ready(const PlanKey& key) const;

  Config cfg_;
  mutable std::mutex mutex_;
  std::map<PlanKey, Entry> entries_;
  std::list<PlanKey> lru_;  ///< front = most recent
  Counters counters_;
  std::string last_fallback_reason_;
};

}  // namespace earthred::service
