#include "service/plan_cache.hpp"

#include <utility>

#include "inspector/plan_verifier.hpp"
#include "service/plan_store.hpp"
#include "support/check.hpp"

namespace earthred::service {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t kernel_fingerprint(const core::PhasedKernel& kernel) {
  const core::KernelShape s = kernel.shape();
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, s.num_nodes);
  fnv_mix(h, s.num_edges);
  fnv_mix(h, s.num_refs);
  fnv_mix(h, s.num_reduction_arrays);
  fnv_mix(h, s.num_node_read_arrays);
  for (std::uint32_t r = 0; r < s.num_refs; ++r)
    for (std::uint64_t e = 0; e < s.num_edges; ++e)
      fnv_mix(h, kernel.ref(r, e));
  return h;
}

PlanKey make_plan_key(const core::PhasedKernel& kernel,
                      const core::PlanOptions& opt,
                      std::optional<std::uint64_t> fingerprint) {
  PlanKey key;
  key.content_hash =
      fingerprint ? *fingerprint : kernel_fingerprint(kernel);
  key.num_procs = opt.num_procs;
  key.k = opt.k;
  key.distribution = opt.distribution;
  key.block_cyclic_size = opt.block_cyclic_size;
  key.dedup_buffers = opt.inspector.dedup_buffers;
  return key;
}

PlanPtr PlanCache::acquire(const PlanKey& key, Outcome* outcome,
                           const std::function<PlanPtr(Outcome&)>& produce) {
  const auto report = [&](Outcome o) {
    if (outcome) *outcome = o;
  };

  std::promise<PlanPtr> promise;
  std::shared_future<PlanPtr> inflight;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.ready) {
        ++counters_.hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        report(Outcome::Hit);
        return it->second.future.get();  // ready: get() cannot block
      }
      // Single-flight join: another thread is producing this key.
      ++counters_.coalesced;
      inflight = it->second.future;
    } else {
      // Miss: install an in-flight entry and produce outside the lock.
      // Disk loads ride the same single flight as builds.
      ++counters_.misses;
      Entry entry;
      entry.future = promise.get_future().share();
      entries_.emplace(key, std::move(entry));
    }
  }
  if (inflight.valid()) {
    report(Outcome::Coalesced);
    return inflight.get();  // blocks; rethrows the producer's exception
  }

  // Produce without holding the lock (other keys proceed concurrently).
  PlanPtr plan;
  Outcome how = Outcome::Built;
  try {
    plan = produce(how);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.build_failures;
      entries_.erase(key);  // let a later request retry
    }
    promise.set_exception(std::current_exception());
    throw;
  }

  // Fulfill the promise *before* flipping the entry to ready: a thread
  // that sees ready=true under the lock calls future.get() while still
  // holding the mutex, so the value must already be there.
  promise.set_value(plan);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.ready = true;
      it->second.bytes = plan->byte_size();
      lru_.push_front(key);
      it->second.lru = lru_.begin();
      counters_.bytes += it->second.bytes;
      ++counters_.entries;
      evict_to_budget();
    }
  }
  report(how);
  return plan;
}

PlanPtr PlanCache::try_store_load(const PlanKey& key, Outcome& how) {
  if (!cfg_.store) return nullptr;
  core::PlanLoadResult loaded = cfg_.store->load(key);
  if (loaded.ok()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.disk_hits;
    how = Outcome::DiskLoaded;
    return std::move(loaded.plan);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (loaded.error_code == "E-STORE-OPEN") {
    ++counters_.disk_misses;  // simply not stored yet
  } else {
    // Present but rejected (corrupt, stale version, wrong identity,
    // failed verification, ...): count the fallback, remember why, and
    // let the caller rebuild as if the file did not exist.
    ++counters_.disk_fallbacks;
    last_fallback_reason_ = loaded.error_code + ": " + loaded.detail;
  }
  return nullptr;
}

void PlanCache::persist(const PlanKey& key,
                        const core::ExecutionPlan& plan) {
  if (!cfg_.store) return;
  std::string error;
  const bool saved = cfg_.store->save(key, plan, &error);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (saved)
    ++counters_.persisted;
  else
    ++counters_.persist_failures;
}

PlanPtr PlanCache::produce_from_tiers(const PlanKey& key,
                                      const core::PhasedKernel& kernel,
                                      const core::PlanOptions& opt,
                                      Outcome& how) {
  if (PlanPtr loaded = try_store_load(key, how)) return loaded;
  auto plan = std::make_shared<const core::ExecutionPlan>(
      core::build_execution_plan(kernel, opt));
  how = Outcome::Built;
  persist(key, *plan);
  return plan;
}

PlanPtr PlanCache::lookup_or_build(const core::PhasedKernel& kernel,
                                   const core::PlanOptions& opt,
                                   std::optional<std::uint64_t> fingerprint,
                                   Outcome* outcome) {
  const PlanKey key = make_plan_key(kernel, opt, fingerprint);
  return acquire(key, outcome, [&](Outcome& how) {
    return produce_from_tiers(key, kernel, opt, how);
  });
}

PlanPtr PlanCache::peek_ready(const PlanKey& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.ready) return nullptr;
  return it->second.future.get();
}

PlanPtr PlanCache::patch_or_build(
    const core::PhasedKernel& kernel, const core::PlanOptions& opt,
    std::uint64_t base_fingerprint,
    std::span<const std::uint32_t> changed_iterations,
    std::optional<std::uint64_t> fingerprint, Outcome* outcome) {
  const PlanKey key = make_plan_key(kernel, opt, fingerprint);
  PlanKey base_key = key;
  base_key.content_hash = base_fingerprint;

  return acquire(key, outcome, [&](Outcome& how) -> PlanPtr {
    // Tier order matches lookup_or_build: the *target* plan may already
    // be persisted (a repeat of the same mutation), in which case a
    // zero-copy load beats re-patching.
    if (PlanPtr loaded = try_store_load(key, how)) return loaded;

    // Find the base plan: memory first, then the store. Neither lookup
    // counts as a request — this is plumbing for the patch, not a client
    // cache access.
    PlanPtr base = peek_ready(base_key);
    if (!base && cfg_.store) {
      core::PlanLoadResult loaded = cfg_.store->load(base_key);
      if (loaded.ok()) base = std::move(loaded.plan);
    }

    if (base && !base->options.inspector.dedup_buffers) {
      try {
        core::ExecutionPlan patched =
            core::patch_execution_plan(kernel, *base, changed_iterations);
        // Re-verify in budget mode unconditionally: a patched plan is
        // admitted on proof, not provenance (patch_execution_plan itself
        // verifies only when options.verify is on).
        if (!base->options.verify) {
          inspector::PlanVerifyOptions vopt;
          vopt.exhaustive = false;
          const inspector::PlanVerifyReport report = inspector::verify_plan(
              patched.sched, patched.insp, patched.shape.num_edges,
              patched.shape.num_refs, vopt);
          if (!report.ok())
            throw verify_error("patched plan failed verification: " +
                               report.first_error());
        }
        auto plan =
            std::make_shared<const core::ExecutionPlan>(std::move(patched));
        how = Outcome::Patched;
        persist(key, *plan);
        const std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.patched;
        return plan;
      } catch (const std::exception& e) {
        // Patch or verification failed: the base plan is suspect.
        // Invalidate it, count the fallback, and rebuild from scratch —
        // the client never sees this.
        const std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.patch_fallbacks;
        last_fallback_reason_ = std::string("patch fallback: ") + e.what();
        const auto it = entries_.find(base_key);
        if (it != entries_.end() && it->second.ready) {
          counters_.bytes -= it->second.bytes;
          --counters_.entries;
          lru_.erase(it->second.lru);
          entries_.erase(it);
        }
      }
    }
    // Full rebuild (no base, dedup plan, or failed patch). The store was
    // already consulted for this key above, so build directly.
    auto plan = std::make_shared<const core::ExecutionPlan>(
        core::build_execution_plan(kernel, opt));
    how = Outcome::Built;
    persist(key, *plan);
    return plan;
  });
}

bool PlanCache::contains(const PlanKey& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second.ready;
}

PlanCache::Counters PlanCache::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::uint64_t PlanCache::resident_key_digest(std::uint64_t* entries) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // entries_ is an ordered map, so the fold order is canonical regardless
  // of how the entries arrived.
  std::uint64_t h = kFnvOffset;
  std::uint64_t n = 0;
  for (const auto& [key, entry] : entries_) {
    if (!entry.ready) continue;
    ++n;
    fnv_mix(h, key.content_hash);
    fnv_mix(h, (static_cast<std::uint64_t>(key.num_procs) << 32) | key.k);
    fnv_mix(h, (static_cast<std::uint64_t>(key.distribution) << 32) |
                   key.block_cyclic_size);
    fnv_mix(h, key.dedup_buffers ? 1ull : 0ull);
  }
  if (entries) *entries = n;
  return h;
}

std::string PlanCache::last_fallback_reason() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_fallback_reason_;
}

void PlanCache::evict_to_budget() {
  while (counters_.bytes > cfg_.byte_budget && !lru_.empty()) {
    const PlanKey victim = lru_.back();
    const auto it = entries_.find(victim);
    lru_.pop_back();
    if (it == entries_.end()) continue;
    counters_.bytes -= it->second.bytes;
    --counters_.entries;
    ++counters_.evictions;
    entries_.erase(it);
  }
}

}  // namespace earthred::service
