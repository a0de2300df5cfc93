#include "inspector/light_inspector.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "support/check.hpp"

namespace earthred::inspector {

std::vector<std::uint64_t> InspectorResult::phase_sizes() const {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(phases.size());
  for (const PhaseSchedule& p : phases) sizes.push_back(p.iter_global.size());
  return sizes;
}

std::uint64_t InspectorResult::total_deferred() const {
  std::uint64_t n = 0;
  for (const PhaseSchedule& p : phases) n += p.copy_dst.size();
  return n;
}

namespace {

void check_refs(const RotationSchedule& sched, const IterationRefs& iters) {
  ER_EXPECTS_MSG(!iters.refs.empty(), "at least one indirection reference");
  for (const auto& row : iters.refs) {
    ER_EXPECTS_MSG(row.size() == iters.num_iterations(),
                   "ragged indirection reference rows");
    for (std::uint32_t e : row)
      ER_EXPECTS_MSG(e < sched.num_elements(),
                     "indirection value out of range");
  }
}

/// Shared slot allocator for the full and incremental paths. The
/// incremental update hands it the slots it freed; a fresh run has none.
class SlotAllocator {
 public:
  SlotAllocator(InspectorResult& result, const RotationSchedule& sched,
                std::uint32_t proc, bool dedup,
                std::vector<std::uint32_t> freed = {})
      : result_(result),
        sched_(sched),
        proc_(proc),
        dedup_(dedup),
        free_(std::move(freed)) {}

  /// Returns the redirected index (num_elements + slot) for a reference to
  /// `elem` that is owned only in a later phase, adding the second-loop
  /// copy entry in `elem`'s owning phase when a new slot is created.
  std::uint32_t defer(std::uint32_t elem) {
    if (dedup_) {
      const auto it = dedup_map_.find(elem);
      if (it != dedup_map_.end())
        return sched_.num_elements() + it->second;
    }
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      result_.slot_elem[slot] = elem;
    } else {
      slot = result_.num_buffer_slots++;
      result_.slot_elem.push_back(elem);
    }
    if (dedup_) dedup_map_.emplace(elem, slot);
    const std::uint32_t fold_phase =
        sched_.owning_phase(proc_, sched_.portion_of(elem));
    result_.phases[fold_phase].copy_dst.push_back(elem);
    result_.phases[fold_phase].copy_src.push_back(sched_.num_elements() +
                                                  slot);
    return sched_.num_elements() + slot;
  }

  /// Redirected index of reference value `elem` for an iteration assigned
  /// to phase `assigned`: the element itself when owned there, a buffer
  /// slot otherwise.
  std::uint32_t redirect(std::uint32_t elem, std::uint32_t assigned) {
    const std::uint32_t ph =
        sched_.owning_phase(proc_, sched_.portion_of(elem));
    return ph == assigned ? elem : defer(elem);
  }

 private:
  InspectorResult& result_;
  const RotationSchedule& sched_;
  std::uint32_t proc_;
  bool dedup_;
  std::vector<std::uint32_t> free_;
  std::unordered_map<std::uint32_t, std::uint32_t> dedup_map_;
};

/// Phase an iteration with reference values `refs(r)` is assigned to: the
/// earliest phase owning any of them.
template <typename Refs>
std::uint32_t assign_phase(const RotationSchedule& sched, std::uint32_t proc,
                           std::size_t nrefs, Refs refs) {
  std::uint32_t assigned = sched.phases_per_sweep();
  for (std::size_t r = 0; r < nrefs; ++r)
    assigned = std::min(
        assigned, sched.owning_phase(proc, sched.portion_of(refs(r))));
  return assigned;
}

}  // namespace

InspectorResult run_light_inspector(const RotationSchedule& sched,
                                    std::uint32_t proc,
                                    const IterationRefs& iters,
                                    const LightInspectorOptions& opt) {
  ER_EXPECTS(proc < sched.num_procs());
  check_refs(sched, iters);
  const std::size_t nrefs = iters.num_refs();
  const auto n_iters = static_cast<std::uint32_t>(iters.num_iterations());
  const std::uint32_t n_phases = sched.phases_per_sweep();

  InspectorResult result;
  result.phases.resize(n_phases);
  result.assigned_phase.assign(n_iters, 0);

  // Step 1 (per iteration): earliest owning phase over all references,
  // counted per phase so every block is allocated once at its exact size.
  const std::span<std::uint32_t> assigned = result.assigned_phase.mutate();
  std::vector<std::uint32_t> count(n_phases, 0);
  for (std::uint32_t i = 0; i < n_iters; ++i) {
    assigned[i] = assign_phase(sched, proc, nrefs,
                               [&](std::size_t r) { return iters.refs[r][i]; });
    ++count[assigned[i]];
  }
  std::vector<std::span<std::uint32_t>> glob(n_phases), loc(n_phases),
      flat(n_phases);
  for (std::uint32_t ph = 0; ph < n_phases; ++ph) {
    PhaseSchedule& phase = result.phases[ph];
    phase.iter_global.resize(count[ph]);
    phase.iter_local.resize(count[ph]);
    phase.indir_flat.resize(nrefs * count[ph]);
    glob[ph] = phase.iter_global.mutate();
    loc[ph] = phase.iter_local.mutate();
    flat[ph] = phase.indir_flat.mutate();
  }

  // Step 2: fill the blocks with redirected references. Visiting
  // iterations in (local, ref) order is what numbers the buffer slots
  // canonically (update_light_inspector relies on it).
  SlotAllocator slots(result, sched, proc, opt.dedup_buffers);
  std::vector<std::uint32_t> fill(n_phases, 0);
  for (std::uint32_t i = 0; i < n_iters; ++i) {
    const std::uint32_t ph = assigned[i];
    const std::size_t j = fill[ph]++;
    glob[ph][j] = iters.global_iter[i];
    loc[ph][j] = i;
    for (std::size_t r = 0; r < nrefs; ++r)
      flat[ph][r * count[ph] + j] = slots.redirect(iters.refs[r][i], ph);
  }

  result.local_array_size =
      static_cast<std::uint64_t>(sched.num_elements()) +
      result.num_buffer_slots;
  return result;
}

// The sparse incremental update. The cost model is what justifies its
// existence (bench_plan_store gates patch >= 2x faster than a rebuild),
// so the implementation leans hard on one structural fact: the base
// result is CANONICAL — the fresh inspector (without dedup) allocates one
// buffer slot per deferred reference in (local iteration, ref slot)
// lexicographic order, so a slot id IS the rank of its deferred reference
// in that order, and slot ids increase with position. Removing the
// changed iterations and re-inserting them therefore renumbers the
// surviving slots by a piecewise-constant shift that can be derived from
// the freed slots and the re-inserted references alone, via one merge
// over the slot list — no full re-ranking of every reference. The only
// O(total refs) work left is two branch-light sweeps of the resident
// blocks: a redirect count (to position the changed iterations among the
// survivors) and the redirect rewrite itself.
InspectorResult update_light_inspector(const RotationSchedule& sched,
                                       std::uint32_t proc,
                                       const InspectorResult& previous,
                                       std::span<const ChangedIteration> changes,
                                       const LightInspectorOptions& opt) {
  ER_EXPECTS(proc < sched.num_procs());
  ER_EXPECTS_MSG(!opt.dedup_buffers,
                 "incremental update supports the paper's one-slot-per-"
                 "reference scheme only");
  const std::uint32_t n_elems = sched.num_elements();
  const std::size_t n_iters = previous.assigned_phase.size();
  const std::size_t num_refs = changes.empty() ? 0 : changes[0].refs.size();
  for (std::size_t i = 0; i < changes.size(); ++i) {
    const ChangedIteration& ch = changes[i];
    ER_EXPECTS_MSG(ch.local < n_iters, "changed iteration index out of range");
    ER_EXPECTS_MSG(i == 0 || changes[i - 1].local < ch.local,
                   "changes must be sorted by local index without duplicates");
    ER_EXPECTS_MSG(ch.refs.size() == num_refs,
                   "one new reference value per reference slot");
    for (std::uint32_t v : ch.refs)
      ER_EXPECTS_MSG(v < n_elems, "indirection value out of range");
  }

  InspectorResult result = previous;
  if (changes.empty()) {
    result.local_array_size =
        static_cast<std::uint64_t>(n_elems) + result.num_buffer_slots;
    return result;
  }
  for (const PhaseSchedule& phase : previous.phases)
    ER_EXPECTS_MSG(
        phase.indir_flat.size() == num_refs * phase.iter_global.size(),
        "one new reference value per reference slot");

  std::vector<std::uint32_t> cl;  // sorted changed locals
  cl.reserve(changes.size());
  for (const ChangedIteration& ch : changes) cl.push_back(ch.local);
  // rank[i + 1]: the number of changed locals <= i, so local i changed iff
  // rank[i + 1] != rank[i]. One linear pass buys O(1) lookups in the two
  // sweeps of the resident blocks below.
  std::vector<std::uint32_t> rank(n_iters + 1, 0);
  for (std::uint32_t c : cl) rank[c + 1] = 1;
  for (std::size_t i = 0; i < n_iters; ++i) rank[i + 1] += rank[i];

  // --- 1. Remove the changed iterations from their old phases, freeing
  // their buffer slots. Canonicity of the base means each freed slot id
  // is the old rank of that deferred reference.
  std::vector<std::uint32_t> affected;  // phases that lost iterations
  for (std::uint32_t c : cl) {
    const std::uint32_t ph = result.assigned_phase[c];
    if (std::find(affected.begin(), affected.end(), ph) == affected.end())
      affected.push_back(ph);
  }
  struct FreedSlot {
    std::uint32_t slot;
    std::uint32_t local;  // the changed iteration it belonged to
  };
  std::vector<FreedSlot> freed;
  for (std::uint32_t ph : affected) {
    PhaseSchedule& phase = result.phases[ph];
    const std::size_t n = phase.iter_local.size();
    const std::span<std::uint32_t> il = phase.iter_local.mutate();
    const std::span<std::uint32_t> ig = phase.iter_global.mutate();
    const std::span<std::uint32_t> flat = phase.indir_flat.mutate();
    std::size_t w = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (rank[il[j] + 1] != rank[il[j]]) {
        for (std::size_t r = 0; r < num_refs; ++r)
          if (const std::uint32_t v = flat[r * n + j]; v >= n_elems)
            freed.push_back({v - n_elems, il[j]});
        continue;  // drop this entry
      }
      ig[w] = ig[j];
      il[w] = il[j];
      for (std::size_t r = 0; r < num_refs; ++r)
        flat[r * n + w] = flat[r * n + j];
      ++w;
    }
    // Each row was compacted at its old offset r*n; close the gaps. The
    // destination starts below the source (w < n: the phase lost an
    // iteration), so a forward copy is safe.
    for (std::size_t r = 1; w < n && r < num_refs; ++r)
      std::copy(flat.begin() + r * n, flat.begin() + r * n + w,
                flat.begin() + r * w);
    phase.iter_global.resize(w);
    phase.iter_local.resize(w);
    phase.indir_flat.resize(num_refs * w);
  }
  // The fold entries that fed the freed slots are NOT compacted here:
  // step 7 regenerates the second loop of every phase whose lists differ
  // from canonical, which necessarily includes every phase with a stale
  // entry — dropping them now would be a second pass for nothing.

  // --- 2. A[i]: number of old deferred references at positions before
  // (changes[i].local, 0) — the changed iteration's place in the old slot
  // order. Counted as surviving redirects with iter_local < local (one
  // branch-light sweep of the resident blocks) plus the freed slots of
  // earlier changed iterations.
  std::vector<std::uint32_t> A(cl.size(), 0);
  {
    std::vector<std::uint32_t> bump(cl.size() + 1, 0);
    for (const PhaseSchedule& phase : result.phases) {
      const std::uint32_t* il = phase.iter_local.data();
      const std::size_t n = phase.iter_local.size();
      for (std::size_t r = 0; r < num_refs; ++r) {
        const std::uint32_t* row = phase.indir_flat.data() + r * n;
        for (std::size_t j = 0; j < n; ++j)
          if (row[j] >= n_elems) ++bump[rank[il[j] + 1]];
      }
    }
    std::vector<std::uint32_t> freed_per(cl.size(), 0);
    for (const FreedSlot& f : freed) ++freed_per[rank[f.local]];
    std::uint32_t surviving = 0, freed_before = 0;
    for (std::size_t i = 0; i < cl.size(); ++i) {
      surviving += bump[i];
      A[i] = surviving + freed_before;
      freed_before += freed_per[i];
    }
  }

  std::vector<std::uint32_t> freed_sorted;
  freed_sorted.reserve(freed.size());
  for (const FreedSlot& f : freed) freed_sorted.push_back(f.slot);
  std::sort(freed_sorted.begin(), freed_sorted.end());

  // --- 3. Place the changed iterations with their new references,
  // reusing the freed slots: landed[i] is change i's phase,
  // newvals[i * num_refs + r] its redirected reference r. Step 5 merges
  // them into the blocks.
  SlotAllocator slots(result, sched, proc, /*dedup=*/false, freed_sorted);
  std::vector<std::uint32_t> landed(changes.size());
  std::vector<std::uint32_t> newvals(changes.size() * num_refs);
  for (std::size_t i = 0; i < changes.size(); ++i) {
    const ChangedIteration& ch = changes[i];
    const std::uint32_t assigned = assign_phase(
        sched, proc, num_refs, [&](std::size_t r) { return ch.refs[r]; });
    landed[i] = assigned;
    for (std::size_t r = 0; r < num_refs; ++r)
      newvals[i * num_refs + r] = slots.redirect(ch.refs[r], assigned);
    result.assigned_phase[ch.local] = assigned;
  }

  // --- 4. Canonical renumbering as a merge. Surviving slots keep their
  // relative order (their ranks all shift by the same amount between two
  // consecutive change positions); each new deferred reference of change
  // i sits immediately before survivor rank A[i] - |freed below A[i]|,
  // ordered among its peers by (local, ref). One pass over the slot ids
  // yields both the final slot_elem and the temp-id -> final-id map.

  struct NewRef {
    std::uint32_t key;   // survivor rank it precedes
    std::uint32_t tmp;   // slot id the allocator handed out
    std::uint32_t elem;  // element it folds into
  };
  std::vector<NewRef> newrefs;
  for (std::size_t i = 0; i < changes.size(); ++i) {
    const std::uint32_t key =
        A[i] - static_cast<std::uint32_t>(
                   std::lower_bound(freed_sorted.begin(), freed_sorted.end(),
                                    A[i]) -
                   freed_sorted.begin());
    for (std::size_t r = 0; r < num_refs; ++r) {
      const std::uint32_t v = newvals[i * num_refs + r];
      if (v >= n_elems)
        newrefs.push_back({key, v - n_elems, result.slot_elem[v - n_elems]});
    }
  }

  const std::uint32_t s_old = previous.num_buffer_slots;
  // Indexed by the ids currently in the blocks: surviving old ids plus
  // whatever the allocator handed out (reused freed ids and fresh ids
  // starting at s_old).
  std::vector<std::uint32_t> slot_map(s_old + newrefs.size());
  std::vector<std::uint32_t> new_slot_elem;
  new_slot_elem.reserve(s_old - freed_sorted.size() + newrefs.size());
  {
    std::size_t ni = 0, fi = 0;
    std::uint32_t survivor_rank = 0;
    for (std::uint32_t s = 0; s < s_old; ++s) {
      if (fi < freed_sorted.size() && freed_sorted[fi] == s) {
        ++fi;
        continue;
      }
      while (ni < newrefs.size() && newrefs[ni].key <= survivor_rank) {
        slot_map[newrefs[ni].tmp] =
            static_cast<std::uint32_t>(new_slot_elem.size());
        new_slot_elem.push_back(newrefs[ni].elem);
        ++ni;
      }
      slot_map[s] = static_cast<std::uint32_t>(new_slot_elem.size());
      new_slot_elem.push_back(previous.slot_elem[s]);
      ++survivor_rank;
    }
    for (; ni < newrefs.size(); ++ni) {
      slot_map[newrefs[ni].tmp] =
          static_cast<std::uint32_t>(new_slot_elem.size());
      new_slot_elem.push_back(newrefs[ni].elem);
    }
  }

  // --- 5. Merge each receiving phase's changed iterations into its body
  // in increasing local-iteration order (the fresh run's emission order).
  // The body kept its order through removal and the changes of one phase
  // arrive in ascending local order, so this is a two-pointer merge that
  // writes each grown phase's arrays once, at their final size.
  std::vector<std::uint32_t> by_phase(changes.size());
  for (std::size_t i = 0; i < changes.size(); ++i)
    by_phase[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(by_phase.begin(), by_phase.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return landed[a] < landed[b];
                   });
  for (std::size_t g = 0; g < by_phase.size();) {
    const std::uint32_t ph = landed[by_phase[g]];
    std::size_t g_end = g;
    while (g_end < by_phase.size() && landed[by_phase[g_end]] == ph) ++g_end;
    PhaseSchedule& phase = result.phases[ph];
    const std::size_t body = phase.iter_local.size();
    const std::size_t n = body + (g_end - g);
    const std::uint32_t* il = phase.iter_local.data();
    const std::uint32_t* ig = phase.iter_global.data();
    const std::uint32_t* flat = phase.indir_flat.data();
    std::vector<std::uint32_t> out_ig(n), out_il(n), out_flat(num_refs * n);
    std::size_t b = 0, t = g;
    for (std::size_t w = 0; w < n; ++w) {
      if (t < g_end && (b == body || changes[by_phase[t]].local < il[b])) {
        const std::uint32_t i = by_phase[t++];
        out_ig[w] = changes[i].global;
        out_il[w] = changes[i].local;
        for (std::size_t r = 0; r < num_refs; ++r)
          out_flat[r * n + w] = newvals[i * num_refs + r];
      } else {
        out_ig[w] = ig[b];
        out_il[w] = il[b];
        for (std::size_t r = 0; r < num_refs; ++r)
          out_flat[r * n + w] = flat[r * body + b];
        ++b;
      }
    }
    phase.iter_global = U32Buf(std::move(out_ig));
    phase.iter_local = U32Buf(std::move(out_il));
    phase.indir_flat = U32Buf(std::move(out_flat));
    g = g_end;
  }

  // --- 6. Rewrite redirects through the renumbering map. Blocks whose
  // redirects all keep their ids are left untouched — for a plan patched
  // off a store-loaded base they stay zero-copy views into the mapping.
  for (PhaseSchedule& phase : result.phases) {
    const std::uint32_t* flat = phase.indir_flat.data();
    const std::size_t m = phase.indir_flat.size();
    std::size_t j = 0;
    while (j < m &&
           !(flat[j] >= n_elems &&
             slot_map[flat[j] - n_elems] + n_elems != flat[j]))
      ++j;
    if (j == m) continue;
    const std::span<std::uint32_t> wflat = phase.indir_flat.mutate();
    for (; j < m; ++j)
      if (wflat[j] >= n_elems)
        wflat[j] = n_elems + slot_map[wflat[j] - n_elems];
  }

  // --- 7. Regenerate the second loop in canonical slot order (the fresh
  // run appends each fold entry at allocation time, i.e. ascending slot).
  // Phases whose lists come out unchanged keep their adopted buffers.
  {
    std::vector<std::uint32_t> fold_of(new_slot_elem.size());
    std::vector<std::uint32_t> fold_count(result.phases.size(), 0);
    for (std::size_t s = 0; s < new_slot_elem.size(); ++s) {
      fold_of[s] = sched.owning_phase(proc, sched.portion_of(new_slot_elem[s]));
      ++fold_count[fold_of[s]];
    }
    std::vector<std::vector<std::uint32_t>> cd(result.phases.size());
    std::vector<std::vector<std::uint32_t>> cs(result.phases.size());
    for (std::size_t ph = 0; ph < result.phases.size(); ++ph) {
      cd[ph].reserve(fold_count[ph]);
      cs[ph].reserve(fold_count[ph]);
    }
    for (std::size_t s = 0; s < new_slot_elem.size(); ++s) {
      cd[fold_of[s]].push_back(new_slot_elem[s]);
      cs[fold_of[s]].push_back(n_elems + static_cast<std::uint32_t>(s));
    }
    for (std::size_t ph = 0; ph < result.phases.size(); ++ph) {
      PhaseSchedule& phase = result.phases[ph];
      if (phase.copy_dst == cd[ph] && phase.copy_src == cs[ph]) continue;
      phase.copy_dst.clear();
      phase.copy_dst.append(cd[ph]);
      phase.copy_src.clear();
      phase.copy_src.append(cs[ph]);
    }
  }

  result.num_buffer_slots = static_cast<std::uint32_t>(new_slot_elem.size());
  result.slot_elem.clear();
  result.slot_elem.append(new_slot_elem);
  result.local_array_size =
      static_cast<std::uint64_t>(n_elems) + result.num_buffer_slots;
  return result;
}

InspectorResult update_light_inspector(
    const RotationSchedule& sched, std::uint32_t proc,
    const IterationRefs& iters, const InspectorResult& previous,
    std::span<const std::uint32_t> changed_local,
    const LightInspectorOptions& opt) {
  check_refs(sched, iters);
  ER_EXPECTS(previous.assigned_phase.size() == iters.num_iterations());
  std::vector<std::uint32_t> cl(changed_local.begin(), changed_local.end());
  std::sort(cl.begin(), cl.end());
  cl.erase(std::unique(cl.begin(), cl.end()), cl.end());
  std::vector<ChangedIteration> changes;
  changes.reserve(cl.size());
  for (std::uint32_t c : cl) {
    ER_EXPECTS_MSG(c < iters.num_iterations(),
                   "changed iteration index out of range");
    ChangedIteration ch;
    ch.local = c;
    ch.global = iters.global_iter[c];
    ch.refs.reserve(iters.num_refs());
    for (std::size_t r = 0; r < iters.num_refs(); ++r)
      ch.refs.push_back(iters.refs[r][c]);
    changes.push_back(std::move(ch));
  }
  return update_light_inspector(sched, proc, previous, changes, opt);
}

}  // namespace earthred::inspector
