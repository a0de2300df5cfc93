#include "inspector/plan_verifier.hpp"

#include <bit>

#include "inspector/plan_walk.hpp"

namespace earthred::inspector {

std::string PlanVerifyReport::render() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.label();
    out += ": ";
    out += d.message;
    out += '\n';
  }
  if (violations > diagnostics.size())
    out += "... and " + std::to_string(violations - diagnostics.size()) +
           " further violation(s) not shown\n";
  return out;
}

std::string PlanVerifyReport::first_error() const {
  if (diagnostics.empty()) return {};
  return diagnostics.front().label() + ": " + diagnostics.front().message;
}

// The budget pass is the plan store's warm-start critical path: every
// load re-proves the invariants before admission, so its sweeps run at
// memory speed or the 10x warm/cold win evaporates. The repo targets
// baseline x86-64 (no -march), which lacks even unsigned 32-bit SIMD
// compares; target_clones emits an AVX2 clone of each sweep next to the
// portable one and picks at load time via the glibc ifunc resolver —
// same source, same results, no extra build flags. Not under TSan: the
// resolver runs during relocation, before the TSan runtime is set up, and
// its instrumented prologue crashes every binary at load.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__has_attribute) && !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define ER_SWEEP_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef ER_SWEEP_CLONES
#define ER_SWEEP_CLONES
#endif

namespace {

/// Collects violations with the recording cap; counting never stops.
class Reporter {
 public:
  Reporter(PlanVerifyReport& report, const PlanVerifyOptions& opt)
      : report_(report), opt_(opt) {}

  void fail(const char* code, std::string msg) {
    ++report_.violations;
    if (report_.diagnostics.size() >= opt_.max_diagnostics) return;
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = code;
    d.message = std::move(msg);
    report_.diagnostics.push_back(std::move(d));
  }

 private:
  PlanVerifyReport& report_;
  const PlanVerifyOptions& opt_;
};

/// "proc 1 phase 3" — the plan coordinate every message leads with.
std::string at(std::uint32_t proc, std::uint32_t phase) {
  return "proc " + std::to_string(proc) + " phase " + std::to_string(phase);
}

/// Power sums of every scheduled global iteration id, accumulated by the
/// budget pass in one vectorizable sweep per phase. count and s1 are
/// exact; s2 wraps mod 2^64 (the closed form it is compared against
/// wraps identically).
struct CoverageSums {
  std::uint64_t count = 0;
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
};

// Odd multipliers mixing (slot, dst, phase) into the budget pass's
// fold-pairing sums (xxhash's 32-bit primes; any odd constants work —
// oddness makes a change to any single field shift the sum).
constexpr std::uint32_t kPairMulSlot = 0x9E3779B1u;
constexpr std::uint32_t kPairMulDst = 0x85EBCA77u;

/// Budget coverage sweep: power sums over the scheduled ids (no scatter).
ER_SWEEP_CLONES void budget_coverage_sums(const std::uint32_t* glob,
                                          std::size_t n, std::uint64_t& s1,
                                          std::uint64_t& s2) {
  std::uint64_t a = 0, b = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t g = glob[j];
    a += g;
    b += g * g;
  }
  s1 += a;
  s2 += b;
}

struct RowSweep {
  std::uint32_t nin = 0;     ///< entries inside the owned window
  std::uint32_t ndefer = 0;  ///< redirected entries (>= num_elements)
  std::uint32_t vmax = 0;    ///< row maximum
};

/// Budget per-row sweep: every entry is either inside the owned window or
/// redirected (counted arithmetically), and the row maximum bounds
/// redirected entries to live slot space.
ER_SWEEP_CLONES RowSweep budget_row_sweep(const std::uint32_t* row,
                                          std::size_t n,
                                          std::uint32_t owned_lo,
                                          std::uint32_t owned_size,
                                          std::uint32_t n_elems) {
  RowSweep out;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t v = row[j];
    out.nin += v - owned_lo < owned_size;
    out.ndefer += v >= n_elems;
    out.vmax = v > out.vmax ? v : out.vmax;
  }
  return out;
}

struct FoldSweep {
  std::uint64_t s1 = 0;     ///< sum of folded slot ids
  std::uint64_t s2 = 0;     ///< sum of their squares
  std::uint64_t w1 = 0;     ///< sum of mixed (slot, dst, phase) words
  std::uint64_t w2 = 0;     ///< sum of their squares
  std::uint32_t dmax = 0;   ///< largest fold destination
};

/// Budget fold sweep: pairing sums over one phase's second-loop lists.
ER_SWEEP_CLONES FoldSweep budget_fold_sums(const std::uint32_t* cd,
                                           const std::uint32_t* cs,
                                           std::size_t m,
                                           std::uint32_t n_elems,
                                           std::uint32_t ph) {
  FoldSweep out;
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t slot = cs[j] - n_elems;  // wraps when not a slot
    const std::uint32_t dst = cd[j];
    out.s1 += slot;
    out.s2 += static_cast<std::uint64_t>(slot) * slot;
    const std::uint32_t w =
        slot * kPairMulSlot + dst * kPairMulDst + ph;  // wraps mod 2^32
    out.w1 += w;
    out.w2 += static_cast<std::uint64_t>(w) * w;
    out.dmax = dst > out.dmax ? dst : out.dmax;
  }
  return out;
}

/// Exact coverage walk: every global iteration id in [0, num_iterations)
/// scheduled exactly once across the whole plan, tracked in a bit-packed
/// seen map (L1-resident even for large meshes). Exhaustive mode only —
/// the budget pass proves the same property through power sums.
void verify_coverage_exact(std::span<const InspectorResult> insp,
                           std::uint64_t num_iterations, Reporter& rep) {
  const std::size_t words =
      static_cast<std::size_t>(num_iterations + 63) / 64;
  std::vector<std::uint64_t> seen(words, 0);
  for (std::uint32_t p = 0; p < insp.size(); ++p) {
    for (std::uint32_t ph = 0; ph < insp[p].phases.size(); ++ph) {
      const PhaseSchedule& phase = insp[p].phases[ph];
      for (const std::uint32_t g : phase.iter_global) {
        if (g >= num_iterations) {
          rep.fail("E-PLAN-OOB", at(p, ph) + ": global iteration " +
                                     std::to_string(g) + " >= " +
                                     std::to_string(num_iterations));
          continue;
        }
        std::uint64_t& word = seen[g >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (g & 63);
        if (word & bit)  // every occurrence beyond the first
          rep.fail("E-PLAN-DUP-ITER",
                   at(p, ph) + ": iteration " + std::to_string(g) +
                       " is scheduled more than once across the plan");
        word |= bit;
      }
    }
  }
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t missing = ~seen[w];
    if (w == words - 1 && (num_iterations & 63))
      missing &= (std::uint64_t{1} << (num_iterations & 63)) - 1;
    while (missing) {
      const int bit = std::countr_zero(missing);
      missing &= missing - 1;
      rep.fail("E-PLAN-LOST-ITER",
               "iteration " + std::to_string(w * 64 + bit) +
                   " is scheduled in no phase of any processor");
    }
  }
}

/// Verifies one processor's InspectorResult. In exhaustive mode every
/// invariant is proven (and reported) per entry. In budget mode the hot
/// sections only *detect*: branchless, vectorizable aggregate sweeps
/// raise `suspect` and the caller reruns the whole pass exhaustively —
/// broken plans are the cold path, so localization cost is irrelevant.
void verify_proc(const RotationSchedule& sched, const InspectorResult& insp,
                 std::uint32_t proc, std::uint32_t num_refs, bool exhaustive,
                 CoverageSums& cov, bool& suspect, PlanVerifyReport& report,
                 Reporter& rep) {
  const std::uint32_t n_elems = sched.num_elements();
  const std::uint32_t n_phases = sched.phases_per_sweep();

  if (insp.phases.size() != n_phases) {
    rep.fail("E-PLAN-SHAPE",
             "proc " + std::to_string(proc) + ": " +
                 std::to_string(insp.phases.size()) + " phases, schedule has " +
                 std::to_string(n_phases));
    return;  // nothing below can be trusted
  }
  if (insp.slot_elem.size() != insp.num_buffer_slots)
    rep.fail("E-PLAN-SHAPE",
             "proc " + std::to_string(proc) + ": slot_elem has " +
                 std::to_string(insp.slot_elem.size()) + " entries for " +
                 std::to_string(insp.num_buffer_slots) + " buffer slots");
  if (insp.local_array_size !=
      static_cast<std::uint64_t>(n_elems) + insp.num_buffer_slots)
    rep.fail("E-PLAN-SHAPE",
             "proc " + std::to_string(proc) + ": local_array_size " +
                 std::to_string(insp.local_array_size) + " != num_elements " +
                 std::to_string(n_elems) + " + " +
                 std::to_string(insp.num_buffer_slots) + " slots");

  if (exhaustive) {
    for (std::uint32_t slot = 0; slot < insp.slot_elem.size(); ++slot) {
      if (insp.slot_elem[slot] >= n_elems)
        rep.fail("E-PLAN-OOB",
                 "proc " + std::to_string(proc) + ": slot " +
                     std::to_string(slot) + " maps to element " +
                     std::to_string(insp.slot_elem[slot]) +
                     " >= num_elements " + std::to_string(n_elems));
    }
  } else {
    std::uint32_t oob = 0;
    for (const std::uint32_t elem : insp.slot_elem) oob += elem >= n_elems;
    suspect |= oob != 0;
  }

  // element -> phase in which this proc owns it, one pass over the
  // portions (no per-element division). The per-reference hot loop never
  // touches this table on its clean path — a direct reference in phase
  // ph is legal iff it falls inside the single portion this proc owns
  // there, a two-compare range test against loop constants — but slot
  // and fold checks resolve ownership through it.
  std::vector<std::uint32_t> owner_ph_of(n_elems);
  for (std::uint32_t portion = 0; portion < sched.num_portions(); ++portion) {
    const std::uint32_t owner_ph = sched.owning_phase(proc, portion);
    const std::uint32_t begin = sched.portion_begin(portion);
    const std::uint32_t size = sched.portion_size(portion);
    for (std::uint32_t e = begin; e < begin + size; ++e)
      owner_ph_of[e] = owner_ph;
  }
  // Exhaustive-only per-slot state. slot_owner_ph hoists the double
  // indirection (slot -> element -> owning phase) out of the deferred
  // and fold walks; n_phases flags a slot whose element is out of range
  // (already reported above).
  std::vector<std::uint32_t> slot_owner_ph, slot_refs, slot_folds;
  if (exhaustive) {
    slot_owner_ph.assign(insp.num_buffer_slots, n_phases);
    for (std::uint32_t slot = 0; slot < insp.slot_elem.size() &&
                                 slot < insp.num_buffer_slots;
         ++slot)
      if (insp.slot_elem[slot] < n_elems)
        slot_owner_ph[slot] = owner_ph_of[insp.slot_elem[slot]];
    slot_refs.assign(insp.num_buffer_slots, 0);
    slot_folds.assign(insp.num_buffer_slots, 0);
  }

  // Budget-mode fold pairing sums, accumulated across phases and
  // compared against the expected per-slot values after the walk.
  std::uint64_t fold_cnt = 0, fold_s1 = 0, fold_s2 = 0;
  std::uint64_t fold_w1 = 0, fold_w2 = 0;
  std::uint32_t fold_dmax = 0;

  for_each_phase(insp, [&](std::uint32_t ph, const PhaseSchedule& phase) {
    const std::size_t n = phase.iter_global.size();

    // --- shape of the phase arrays -----------------------------------
    bool shape_ok = true;
    if (phase.iter_local.size() != n) {
      rep.fail("E-PLAN-SHAPE",
               at(proc, ph) + ": iter_local has " +
                   std::to_string(phase.iter_local.size()) +
                   " entries, iter_global has " + std::to_string(n));
      shape_ok = false;
    }
    if (phase.copy_src.size() != phase.copy_dst.size()) {
      rep.fail("E-PLAN-SHAPE",
               at(proc, ph) + ": copy_src has " +
                   std::to_string(phase.copy_src.size()) +
                   " entries, copy_dst has " +
                   std::to_string(phase.copy_dst.size()));
      shape_ok = false;
    }
    if (phase.indir_flat.size() != num_refs * n) {
      rep.fail("E-PLAN-SHAPE", at(proc, ph) + ": indir_flat has " +
                                   std::to_string(phase.indir_flat.size()) +
                                   " entries, num_refs x iterations is " +
                                   std::to_string(num_refs * n));
      shape_ok = false;
    }
    if (!shape_ok) return;  // per-entry checks would index out of range

    // --- iteration bookkeeping ---------------------------------------
    report.checked_iterations += n;
    const std::uint32_t* glob = phase.iter_global.data();
    if (!exhaustive) {
      // Power sums over the scheduled ids; verify_plan compares them
      // against the closed forms.
      cov.count += n;
      budget_coverage_sums(glob, n, cov.s1, cov.s2);
    } else {
      // assigned_phase is incremental-update bookkeeping (the executor
      // never reads it), so the cross-check runs in exhaustive mode
      // only.
      const std::uint32_t* locs = phase.iter_local.data();
      const std::uint32_t n_local =
          static_cast<std::uint32_t>(insp.assigned_phase.size());
      const std::uint32_t* assigned = insp.assigned_phase.data();
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t l = locs[j];
        if (l >= n_local)
          rep.fail("E-PLAN-OOB",
                   at(proc, ph) + ": local iteration " + std::to_string(l) +
                       " >= assigned_phase size " + std::to_string(n_local));
        else if (assigned[l] != ph)
          rep.fail("E-PLAN-PHASE-ASSIGN",
                   at(proc, ph) + ": local iteration " + std::to_string(l) +
                       " is scheduled here but assigned_phase says " +
                       std::to_string(assigned[l]));
      }
    }

    // --- per-reference ownership --------------------------------------
    // Direct: the element's portion must be owned by this proc in this
    // phase — this is the whole rotation contract, including the
    // k-phase in-flight window for k > 1. Since exactly one portion is
    // owned per (proc, phase), the clean path is an unsigned range test
    // against two loop constants.
    const std::uint32_t owned = sched.owned_portion(proc, ph);
    const std::uint32_t owned_lo = sched.portion_begin(owned);
    const std::uint32_t owned_size = sched.portion_size(owned);
    const std::uint32_t slot_cap = insp.num_buffer_slots;
    report.checked_refs += static_cast<std::uint64_t>(num_refs) * n;
    for (std::size_t r = 0; r < num_refs; ++r) {
      const std::uint32_t* row = phase.indir_row(r).data();
      if (!exhaustive) {
        // One branchless sweep per row, touching each entry once.
        const RowSweep sw =
            budget_row_sweep(row, n, owned_lo, owned_size, n_elems);
        const std::uint32_t ndefer = sw.ndefer;
        // Some direct reference outside the owned window:
        suspect |= sw.nin + ndefer != n;
        suspect |= static_cast<std::uint64_t>(sw.vmax) >=
                   static_cast<std::uint64_t>(n_elems) + slot_cap;
        continue;
      }
      // Exhaustive: prove ownership per entry.
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t v = row[j];
        if (v < n_elems) {
          if (v - owned_lo < owned_size) continue;
          rep.fail("E-PLAN-PHASE-OWNER",
                   at(proc, ph) + " ref " + std::to_string(r) + " iter " +
                       std::to_string(j) + ": element " + std::to_string(v) +
                       " (portion " + std::to_string(sched.portion_of(v)) +
                       ") is owned in phase " +
                       std::to_string(owner_ph_of[v]) + ", not here");
          continue;
        }
        const std::uint64_t slot64 = static_cast<std::uint64_t>(v) - n_elems;
        if (slot64 >= slot_cap) {
          rep.fail("E-PLAN-SLOT-RANGE",
                   at(proc, ph) + " ref " + std::to_string(r) + " iter " +
                       std::to_string(j) + ": redirected index " +
                       std::to_string(v) + " addresses slot " +
                       std::to_string(slot64) + " of " +
                       std::to_string(slot_cap));
          continue;
        }
        const auto slot = static_cast<std::uint32_t>(slot64);
        ++slot_refs[slot];
        if (slot_owner_ph[slot] <= ph)
          rep.fail("E-PLAN-EARLY-REF",
                   at(proc, ph) + " ref " + std::to_string(r) + " iter " +
                       std::to_string(j) + ": slot " + std::to_string(slot) +
                       " buffers element " +
                       std::to_string(insp.slot_elem[slot]) +
                       " already owned in phase " +
                       std::to_string(slot_owner_ph[slot]) +
                       "; the reference should be direct");
      }
    }

    // --- second loop (fold-backs) ------------------------------------
    report.checked_folds += phase.copy_dst.size();
    if (!exhaustive) {
      // Detection by pairing sums, no gathers or scatters: the multiset
      // of folded slots must equal the live-slot set (count + two power
      // sums over injective values), and each fold's (slot, dst, phase)
      // triple is mixed into two more sums compared against the values
      // the slot table implies. verify_plan documents the collision
      // caveat; any mismatch reruns the exhaustive pass.
      const std::size_t m = phase.copy_dst.size();
      const FoldSweep fs = budget_fold_sums(
          phase.copy_dst.data(), phase.copy_src.data(), m, n_elems, ph);
      fold_cnt += m;
      fold_s1 += fs.s1;
      fold_s2 += fs.s2;
      fold_w1 += fs.w1;
      fold_w2 += fs.w2;
      fold_dmax = fs.dmax > fold_dmax ? fs.dmax : fold_dmax;
      return;
    }
    for (std::size_t j = 0; j < phase.copy_dst.size(); ++j) {
      const std::uint32_t dst = phase.copy_dst[j];
      const std::uint32_t src = phase.copy_src[j];
      if (dst >= n_elems) {
        rep.fail("E-PLAN-OOB", at(proc, ph) + " fold " + std::to_string(j) +
                                   ": destination " + std::to_string(dst) +
                                   " >= num_elements " +
                                   std::to_string(n_elems));
        continue;
      }
      if (src < n_elems ||
          static_cast<std::uint64_t>(src) - n_elems >=
              insp.num_buffer_slots) {
        rep.fail("E-PLAN-SLOT-RANGE",
                 at(proc, ph) + " fold " + std::to_string(j) + ": source " +
                     std::to_string(src) + " is not a buffer slot");
        continue;
      }
      const std::uint32_t slot = src - n_elems;
      if (++slot_folds[slot] == 2)  // report each multiply-folded slot once
        rep.fail("E-PLAN-DUP-FOLD",
                 "proc " + std::to_string(proc) + ": slot " +
                     std::to_string(slot) + " is folded back more than once");
      if (insp.slot_elem[slot] != dst)
        rep.fail("E-PLAN-FOLD-MISMATCH",
                 at(proc, ph) + " fold " + std::to_string(j) + ": slot " +
                     std::to_string(slot) + " buffers element " +
                     std::to_string(insp.slot_elem[slot]) +
                     " but folds into element " + std::to_string(dst));
      // With dst == slot_elem[slot] this is exactly "dst owned here";
      // on a mismatch (already reported) it pins the fold to the phase
      // owning the slot's element.
      if (slot_owner_ph[slot] != ph)
        rep.fail("E-PLAN-FOLD-PHASE",
                 at(proc, ph) + " fold " + std::to_string(j) + ": element " +
                     std::to_string(dst) + " is owned in phase " +
                     std::to_string(slot_owner_ph[slot]) +
                     "; folding here races the rotation");
    }
  });

  if (!exhaustive) {
    // Expected side of the fold sums: every live slot folded exactly
    // once, into its own element, in that element's owning phase.
    std::uint64_t cnt = 0, s1 = 0, s2 = 0, w1 = 0, w2 = 0;
    for (std::uint32_t slot = 0;
         slot < insp.slot_elem.size() && slot < insp.num_buffer_slots;
         ++slot) {
      const std::uint32_t raw = insp.slot_elem[slot];
      const std::uint32_t elem = raw < n_elems ? raw : 0;  // OOB: suspect set
      ++cnt;
      s1 += slot;
      s2 += static_cast<std::uint64_t>(slot) * slot;
      const std::uint32_t w =
          slot * kPairMulSlot + elem * kPairMulDst + owner_ph_of[elem];
      w1 += w;
      w2 += static_cast<std::uint64_t>(w) * w;
    }
    suspect |= fold_cnt != cnt || fold_s1 != s1 || fold_s2 != s2 ||
               fold_w1 != w1 || fold_w2 != w2;
    suspect |= fold_cnt > 0 && fold_dmax >= n_elems;
    return;
  }

  // Every slot the schedule writes through must fold back; DUP was
  // reported inline, absence is only visible after the full walk.
  for (std::uint32_t slot = 0; slot < insp.num_buffer_slots; ++slot) {
    if (slot_refs[slot] > 0 && slot_folds[slot] == 0)
      rep.fail("E-PLAN-NO-FOLD",
               "proc " + std::to_string(proc) + ": slot " +
                   std::to_string(slot) + " buffers element " +
                   std::to_string(insp.slot_elem[slot]) +
                   " but is never folded back");
  }
}

}  // namespace

PlanVerifyReport verify_plan(const RotationSchedule& sched,
                             std::span<const InspectorResult> insp,
                             std::uint64_t num_iterations,
                             std::uint32_t num_refs,
                             const PlanVerifyOptions& opt) {
  PlanVerifyReport report;
  Reporter rep(report, opt);

  if (insp.size() != sched.num_procs()) {
    rep.fail("E-PLAN-SHAPE",
             "plan has " + std::to_string(insp.size()) +
                 " inspector results, schedule has " +
                 std::to_string(sched.num_procs()) + " processors");
    return report;
  }

  CoverageSums cov;
  bool suspect = false;
  for (std::uint32_t p = 0; p < insp.size(); ++p)
    verify_proc(sched, insp[p], p, num_refs, opt.exhaustive, cov, suspect,
                report, rep);

  if (opt.exhaustive) {
    verify_coverage_exact(insp, num_iterations, rep);
    return report;
  }

  // Coverage via power sums: exactly-once scheduling of 0..N-1 forces
  // count == N, sum == N(N-1)/2 and sum of squares == (N-1)N(2N-1)/6
  // (both compared mod 2^64, which the accumulation wraps identically).
  // Any single dropped, duplicated or out-of-range id — and any pair of
  // such defects — shifts at least one of them; the same argument covers
  // the fold pairing sums above. Only contrived multi-id corruptions
  // could cancel, and the exhaustive pass at admission is airtight.
  const auto n128 = static_cast<unsigned __int128>(num_iterations);
  const auto s1_expect = static_cast<std::uint64_t>(n128 * (n128 - 1) / 2);
  const auto s2_expect = static_cast<std::uint64_t>(
      n128 * (n128 - 1) * (2 * n128 - 1) / 6);
  suspect |= cov.count != num_iterations || cov.s1 != s1_expect ||
             cov.s2 != s2_expect;

  if (!suspect && report.violations == 0) return report;

  // Something is off (or was reported outright): rerun exhaustively for
  // authoritative, localized diagnostics. Broken plans are the cold
  // path; the detector never flags a defect the exhaustive pass misses.
  PlanVerifyOptions full = opt;
  full.exhaustive = true;
  return verify_plan(sched, insp, num_iterations, num_refs, full);
}

}  // namespace earthred::inspector
