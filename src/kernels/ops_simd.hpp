#pragma once

// Per-kernel batch loops for the batched phase hot path.
//
// Each kernel's `compute_phase` batch loop lives here in two tiers —
// scalar and AVX-512 — behind one dispatch function. The tier is not a
// knob: the dispatchers run the AVX-512 loops when CPUID reports AVX-512F
// (support::host_cpu_features()) and the scalar loops otherwise. Both
// tiers are bit-identical to the per-edge reference path
// (test_batch_equivalence is the acceptance bar). The AVX-512 tier gets
// that by construction: gathers and the flux arithmetic run in vector
// lanes (IEEE-exact per lane, no FMA contraction — this file is built
// with -ffp-contract=off), while the scatter accumulation into reduction
// arrays is always scalar and j-ascending, because accumulation *order*
// is the contract.

#include <cstddef>
#include <cstdint>

#include "mesh/mesh.hpp"

namespace earthred::kernels::ops {

/// fig1: x[ia1[j]] += y[eg[j]]*c; x[ia2[j]] += y[eg[j]]*c.
struct Fig1Args {
  const std::uint32_t* ia1 = nullptr;
  const std::uint32_t* ia2 = nullptr;
  const std::uint32_t* eg = nullptr;
  const double* y = nullptr;
  double c = 0.0;
  double* x = nullptr;
  std::size_t n = 0;
};

/// euler: edge flux from gathered vel/pre, equal-and-opposite scatter.
struct EulerArgs {
  const std::uint32_t* ia1 = nullptr;
  const std::uint32_t* ia2 = nullptr;
  const std::uint32_t* eg = nullptr;
  const mesh::Edge* edges = nullptr;
  const double* coef = nullptr;
  const double* vel = nullptr;
  const double* pre = nullptr;
  double* dvel = nullptr;
  double* dpre = nullptr;
  std::size_t n = 0;
};

/// moldyn: clamped Lennard-Jones force from gathered positions.
struct MoldynArgs {
  const std::uint32_t* ia1 = nullptr;
  const std::uint32_t* ia2 = nullptr;
  const std::uint32_t* eg = nullptr;
  const mesh::Edge* edges = nullptr;
  const double* px = nullptr;
  const double* py = nullptr;
  const double* pz = nullptr;
  double* fx = nullptr;
  double* fy = nullptr;
  double* fz = nullptr;
  std::size_t n = 0;
};

/// spmv_t: y[ia[j]] += val[eg[j]] * x[row[eg[j]]].
struct SpmvTArgs {
  const std::uint32_t* ia = nullptr;
  const std::uint32_t* eg = nullptr;
  const std::uint32_t* row = nullptr;
  const double* val = nullptr;
  const double* x = nullptr;
  double* y = nullptr;
  std::size_t n = 0;
};

void fig1_phase(const Fig1Args& a);
void euler_phase(const EulerArgs& a);
void moldyn_phase(const MoldynArgs& a);
void spmv_t_phase(const SpmvTArgs& a);

/// The tier the dispatchers above run on this host right now: "avx512"
/// or "scalar" (what `earthred version` prints).
const char* batch_tier();

}  // namespace earthred::kernels::ops
