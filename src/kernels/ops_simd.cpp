#include "kernels/ops_simd.hpp"

#include <algorithm>

#include "support/cpu_features.hpp"

// The AVX-512 tier needs per-function __attribute__((target(...))) and
// <immintrin.h>, i.e. an x86-64 GCC/Clang toolchain; elsewhere only the
// scalar loops are compiled.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ER_HAS_AVX512 1
#include <immintrin.h>
#define ER_TGT_AVX512 __attribute__((target("avx2,avx512f")))
#else
#define ER_HAS_AVX512 0
#endif

// NOTE: this translation unit is compiled with -ffp-contract=off (see
// src/kernels/CMakeLists.txt). The AVX-512 target enables scalar FMA
// forms, and a contracted mul+add would round once instead of twice —
// silently breaking the bit-identity contract in the scalar remainder
// loops below. With contraction off, both tiers perform exactly the
// written operations.

namespace earthred::kernels::ops {

namespace {

// ---------------------------------------------------------------------
// Per-edge arithmetic, shared by the scalar tier and the AVX-512 tier's
// remainder loops.
// ---------------------------------------------------------------------

inline void euler_flux(const EulerArgs& a, std::uint32_t e, double* vflux,
                       double* pflux) {
  const std::uint32_t n1 = a.edges[e].a;
  const std::uint32_t n2 = a.edges[e].b;
  const double c = a.coef[e];
  const double v1 = a.vel[n1];
  const double v2 = a.vel[n2];
  const double p1 = a.pre[n1];
  const double p2 = a.pre[n2];
  *vflux = c * (p1 - p2);
  *pflux = c * 0.5 * (v1 + v2) + 0.25 * c * (p1 - p2);
}

inline void moldyn_force(const MoldynArgs& a, std::uint32_t e, double* f0,
                         double* f1, double* f2) {
  const std::uint32_t m1 = a.edges[e].a;
  const std::uint32_t m2 = a.edges[e].b;
  const double d0 = a.px[m1] - a.px[m2];
  const double d1 = a.py[m1] - a.py[m2];
  const double d2 = a.pz[m1] - a.pz[m2];
  const double r2 = d0 * d0 + d1 * d1 + d2 * d2 + 0.25;
  const double inv2 = 1.0 / r2;
  const double inv6 = inv2 * inv2 * inv2;
  const double mag = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
  const double clamped = std::clamp(mag, -32.0, 32.0);
  *f0 = clamped * d0;
  *f1 = clamped * d1;
  *f2 = clamped * d2;
}

// ---------------------------------------------------------------------
// Scalar tier: fused per-edge loops that scatter through the
// ReductionView, selecting element or slot per access. Resolving each
// block's addresses first, as the AVX-512 tier does, measured slower
// here: without vector lanes the resolve is one more pass over the block
// and the select it replaces is a well-predicted branch.
// ---------------------------------------------------------------------

void fig1_scalar(const Fig1Args& a) {
  for (std::size_t j = 0; j < a.n; ++j) {
    const double contribution = a.y[a.eg[j]] * a.c;
    a.x[a.ia1[j]] += contribution;
    a.x[a.ia2[j]] += contribution;
  }
}

void euler_scalar(const EulerArgs& a) {
  for (std::size_t j = 0; j < a.n; ++j) {
    double vflux;
    double pflux;
    euler_flux(a, a.eg[j], &vflux, &pflux);
    a.dvel[a.ia1[j]] += vflux;
    a.dvel[a.ia2[j]] -= vflux;
    a.dpre[a.ia1[j]] += pflux;
    a.dpre[a.ia2[j]] -= pflux;
  }
}

void moldyn_scalar(const MoldynArgs& a) {
  for (std::size_t j = 0; j < a.n; ++j) {
    double f0;
    double f1;
    double f2;
    moldyn_force(a, a.eg[j], &f0, &f1, &f2);
    a.fx[a.ia1[j]] += f0;
    a.fx[a.ia2[j]] -= f0;
    a.fy[a.ia1[j]] += f1;
    a.fy[a.ia2[j]] -= f1;
    a.fz[a.ia1[j]] += f2;
    a.fz[a.ia2[j]] -= f2;
  }
}

void spmv_t_scalar(const SpmvTArgs& a) {
  for (std::size_t j = 0; j < a.n; ++j) {
    const std::uint32_t e = a.eg[j];
    a.y[a.ia[j]] += a.val[e] * a.x[a.row[e]];
  }
}

#if ER_HAS_AVX512

// Block size for the AVX-512 tier: contributions are staged per block in
// stack buffers, then scattered in order. Small enough to stay hot in L1
// (moldyn's three lanes: 6 KiB), large enough to amortize loop overhead.
constexpr std::size_t kBlock = 256;

// ---------------------------------------------------------------------
// Scatter-accumulation helpers. Accumulation order is the bit-identity
// contract, so these stay scalar and j-ascending; the AVX-512 tier
// vectorizes only the gather + arithmetic above them, and the
// ReductionView's element/slot select (resolve_block), so each scatter
// is one load-add-store through a precomputed address.
// ---------------------------------------------------------------------

inline void scatter_add(double* const* x, const double* c, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) *x[j] += c[j];
}

inline void scatter_add_both(double* const* x1, double* const* x2,
                             const double* c, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    *x1[j] += c[j];
    *x2[j] += c[j];
  }
}

inline void scatter_add_sub(double* const* x1, double* const* x2,
                            const double* c, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    *x1[j] += c[j];
    *x2[j] -= c[j];
  }
}

// ---------------------------------------------------------------------
// AVX-512 tier: 8 double lanes. Node/edge ids are uint32 and the
// repo-wide limits (max 20M nodes / 200M edges) keep them below 2^31, so
// signed i32 gather indices are safe. Note the (vindex, base) argument
// order of the 512-bit gathers.
// ---------------------------------------------------------------------

ER_TGT_AVX512 inline __m256i load_idx8(const std::uint32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// Gathers edges[e].a / edges[e].b for 8 edges: the Edge struct is two
// packed uint32s, so each endpoint is a 32-bit gather with byte stride 8.
ER_TGT_AVX512 inline __m256i gather_edge_a8(const mesh::Edge* edges,
                                            __m256i e) {
  return _mm256_i32gather_epi32(
      reinterpret_cast<const int*>(&edges[0].a), e, 8);
}

ER_TGT_AVX512 inline __m256i gather_edge_b8(const mesh::Edge* edges,
                                            __m256i e) {
  return _mm256_i32gather_epi32(
      reinterpret_cast<const int*>(&edges[0].b), e, 8);
}

// Addresses of x[ia[j]] for one block. The select between the element
// array and the buffer slots runs in vector lanes: a slot id i >= n maps
// to slot + (i - n), i.e. to (slot - n) + i, computed in integers.
ER_TGT_AVX512 void resolve_block(core::ReductionView x,
                                 const std::uint32_t* ia, std::size_t n,
                                 double** out) {
  const auto elem = reinterpret_cast<std::int64_t>(x.elem);
  const auto slot = reinterpret_cast<std::int64_t>(x.slot) -
                    static_cast<std::int64_t>(x.num_elements) *
                        static_cast<std::int64_t>(sizeof(double));
  const __m512i split = _mm512_set1_epi64(x.num_elements);
  const __m512i ebase = _mm512_set1_epi64(elem);
  const __m512i sbase = _mm512_set1_epi64(slot);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i i = _mm512_cvtepu32_epi64(load_idx8(ia + j));
    const __m512i base = _mm512_mask_blend_epi64(
        _mm512_cmpge_epu64_mask(i, split), ebase, sbase);
    _mm512_storeu_si512(out + j,
                        _mm512_add_epi64(base, _mm512_slli_epi64(i, 3)));
  }
  for (; j < n; ++j) out[j] = &x[ia[j]];
}

ER_TGT_AVX512 void fig1_avx512(const Fig1Args& a) {
  double contrib[kBlock];
  double* x1[kBlock];
  double* x2[kBlock];
  const __m512d vc = _mm512_set1_pd(a.c);
  for (std::size_t base = 0; base < a.n; base += kBlock) {
    const std::size_t n = std::min(kBlock, a.n - base);
    const std::uint32_t* eg = a.eg + base;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256i e = load_idx8(eg + j);
      const __m512d y = _mm512_i32gather_pd(e, a.y, 8);
      _mm512_storeu_pd(contrib + j, _mm512_mul_pd(y, vc));
    }
    for (; j < n; ++j) contrib[j] = a.y[eg[j]] * a.c;
    resolve_block(a.x, a.ia1 + base, n, x1);
    resolve_block(a.x, a.ia2 + base, n, x2);
    scatter_add_both(x1, x2, contrib, n);
  }
}

ER_TGT_AVX512 void euler_avx512(const EulerArgs& a) {
  double vbuf[kBlock];
  double pbuf[kBlock];
  double* x1[kBlock];
  double* x2[kBlock];
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d quarter = _mm512_set1_pd(0.25);
  for (std::size_t base = 0; base < a.n; base += kBlock) {
    const std::size_t n = std::min(kBlock, a.n - base);
    const std::uint32_t* eg = a.eg + base;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256i e = load_idx8(eg + j);
      const __m256i n1 = gather_edge_a8(a.edges, e);
      const __m256i n2 = gather_edge_b8(a.edges, e);
      const __m512d c = _mm512_i32gather_pd(e, a.coef, 8);
      const __m512d v1 = _mm512_i32gather_pd(n1, a.vel, 8);
      const __m512d v2 = _mm512_i32gather_pd(n2, a.vel, 8);
      const __m512d p1 = _mm512_i32gather_pd(n1, a.pre, 8);
      const __m512d p2 = _mm512_i32gather_pd(n2, a.pre, 8);
      const __m512d pdiff = _mm512_sub_pd(p1, p2);
      const __m512d vflux = _mm512_mul_pd(c, pdiff);
      // pflux = ((c*0.5)*(v1+v2)) + ((0.25*c)*(p1-p2)), matching the
      // scalar expression's association exactly.
      const __m512d pflux = _mm512_add_pd(
          _mm512_mul_pd(_mm512_mul_pd(c, half), _mm512_add_pd(v1, v2)),
          _mm512_mul_pd(_mm512_mul_pd(quarter, c), pdiff));
      _mm512_storeu_pd(vbuf + j, vflux);
      _mm512_storeu_pd(pbuf + j, pflux);
    }
    for (; j < n; ++j) euler_flux(a, eg[j], vbuf + j, pbuf + j);
    resolve_block(a.dvel, a.ia1 + base, n, x1);
    resolve_block(a.dvel, a.ia2 + base, n, x2);
    scatter_add_sub(x1, x2, vbuf, n);
    resolve_block(a.dpre, a.ia1 + base, n, x1);
    resolve_block(a.dpre, a.ia2 + base, n, x2);
    scatter_add_sub(x1, x2, pbuf, n);
  }
}

ER_TGT_AVX512 void moldyn_avx512(const MoldynArgs& a) {
  double f0buf[kBlock];
  double f1buf[kBlock];
  double f2buf[kBlock];
  double* x1[kBlock];
  double* x2[kBlock];
  const __m512d vq = _mm512_set1_pd(0.25);
  const __m512d v1 = _mm512_set1_pd(1.0);
  const __m512d v2 = _mm512_set1_pd(2.0);
  const __m512d v24 = _mm512_set1_pd(24.0);
  const __m512d lo = _mm512_set1_pd(-32.0);
  const __m512d hi = _mm512_set1_pd(32.0);
  for (std::size_t base = 0; base < a.n; base += kBlock) {
    const std::size_t n = std::min(kBlock, a.n - base);
    const std::uint32_t* eg = a.eg + base;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256i e = load_idx8(eg + j);
      const __m256i m1 = gather_edge_a8(a.edges, e);
      const __m256i m2 = gather_edge_b8(a.edges, e);
      const __m512d d0 = _mm512_sub_pd(_mm512_i32gather_pd(m1, a.px, 8),
                                       _mm512_i32gather_pd(m2, a.px, 8));
      const __m512d d1 = _mm512_sub_pd(_mm512_i32gather_pd(m1, a.py, 8),
                                       _mm512_i32gather_pd(m2, a.py, 8));
      const __m512d d2 = _mm512_sub_pd(_mm512_i32gather_pd(m1, a.pz, 8),
                                       _mm512_i32gather_pd(m2, a.pz, 8));
      // r2 = ((d0*d0 + d1*d1) + d2*d2) + 0.25, left-associated like the
      // scalar source.
      const __m512d r2 = _mm512_add_pd(
          _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(d0, d0),
                                      _mm512_mul_pd(d1, d1)),
                        _mm512_mul_pd(d2, d2)),
          vq);
      const __m512d inv2 = _mm512_div_pd(v1, r2);
      const __m512d inv6 =
          _mm512_mul_pd(_mm512_mul_pd(inv2, inv2), inv2);
      const __m512d mag = _mm512_mul_pd(
          _mm512_mul_pd(_mm512_mul_pd(v24, inv2), inv6),
          _mm512_sub_pd(_mm512_mul_pd(v2, inv6), v1));
      // mag is never NaN (r2 >= 0.25), so min/max match std::clamp.
      const __m512d clamped =
          _mm512_min_pd(_mm512_max_pd(mag, lo), hi);
      _mm512_storeu_pd(f0buf + j, _mm512_mul_pd(clamped, d0));
      _mm512_storeu_pd(f1buf + j, _mm512_mul_pd(clamped, d1));
      _mm512_storeu_pd(f2buf + j, _mm512_mul_pd(clamped, d2));
    }
    for (; j < n; ++j)
      moldyn_force(a, eg[j], f0buf + j, f1buf + j, f2buf + j);
    const core::ReductionView* views[3] = {&a.fx, &a.fy, &a.fz};
    const double* bufs[3] = {f0buf, f1buf, f2buf};
    for (int d = 0; d < 3; ++d) {
      resolve_block(*views[d], a.ia1 + base, n, x1);
      resolve_block(*views[d], a.ia2 + base, n, x2);
      scatter_add_sub(x1, x2, bufs[d], n);
    }
  }
}

ER_TGT_AVX512 void spmv_t_avx512(const SpmvTArgs& a) {
  double prod[kBlock];
  double* y[kBlock];
  for (std::size_t base = 0; base < a.n; base += kBlock) {
    const std::size_t n = std::min(kBlock, a.n - base);
    const std::uint32_t* eg = a.eg + base;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256i e = load_idx8(eg + j);
      const __m256i r = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(a.row), e, 4);
      const __m512d v = _mm512_i32gather_pd(e, a.val, 8);
      const __m512d x = _mm512_i32gather_pd(r, a.x, 8);
      _mm512_storeu_pd(prod + j, _mm512_mul_pd(v, x));
    }
    for (; j < n; ++j) {
      const std::uint32_t e = eg[j];
      prod[j] = a.val[e] * a.x[a.row[e]];
    }
    resolve_block(a.y, a.ia + base, n, y);
    scatter_add(y, prod, n);
  }
}

#endif  // ER_HAS_AVX512

// Dispatch: the AVX-512 loops when the host reports AVX-512F, the scalar
// loops otherwise. The cached feature probe is read on every call (one
// load and a branch per phase), so a test override through
// support::set_cpu_features_for_test takes effect immediately.
bool use_avx512() {
#if ER_HAS_AVX512
  return support::host_cpu_features().avx512f;
#else
  return false;
#endif
}

}  // namespace

void fig1_phase(const Fig1Args& a) {
#if ER_HAS_AVX512
  if (use_avx512()) return fig1_avx512(a);
#endif
  fig1_scalar(a);
}

void euler_phase(const EulerArgs& a) {
#if ER_HAS_AVX512
  if (use_avx512()) return euler_avx512(a);
#endif
  euler_scalar(a);
}

void moldyn_phase(const MoldynArgs& a) {
#if ER_HAS_AVX512
  if (use_avx512()) return moldyn_avx512(a);
#endif
  moldyn_scalar(a);
}

void spmv_t_phase(const SpmvTArgs& a) {
#if ER_HAS_AVX512
  if (use_avx512()) return spmv_t_avx512(a);
#endif
  spmv_t_scalar(a);
}

const char* batch_tier() { return use_avx512() ? "avx512" : "scalar"; }

}  // namespace earthred::kernels::ops
