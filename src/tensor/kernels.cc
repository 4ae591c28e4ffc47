#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define DTREC_KERNEL_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define DTREC_KERNEL_SSE2 1
#endif

#if defined(__GNUC__) || defined(__clang__)
#define DTREC_RESTRICT __restrict__
#define DTREC_PREFETCH_FOR_WRITE(p) __builtin_prefetch((p), 1)
#else
#define DTREC_RESTRICT
#define DTREC_PREFETCH_FOR_WRITE(p) ((void)(p))
#endif

namespace dtrec::kernels {
namespace {

inline size_t RoundUp(size_t x, size_t to) { return (x + to - 1) / to * to; }

/// Packs the ragged last strip of an A block (mr < kMr rows, kc columns)
/// into one zero-padded kMr-row micro-panel: kc columns of kMr contiguous
/// row entries, which the micro-kernel reads through strides (1, kMr).
/// Element (r, p) of the strip is read at a[r*rs + p*cs], so the same
/// routine packs A (rs=lda, cs=1) and Aᵀ (rs=1, cs=lda). Full strips are
/// read in place; only this one would run past row m.
void PackARaggedStrip(size_t mr, size_t kc, const double* a, size_t rs,
                      size_t cs, double* pack) {
  for (size_t p = 0; p < kc; ++p) {
    for (size_t r = 0; r < mr; ++r) pack[p * kMr + r] = a[r * rs + p * cs];
    for (size_t r = mr; r < kMr; ++r) pack[p * kMr + r] = 0.0;
  }
}

/// Packs a kc×nc block of B into kNr-column micro-panels (element (p, j)
/// read at b[p*rs + j*cs]; rs=1, cs=ldb packs Bᵀ).
void PackB(size_t kc, size_t nc, const double* b, size_t rs, size_t cs,
           double* pack) {
  for (size_t jr = 0; jr < nc; jr += kNr) {
    const size_t nr = std::min(kNr, nc - jr);
    double* dst = pack + jr * kc;
    for (size_t p = 0; p < kc; ++p) {
      for (size_t j = 0; j < nr; ++j) dst[p * kNr + j] = b[p * rs + (jr + j) * cs];
      for (size_t j = nr; j < kNr; ++j) dst[p * kNr + j] = 0.0;
    }
  }
}

/// Writes the mr×nr corner of a spilled kMr×kNr tile into C: 0.0 + t on
/// the first kKc block, C + t on later ones.
inline void StoreTile(const double* tile, size_t mr, size_t nr, bool first,
                      double* c, size_t ldc) {
  for (size_t r = 0; r < mr; ++r) {
    double* crow = c + r * ldc;
    for (size_t j = 0; j < nr; ++j) {
      crow[j] = (first ? 0.0 : crow[j]) + tile[r * kNr + j];
    }
  }
}

/// kMr×kNr micro-kernel over one kKc block: rank-1 updates from an A strip
/// and one packed B strip into accumulators that start at +0, which then
/// land in the mr×nr tile of C as 0.0 + acc on the first block (`first`)
/// and C + acc on later ones. Element (r, p) of the A strip is read at
/// a[r*rs + p*cs]: A in place is (lda, 1), Aᵀ in place (1, lda), a packed
/// strip (1, kMr). A full tile goes to C straight from the registers; an
/// edge tile (mr < kMr or nr < kNr) is spilled to StoreTile. Three
/// implementations selected at compile time: AVX2+FMA when the build
/// enables those ISA flags, plain SSE2 on any x86-64 (part of the base
/// ABI, so the default -O2 build gets vector code without -march), scalar
/// otherwise.
#if defined(DTREC_KERNEL_AVX2)

/// One tile row of C ← (first ? 0.0 : C) + its two accumulators.
inline void PutRow(double* crow, bool first, __m256d lo, __m256d hi) {
  const __m256d c0 = first ? _mm256_setzero_pd() : _mm256_loadu_pd(crow);
  const __m256d c1 = first ? _mm256_setzero_pd() : _mm256_loadu_pd(crow + 4);
  _mm256_storeu_pd(crow, _mm256_add_pd(c0, lo));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(c1, hi));
}

inline void MicroKernel(size_t kc, const double* DTREC_RESTRICT a, size_t rs,
                        size_t cs, const double* DTREC_RESTRICT pb, bool first,
                        double* DTREC_RESTRICT c, size_t ldc, size_t mr,
                        size_t nr) {
  static_assert(kMr == 4 && kNr == 8, "micro-kernel is tiled for 4x8");
  // 4 rows × (2 × 4-double ymm) accumulators = 8 registers, plus 2 for
  // the B row and 1 broadcast — comfortably inside the 16-ymm budget.
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  const double* a0 = a;
  const double* a1 = a0 + rs;
  const double* a2 = a1 + rs;
  const double* a3 = a2 + rs;
  for (size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(pb + p * kNr);
    const __m256d b1 = _mm256_loadu_pd(pb + p * kNr + 4);
    const size_t off = p * cs;
    __m256d av = _mm256_broadcast_sd(a0 + off);
    c00 = _mm256_fmadd_pd(av, b0, c00);
    c01 = _mm256_fmadd_pd(av, b1, c01);
    av = _mm256_broadcast_sd(a1 + off);
    c10 = _mm256_fmadd_pd(av, b0, c10);
    c11 = _mm256_fmadd_pd(av, b1, c11);
    av = _mm256_broadcast_sd(a2 + off);
    c20 = _mm256_fmadd_pd(av, b0, c20);
    c21 = _mm256_fmadd_pd(av, b1, c21);
    av = _mm256_broadcast_sd(a3 + off);
    c30 = _mm256_fmadd_pd(av, b0, c30);
    c31 = _mm256_fmadd_pd(av, b1, c31);
  }
  if (mr == kMr && nr == kNr) {
    PutRow(c, first, c00, c01);
    PutRow(c + ldc, first, c10, c11);
    PutRow(c + 2 * ldc, first, c20, c21);
    PutRow(c + 3 * ldc, first, c30, c31);
    return;
  }
  double tile[kMr * kNr];
  _mm256_storeu_pd(tile + 0 * kNr, c00);
  _mm256_storeu_pd(tile + 0 * kNr + 4, c01);
  _mm256_storeu_pd(tile + 1 * kNr, c10);
  _mm256_storeu_pd(tile + 1 * kNr + 4, c11);
  _mm256_storeu_pd(tile + 2 * kNr, c20);
  _mm256_storeu_pd(tile + 2 * kNr + 4, c21);
  _mm256_storeu_pd(tile + 3 * kNr, c30);
  _mm256_storeu_pd(tile + 3 * kNr + 4, c31);
  StoreTile(tile, mr, nr, first, c, ldc);
}

#elif defined(DTREC_KERNEL_SSE2)

/// Two entries of C ← (first ? 0.0 : C) + an accumulator pair.
inline void PutPair(double* cp, bool first, __m128d acc) {
  const __m128d base = first ? _mm_setzero_pd() : _mm_loadu_pd(cp);
  _mm_storeu_pd(cp, _mm_add_pd(base, acc));
}

inline void MicroKernel(size_t kc, const double* DTREC_RESTRICT a, size_t rs,
                        size_t cs, const double* DTREC_RESTRICT pb, bool first,
                        double* DTREC_RESTRICT c, size_t ldc, size_t mr,
                        size_t nr) {
  static_assert(kMr == 4 && kNr == 8, "micro-kernel is tiled for 4x8");
  const bool full = mr == kMr && nr == kNr;
  double tile[kMr * kNr];
  const double* a0 = a;
  const double* a1 = a0 + rs;
  const double* a2 = a1 + rs;
  const double* a3 = a2 + rs;
  // The 4×8 tile is processed as two independent 4×4 half-tiles so each
  // pass needs 8 accumulator xmm registers + 2 B registers + 1 broadcast,
  // fitting the 16-xmm budget without spills (a single 4×8 pass would
  // need 16 accumulators alone).
  for (size_t half = 0; half < kNr; half += 4) {
    const double* b = pb + half;
    __m128d c00 = _mm_setzero_pd(), c01 = _mm_setzero_pd();
    __m128d c10 = _mm_setzero_pd(), c11 = _mm_setzero_pd();
    __m128d c20 = _mm_setzero_pd(), c21 = _mm_setzero_pd();
    __m128d c30 = _mm_setzero_pd(), c31 = _mm_setzero_pd();
    for (size_t p = 0; p < kc; ++p) {
      const __m128d b0 = _mm_loadu_pd(b + p * kNr);
      const __m128d b1 = _mm_loadu_pd(b + p * kNr + 2);
      const size_t off = p * cs;
      __m128d av = _mm_set1_pd(a0[off]);
      c00 = _mm_add_pd(c00, _mm_mul_pd(av, b0));
      c01 = _mm_add_pd(c01, _mm_mul_pd(av, b1));
      av = _mm_set1_pd(a1[off]);
      c10 = _mm_add_pd(c10, _mm_mul_pd(av, b0));
      c11 = _mm_add_pd(c11, _mm_mul_pd(av, b1));
      av = _mm_set1_pd(a2[off]);
      c20 = _mm_add_pd(c20, _mm_mul_pd(av, b0));
      c21 = _mm_add_pd(c21, _mm_mul_pd(av, b1));
      av = _mm_set1_pd(a3[off]);
      c30 = _mm_add_pd(c30, _mm_mul_pd(av, b0));
      c31 = _mm_add_pd(c31, _mm_mul_pd(av, b1));
    }
    if (full) {
      double* out = c + half;
      PutPair(out, first, c00);
      PutPair(out + 2, first, c01);
      PutPair(out + ldc, first, c10);
      PutPair(out + ldc + 2, first, c11);
      PutPair(out + 2 * ldc, first, c20);
      PutPair(out + 2 * ldc + 2, first, c21);
      PutPair(out + 3 * ldc, first, c30);
      PutPair(out + 3 * ldc + 2, first, c31);
    } else {
      double* out = tile + half;
      _mm_storeu_pd(out + 0 * kNr, c00);
      _mm_storeu_pd(out + 0 * kNr + 2, c01);
      _mm_storeu_pd(out + 1 * kNr, c10);
      _mm_storeu_pd(out + 1 * kNr + 2, c11);
      _mm_storeu_pd(out + 2 * kNr, c20);
      _mm_storeu_pd(out + 2 * kNr + 2, c21);
      _mm_storeu_pd(out + 3 * kNr, c30);
      _mm_storeu_pd(out + 3 * kNr + 2, c31);
    }
  }
  if (!full) StoreTile(tile, mr, nr, first, c, ldc);
}

#else  // portable scalar fallback

inline void MicroKernel(size_t kc, const double* DTREC_RESTRICT a, size_t rs,
                        size_t cs, const double* DTREC_RESTRICT pb, bool first,
                        double* DTREC_RESTRICT c, size_t ldc, size_t mr,
                        size_t nr) {
  double acc[kMr * kNr] = {0.0};
  for (size_t p = 0; p < kc; ++p) {
    const double* b = pb + p * kNr;
    for (size_t r = 0; r < kMr; ++r) {
      const double ar = a[r * rs + p * cs];
      double* accr = acc + r * kNr;
      for (size_t j = 0; j < kNr; ++j) accr[j] += ar * b[j];
    }
  }
  StoreTile(acc, mr, nr, first, c, ldc);
}

#endif

/// One multiply-add step in the kernels' arithmetic: fused under
/// AVX2+FMA, multiply-then-add otherwise. Spelled out because GCC
/// contracts a plain `acc + x*y` into an FMA wherever the ISA has one.
inline double MulAdd(double x, double y, double acc) {
#if defined(DTREC_KERNEL_AVX2)
  return std::fma(x, y, acc);
#else
  return acc + x * y;
#endif
}

/// Codes per pass of the int8 dot. One vpmaddwd step adds at most
/// 2·128² = 2^15 to an int32 lane, and a lane takes one step per 8 (SSE2)
/// or 16 (AVX2) codes, so over a block of 2^16 codes every lane, and the
/// sum of one row's lanes, stays below 2^30. Blocks are folded into a
/// double, which holds the running integer exactly.
constexpr size_t kQuantizedBlock = size_t{1} << 16;

/// Scalar int8 dot of one row over k ≤ kQuantizedBlock codes; the sum is
/// at most 2^30 in magnitude.
inline int32_t QuantizedDot1(size_t k, const int8_t* DTREC_RESTRICT a,
                             const int8_t* DTREC_RESTRICT b) {
  int32_t s = 0;
  for (size_t p = 0; p < k; ++p) {
    s += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  }
  return s;
}

/// The exact int8 dot of one row with b over any k, blocks folded into a
/// double from +0.
inline double QuantizedRowDot1(size_t k, const int8_t* DTREC_RESTRICT a,
                               const int8_t* DTREC_RESTRICT b) {
  double s = 0.0;
  for (size_t p = 0; p < k; p += kQuantizedBlock) {
    s += QuantizedDot1(std::min(kQuantizedBlock, k - p), a + p, b + p);
  }
  return s;
}

/// One row's bound from its dot, in the order QuantizedBoundMask
/// documents: the ragged rows, and every row of the scalar build.
inline double RowBound(double dot, double scale, double residual,
                       const double* bias, const QuantizedBoundTerms& t) {
  double bound = MulAdd(t.user_scale * scale, dot,
                        t.user_code_norm * residual) +
                 t.shared;
  if (bias != nullptr) bound += MulAdd(t.bias_slack, std::abs(*bias), *bias);
  return bound;
}

// QuantizedDot4 returns the int8 dots of four rows (stride lda) with b,
// over k ≤ kQuantizedBlock codes, as four int32 lanes. The SIMD variants
// share each widened b vector across the four rows and reduce the four
// accumulators in one horizontal pass; the sums are exact.
#if defined(DTREC_KERNEL_AVX2)

inline __m256i Widen16(const int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline __m128i QuantizedDot4(size_t k, const int8_t* DTREC_RESTRICT a,
                             size_t lda, const int8_t* DTREC_RESTRICT b) {
  const int8_t* a0 = a;
  const int8_t* a1 = a0 + lda;
  const int8_t* a2 = a1 + lda;
  const int8_t* a3 = a2 + lda;
  __m256i c0 = _mm256_setzero_si256(), c1 = _mm256_setzero_si256();
  __m256i c2 = _mm256_setzero_si256(), c3 = _mm256_setzero_si256();
  size_t p = 0;
  for (; p + 16 <= k; p += 16) {
    const __m256i bv = Widen16(b + p);
    c0 = _mm256_add_epi32(c0, _mm256_madd_epi16(Widen16(a0 + p), bv));
    c1 = _mm256_add_epi32(c1, _mm256_madd_epi16(Widen16(a1 + p), bv));
    c2 = _mm256_add_epi32(c2, _mm256_madd_epi16(Widen16(a2 + p), bv));
    c3 = _mm256_add_epi32(c3, _mm256_madd_epi16(Widen16(a3 + p), bv));
  }
  // [Σc0, Σc1, Σc2, Σc3] in each 128-bit half, then the halves added.
  const __m256i h = _mm256_hadd_epi32(_mm256_hadd_epi32(c0, c1),
                                      _mm256_hadd_epi32(c2, c3));
  __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(h),
                              _mm256_extracti128_si256(h, 1));
  if (p < k) {
    sum = _mm_add_epi32(
        sum, _mm_setr_epi32(QuantizedDot1(k - p, a0 + p, b + p),
                            QuantizedDot1(k - p, a1 + p, b + p),
                            QuantizedDot1(k - p, a2 + p, b + p),
                            QuantizedDot1(k - p, a3 + p, b + p)));
  }
  return sum;
}

#elif defined(DTREC_KERNEL_SSE2)

/// Sign-extends 8 int8 codes to int16 lanes: duplicate each byte into
/// both halves of a word, then arithmetic-shift the high copy down.
inline __m128i Widen8(const int8_t* p) {
  const __m128i v = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
}

inline __m128i QuantizedDot4(size_t k, const int8_t* DTREC_RESTRICT a,
                             size_t lda, const int8_t* DTREC_RESTRICT b) {
  const int8_t* a0 = a;
  const int8_t* a1 = a0 + lda;
  const int8_t* a2 = a1 + lda;
  const int8_t* a3 = a2 + lda;
  __m128i c0 = _mm_setzero_si128(), c1 = _mm_setzero_si128();
  __m128i c2 = _mm_setzero_si128(), c3 = _mm_setzero_si128();
  size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const __m128i bv = Widen8(b + p);
    c0 = _mm_add_epi32(c0, _mm_madd_epi16(Widen8(a0 + p), bv));
    c1 = _mm_add_epi32(c1, _mm_madd_epi16(Widen8(a1 + p), bv));
    c2 = _mm_add_epi32(c2, _mm_madd_epi16(Widen8(a2 + p), bv));
    c3 = _mm_add_epi32(c3, _mm_madd_epi16(Widen8(a3 + p), bv));
  }
  // 4×4 transpose-add: lane r of `sum` is the sum of cr's four lanes.
  const __m128i t01 = _mm_add_epi32(_mm_unpacklo_epi32(c0, c1),
                                    _mm_unpackhi_epi32(c0, c1));
  const __m128i t23 = _mm_add_epi32(_mm_unpacklo_epi32(c2, c3),
                                    _mm_unpackhi_epi32(c2, c3));
  __m128i sum = _mm_add_epi32(_mm_unpacklo_epi64(t01, t23),
                              _mm_unpackhi_epi64(t01, t23));
  if (p < k) {
    sum = _mm_add_epi32(
        sum, _mm_setr_epi32(QuantizedDot1(k - p, a0 + p, b + p),
                            QuantizedDot1(k - p, a1 + p, b + p),
                            QuantizedDot1(k - p, a2 + p, b + p),
                            QuantizedDot1(k - p, a3 + p, b + p)));
  }
  return sum;
}

/// Bounds of two rows from their dots, written to out[0..2); returns
/// their two keep bits. The SSE2 build has no FMA, so MulAdd is the
/// rounded product plus the addend.
inline unsigned BoundPair(__m128d dot, const double* scales,
                          const double* residuals, const double* bias,
                          const QuantizedBoundTerms& t, __m128d root,
                          double* out) {
  const __m128d scale = _mm_mul_pd(_mm_set1_pd(t.user_scale),
                                   _mm_loadu_pd(scales));
  const __m128d residual = _mm_mul_pd(_mm_set1_pd(t.user_code_norm),
                                      _mm_loadu_pd(residuals));
  __m128d bound = _mm_add_pd(_mm_add_pd(residual, _mm_mul_pd(scale, dot)),
                             _mm_set1_pd(t.shared));
  if (bias != nullptr) {
    const __m128d bi = _mm_loadu_pd(bias);
    const __m128d abs_bi = _mm_andnot_pd(_mm_set1_pd(-0.0), bi);
    bound = _mm_add_pd(
        bound, _mm_add_pd(bi, _mm_mul_pd(_mm_set1_pd(t.bias_slack), abs_bi)));
  }
  _mm_storeu_pd(out, bound);
  // Not-less-than is true on unordered operands, so NaN keeps the row.
  return static_cast<unsigned>(_mm_movemask_pd(_mm_cmpnlt_pd(bound, root)));
}

#endif

/// Above this many kNr-column strips in op(B) (n > 64), C is too wide to
/// stay cached from one tile to the next, so each tile's rows are
/// prefetched for writing before the micro-kernel stores them.
constexpr size_t kWideStrips = 8;

/// Shared blocked core: C = op(A)·op(B) with the operand transposes
/// expressed as (row, col) strides. Per output, each kKc block is one
/// chain from +0, and the blocks land in C in order: 0.0 + chain for the
/// first, C + chain after it. So C's prior contents are never read as a
/// start value, and k = 0 writes the empty sum, +0. B is packed per
/// kKc×kNc panel; A is read in place, except for a ragged last strip of
/// each block, which is packed.
void GemmStrided(size_t m, size_t n, size_t k, const double* a, size_t ars,
                 size_t acs, const double* b, size_t brs, size_t bcs,
                 double* c, size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0);
    return;
  }
  const bool wide = n > kWideStrips * kNr;
  // Pack buffers are kept per thread and grow to the largest problem the
  // thread has seen (at most one kMr×kKc strip and one kKc×kNc panel,
  // just over 1 MB), so the many small matmuls of a training step
  // allocate nothing. Packing writes every entry it later reads, padding
  // included, so stale contents never leak into a product.
  thread_local std::vector<double> packa;
  thread_local std::vector<double> packb;
  const size_t packa_size = kMr * std::min(k, kKc);
  const size_t packb_size = RoundUp(std::min(n, kNc), kNr) * std::min(k, kKc);
  if (packa.size() < packa_size) packa.resize(packa_size);
  if (packb.size() < packb_size) packb.resize(packb_size);
  for (size_t jc = 0; jc < n; jc += kNc) {
    const size_t nc = std::min(kNc, n - jc);
    for (size_t pc = 0; pc < k; pc += kKc) {
      const size_t kc = std::min(kKc, k - pc);
      const bool first = pc == 0;
      PackB(kc, nc, b + pc * brs + jc * bcs, brs, bcs, packb.data());
      for (size_t ic = 0; ic < m; ic += kMc) {
        const size_t mc = std::min(kMc, m - ic);
        const double* ablock = a + ic * ars + pc * acs;
        // Rows [0, in_place) of the block are read where they lie, the
        // ragged rest from the packed strip.
        const size_t in_place = mc - mc % kMr;
        if (in_place < mc) {
          PackARaggedStrip(mc - in_place, kc, ablock + in_place * ars, ars,
                           acs, packa.data());
        }
        for (size_t jr = 0; jr < nc; jr += kNr) {
          const size_t nr = std::min(kNr, nc - jr);
          for (size_t ir = 0; ir < mc; ir += kMr) {
            const size_t mr = std::min(kMr, mc - ir);
            const bool packed = ir >= in_place;
            const double* astrip = packed ? packa.data() : ablock + ir * ars;
            double* ctile = c + (ic + ir) * ldc + jc + jr;
            // A wide C does not stay cached from tile to tile, and stores
            // that miss stall the kernel: ask for the tile's rows first.
            // (Inline, not in a helper: GCC drops calls to a function that
            // only prefetches, as if it had no effect.)
            if (wide) {
              for (size_t r = 0; r < mr; ++r) {
                DTREC_PREFETCH_FOR_WRITE(ctile + r * ldc);
                DTREC_PREFETCH_FOR_WRITE(ctile + r * ldc + nr - 1);
              }
            }
            MicroKernel(kc, astrip, packed ? 1 : ars, packed ? kMr : acs,
                        packb.data() + jr * kc, first, ctile, ldc, mr, nr);
          }
        }
      }
    }
  }
}

}  // namespace

void Gemm(size_t m, size_t n, size_t k, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc) {
  GemmStrided(m, n, k, a, lda, 1, b, ldb, 1, c, ldc);
}

void GemmTransA(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc) {
  GemmStrided(m, n, k, a, 1, lda, b, ldb, 1, c, ldc);
}

void GemmTransB(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc) {
  GemmStrided(m, n, k, a, lda, 1, b, 1, ldb, c, ldc);
}

void BatchedRowDot(size_t m, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* y) {
  // Four rows per pass share the b-row loads; four independent partial
  // sums per row break the add dependency chain so the k loop pipelines.
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + i * lda;
    const double* a1 = a0 + lda;
    const double* a2 = a1 + lda;
    const double* a3 = a2 + lda;
    const double* br = b + i * ldb;  // ldb == 0 broadcasts row 0
    const double* b0 = br;
    const double* b1 = br + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t p = 0; p < k; ++p) {
      s0 += a0[p] * b0[p];
      s1 += a1[p] * b1[p];
      s2 += a2[p] * b2[p];
      s3 += a3[p] * b3[p];
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < m; ++i) {
    const double* ar = a + i * lda;
    const double* br = b + i * ldb;
    double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
    size_t p = 0;
    for (; p + 4 <= k; p += 4) {
      t0 += ar[p] * br[p];
      t1 += ar[p + 1] * br[p + 1];
      t2 += ar[p + 2] * br[p + 2];
      t3 += ar[p + 3] * br[p + 3];
    }
    double s = (t0 + t1) + (t2 + t3);
    for (; p < k; ++p) s += ar[p] * br[p];
    y[i] = s;
  }
}

uint64_t QuantizedBoundMask(size_t m, size_t k, const int8_t* a, size_t lda,
                            const int8_t* b, const double* scales,
                            const double* residuals, const double* bias,
                            const QuantizedBoundTerms& terms, double root,
                            double* bounds) {
  uint64_t keep = 0;
  size_t i = 0;
#if defined(DTREC_KERNEL_AVX2)
  const __m256d user_scale = _mm256_set1_pd(terms.user_scale);
  const __m256d user_code_norm = _mm256_set1_pd(terms.user_code_norm);
  const __m256d shared = _mm256_set1_pd(terms.shared);
  const __m256d bias_slack = _mm256_set1_pd(terms.bias_slack);
  const __m256d rootv = _mm256_set1_pd(root);
  for (; i + 4 <= m; i += 4) {
    __m256d dot = _mm256_setzero_pd();
    for (size_t p = 0; p < k; p += kQuantizedBlock) {
      dot = _mm256_add_pd(
          dot, _mm256_cvtepi32_pd(QuantizedDot4(
                   std::min(kQuantizedBlock, k - p), a + i * lda + p, lda,
                   b + p)));
    }
    const __m256d scale =
        _mm256_mul_pd(user_scale, _mm256_loadu_pd(scales + i));
    const __m256d residual =
        _mm256_mul_pd(user_code_norm, _mm256_loadu_pd(residuals + i));
    __m256d bound =
        _mm256_add_pd(_mm256_fmadd_pd(scale, dot, residual), shared);
    if (bias != nullptr) {
      const __m256d bi = _mm256_loadu_pd(bias + i);
      const __m256d abs_bi = _mm256_andnot_pd(_mm256_set1_pd(-0.0), bi);
      bound = _mm256_add_pd(bound, _mm256_fmadd_pd(bias_slack, abs_bi, bi));
    }
    _mm256_storeu_pd(bounds + i, bound);
    // Not-less-than, unordered true: a NaN bound or root keeps the row.
    const __m256d reach = _mm256_cmp_pd(bound, rootv, _CMP_NLT_UQ);
    keep |= static_cast<uint64_t>(_mm256_movemask_pd(reach)) << i;
  }
#elif defined(DTREC_KERNEL_SSE2)
  const __m128d rootv = _mm_set1_pd(root);
  for (; i + 4 <= m; i += 4) {
    __m128d dot01 = _mm_setzero_pd(), dot23 = _mm_setzero_pd();
    for (size_t p = 0; p < k; p += kQuantizedBlock) {
      const __m128i sum = QuantizedDot4(std::min(kQuantizedBlock, k - p),
                                        a + i * lda + p, lda, b + p);
      dot01 = _mm_add_pd(dot01, _mm_cvtepi32_pd(sum));
      dot23 = _mm_add_pd(dot23, _mm_cvtepi32_pd(_mm_srli_si128(sum, 8)));
    }
    const double* bias01 = bias == nullptr ? nullptr : bias + i;
    const double* bias23 = bias == nullptr ? nullptr : bias + i + 2;
    const unsigned lo = BoundPair(dot01, scales + i, residuals + i, bias01,
                                  terms, rootv, bounds + i);
    const unsigned hi = BoundPair(dot23, scales + i + 2, residuals + i + 2,
                                  bias23, terms, rootv, bounds + i + 2);
    keep |= static_cast<uint64_t>(lo | hi << 2) << i;
  }
#endif
  for (; i < m; ++i) {
    bounds[i] = RowBound(QuantizedRowDot1(k, a + i * lda, b), scales[i],
                         residuals[i], bias == nullptr ? nullptr : bias + i,
                         terms);
    if (!(bounds[i] < root)) keep |= uint64_t{1} << i;
  }
  return keep;
}

namespace naive {
namespace {

/// C = op(A)·op(B), op(A)(i, p) at a[i*ars + p*acs] and op(B)(p, j) at
/// b[p*brs + j*bcs], in the blocked core's exact order: per output, one
/// MulAdd chain from +0 per kKc block, the chains added in block order to
/// a sum that starts at +0.
void GemmReference(size_t m, size_t n, size_t k, const double* a, size_t ars,
                   size_t acs, const double* b, size_t brs, size_t bcs,
                   double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (size_t pc = 0; pc < k; pc += kKc) {
        const size_t end = std::min(k, pc + kKc);
        double chain = 0.0;
        for (size_t p = pc; p < end; ++p) {
          chain = MulAdd(a[i * ars + p * acs], b[p * brs + j * bcs], chain);
        }
        sum += chain;
      }
      c[i * ldc + j] = sum;
    }
  }
}

}  // namespace

void Gemm(size_t m, size_t n, size_t k, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc) {
  GemmReference(m, n, k, a, lda, 1, b, ldb, 1, c, ldc);
}

void GemmTransA(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc) {
  GemmReference(m, n, k, a, 1, lda, b, ldb, 1, c, ldc);
}

void GemmTransB(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc) {
  GemmReference(m, n, k, a, lda, 1, b, 1, ldb, c, ldc);
}

void BatchedRowDot(size_t m, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* y) {
  for (size_t i = 0; i < m; ++i) {
    const double* ar = a + i * lda;
    const double* br = b + i * ldb;
    double s = 0.0;
    for (size_t p = 0; p < k; ++p) s += ar[p] * br[p];
    y[i] = s;
  }
}

void QuantizedRowDot(size_t m, size_t k, const int8_t* a, size_t lda,
                     const int8_t* b, double* y) {
  for (size_t i = 0; i < m; ++i) {
    const int8_t* ar = a + i * lda;
    int64_t s = 0;
    for (size_t p = 0; p < k; ++p) {
      s += static_cast<int64_t>(ar[p]) * static_cast<int64_t>(b[p]);
    }
    y[i] = static_cast<double>(s);
  }
}

uint64_t QuantizedBoundMask(size_t m, size_t k, const int8_t* a, size_t lda,
                            const int8_t* b, const double* scales,
                            const double* residuals, const double* bias,
                            const QuantizedBoundTerms& terms, double root,
                            double* bounds) {
  uint64_t keep = 0;
  for (size_t i = 0; i < m; ++i) {
    double dot;
    QuantizedRowDot(1, k, a + i * lda, lda, b, &dot);
    double bound = MulAdd(terms.user_scale * scales[i], dot,
                          terms.user_code_norm * residuals[i]) +
                   terms.shared;
    if (bias != nullptr) {
      bound += MulAdd(terms.bias_slack, std::abs(bias[i]), bias[i]);
    }
    bounds[i] = bound;
    if (!(bound < root)) keep |= uint64_t{1} << i;
  }
  return keep;
}

}  // namespace naive
}  // namespace dtrec::kernels
