#include "tensor/kernels.h"

#include <algorithm>
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
#else
#define DTREC_RESTRICT
#endif

namespace dtrec::kernels {
namespace {

inline size_t RoundUp(size_t x, size_t to) { return (x + to - 1) / to * to; }

/// Packs an mc×kc block of A into kMr-row micro-panels, zero-padding the
/// ragged last strip. Element (i, p) of the logical block is read at
/// a[i*rs + p*cs], so the same routine packs A (rs=lda, cs=1) and Aᵀ
/// (rs=1, cs=lda). Panel layout: strip ir holds kc columns of kMr
/// contiguous row entries each — exactly the order the micro-kernel
/// consumes, one sequential read per iteration.
void PackA(size_t mc, size_t kc, const double* a, size_t rs, size_t cs,
           double* pack) {
  for (size_t ir = 0; ir < mc; ir += kMr) {
    const size_t mr = std::min(kMr, mc - ir);
    double* dst = pack + ir * kc;
    for (size_t p = 0; p < kc; ++p) {
      for (size_t r = 0; r < mr; ++r) dst[p * kMr + r] = a[(ir + r) * rs + p * cs];
      for (size_t r = mr; r < kMr; ++r) dst[p * kMr + r] = 0.0;
    }
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

/// kMr×kNr micro-kernel: rank-1 updates from one packed A strip and one
/// packed B strip. `acc` must be zero-initialized by the caller; the
/// kernel fills it with the kMr×kNr product tile. Three implementations
/// selected at compile time: AVX2+FMA when the build enables those ISA
/// flags, plain SSE2 on any x86-64 (part of the base ABI, so the default
/// -O2 build gets vector code without -march), scalar otherwise.
#if defined(DTREC_KERNEL_AVX2)

inline void MicroKernel(size_t kc, const double* DTREC_RESTRICT pa,
                        const double* DTREC_RESTRICT pb,
                        double* DTREC_RESTRICT acc) {
  static_assert(kMr == 4 && kNr == 8, "micro-kernel is tiled for 4x8");
  // 4 rows × (2 × 4-double ymm) accumulators = 8 registers, plus 2 for
  // the B row and 1 broadcast — comfortably inside the 16-ymm budget.
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(pb + p * kNr);
    const __m256d b1 = _mm256_loadu_pd(pb + p * kNr + 4);
    const double* ap = pa + p * kMr;
    __m256d a = _mm256_broadcast_sd(ap);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(ap + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(ap + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(ap + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
  }
  _mm256_storeu_pd(acc + 0 * kNr, c00);
  _mm256_storeu_pd(acc + 0 * kNr + 4, c01);
  _mm256_storeu_pd(acc + 1 * kNr, c10);
  _mm256_storeu_pd(acc + 1 * kNr + 4, c11);
  _mm256_storeu_pd(acc + 2 * kNr, c20);
  _mm256_storeu_pd(acc + 2 * kNr + 4, c21);
  _mm256_storeu_pd(acc + 3 * kNr, c30);
  _mm256_storeu_pd(acc + 3 * kNr + 4, c31);
}

#elif defined(DTREC_KERNEL_SSE2)

inline void MicroKernel(size_t kc, const double* DTREC_RESTRICT pa,
                        const double* DTREC_RESTRICT pb,
                        double* DTREC_RESTRICT acc) {
  static_assert(kMr == 4 && kNr == 8, "micro-kernel is tiled for 4x8");
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
      const double* ap = pa + p * kMr;
      __m128d a = _mm_set1_pd(ap[0]);
      c00 = _mm_add_pd(c00, _mm_mul_pd(a, b0));
      c01 = _mm_add_pd(c01, _mm_mul_pd(a, b1));
      a = _mm_set1_pd(ap[1]);
      c10 = _mm_add_pd(c10, _mm_mul_pd(a, b0));
      c11 = _mm_add_pd(c11, _mm_mul_pd(a, b1));
      a = _mm_set1_pd(ap[2]);
      c20 = _mm_add_pd(c20, _mm_mul_pd(a, b0));
      c21 = _mm_add_pd(c21, _mm_mul_pd(a, b1));
      a = _mm_set1_pd(ap[3]);
      c30 = _mm_add_pd(c30, _mm_mul_pd(a, b0));
      c31 = _mm_add_pd(c31, _mm_mul_pd(a, b1));
    }
    double* out = acc + half;
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

#else  // portable scalar fallback

inline void MicroKernel(size_t kc, const double* DTREC_RESTRICT pa,
                        const double* DTREC_RESTRICT pb,
                        double* DTREC_RESTRICT acc) {
  for (size_t p = 0; p < kc; ++p) {
    const double* a = pa + p * kMr;
    const double* b = pb + p * kNr;
    for (size_t r = 0; r < kMr; ++r) {
      const double ar = a[r];
      double* accr = acc + r * kNr;
      for (size_t j = 0; j < kNr; ++j) accr[j] += ar * b[j];
    }
  }
}

#endif

/// Codes per pass of the int8 row-dot. One vpmaddwd step adds at most
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

// QuantizedDot4 adds the int8 dots of four rows (stride lda) with b, over
// k ≤ kQuantizedBlock codes, to y[0..4). The SIMD variants share each
// widened b vector across the four rows and reduce the four accumulators
// in one horizontal pass. All three return the exact integer sums.
#if defined(DTREC_KERNEL_AVX2)

inline __m256i Widen16(const int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline void QuantizedDot4(size_t k, const int8_t* DTREC_RESTRICT a,
                          size_t lda, const int8_t* DTREC_RESTRICT b,
                          double* DTREC_RESTRICT y) {
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
  _mm256_storeu_pd(y, _mm256_add_pd(_mm256_loadu_pd(y),
                                    _mm256_cvtepi32_pd(sum)));
}

#elif defined(DTREC_KERNEL_SSE2)

/// Sign-extends 8 int8 codes to int16 lanes: duplicate each byte into
/// both halves of a word, then arithmetic-shift the high copy down.
inline __m128i Widen8(const int8_t* p) {
  const __m128i v = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
}

inline void QuantizedDot4(size_t k, const int8_t* DTREC_RESTRICT a,
                          size_t lda, const int8_t* DTREC_RESTRICT b,
                          double* DTREC_RESTRICT y) {
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
  _mm_storeu_pd(y, _mm_add_pd(_mm_loadu_pd(y), _mm_cvtepi32_pd(sum)));
  _mm_storeu_pd(y + 2, _mm_add_pd(_mm_loadu_pd(y + 2),
                                  _mm_cvtepi32_pd(_mm_srli_si128(sum, 8))));
}

#else  // portable scalar fallback

inline void QuantizedDot4(size_t k, const int8_t* DTREC_RESTRICT a,
                          size_t lda, const int8_t* DTREC_RESTRICT b,
                          double* DTREC_RESTRICT y) {
  for (size_t r = 0; r < 4; ++r) y[r] += QuantizedDot1(k, a + r * lda, b);
}

#endif

/// Shared blocked core: C += op(A)·op(B) with the operand transposes
/// expressed as (row, col) strides for the packing routines.
void GemmStrided(size_t m, size_t n, size_t k, const double* a, size_t ars,
                 size_t acs, const double* b, size_t brs, size_t bcs,
                 double* c, size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  // Pack buffers are kept per thread and grow to the largest problem the
  // thread has seen (at most one full kMc×kKc + kKc×kNc panel pair, 1.2 MB),
  // so the many small matmuls of a training step allocate nothing. Packing
  // writes every entry it later reads, padding included, so stale contents
  // never leak into a product.
  thread_local std::vector<double> packa;
  thread_local std::vector<double> packb;
  const size_t packa_size = RoundUp(std::min(m, kMc), kMr) * std::min(k, kKc);
  const size_t packb_size = RoundUp(std::min(n, kNc), kNr) * std::min(k, kKc);
  if (packa.size() < packa_size) packa.resize(packa_size);
  if (packb.size() < packb_size) packb.resize(packb_size);
  for (size_t jc = 0; jc < n; jc += kNc) {
    const size_t nc = std::min(kNc, n - jc);
    for (size_t pc = 0; pc < k; pc += kKc) {
      const size_t kc = std::min(kKc, k - pc);
      PackB(kc, nc, b + pc * brs + jc * bcs, brs, bcs, packb.data());
      for (size_t ic = 0; ic < m; ic += kMc) {
        const size_t mc = std::min(kMc, m - ic);
        PackA(mc, kc, a + ic * ars + pc * acs, ars, acs, packa.data());
        for (size_t jr = 0; jr < nc; jr += kNr) {
          const size_t nr = std::min(kNr, nc - jr);
          for (size_t ir = 0; ir < mc; ir += kMr) {
            const size_t mr = std::min(kMr, mc - ir);
            double acc[kMr * kNr] = {0.0};
            MicroKernel(kc, packa.data() + ir * kc, packb.data() + jr * kc,
                        acc);
            double* ctile = c + (ic + ir) * ldc + jc + jr;
            for (size_t r = 0; r < mr; ++r) {
              for (size_t j = 0; j < nr; ++j) {
                ctile[r * ldc + j] += acc[r * kNr + j];
              }
            }
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

void QuantizedRowDot(size_t m, size_t k, const int8_t* a, size_t lda,
                     const int8_t* b, double* y) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    double* yi = y + i;
    yi[0] = yi[1] = yi[2] = yi[3] = 0.0;
    for (size_t p = 0; p < k; p += kQuantizedBlock) {
      QuantizedDot4(std::min(kQuantizedBlock, k - p), a + i * lda + p, lda,
                    b + p, yi);
    }
  }
  for (; i < m; ++i) {
    double s = 0.0;
    for (size_t p = 0; p < k; p += kQuantizedBlock) {
      s += QuantizedDot1(std::min(kQuantizedBlock, k - p), a + i * lda + p,
                         b + p);
    }
    y[i] = s;
  }
}

namespace naive {

void Gemm(size_t m, size_t n, size_t k, const double* a, size_t lda,
          const double* b, size_t ldb, double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    for (size_t p = 0; p < k; ++p) {
      const double aip = arow[p];
      const double* brow = b + p * ldb;
      for (size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

void GemmTransA(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc) {
  for (size_t p = 0; p < k; ++p) {
    const double* arow = a + p * lda;
    const double* brow = b + p * ldb;
    for (size_t i = 0; i < m; ++i) {
      const double api = arow[i];
      double* crow = c + i * ldc;
      for (size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

void GemmTransB(size_t m, size_t n, size_t k, const double* a, size_t lda,
                const double* b, size_t ldb, double* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      const double* brow = b + j * ldb;
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] += s;
    }
  }
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

}  // namespace naive
}  // namespace dtrec::kernels
