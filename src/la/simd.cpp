#include "la/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#define ATMOR_SIMD_AVX2 1
#include <immintrin.h>
#endif

// Keep the scalar reference kernels scalar even at -O3: without this the
// elementwise loops auto-vectorize and the "scalar" column of the kernel
// bench would be measuring the same code as the vectorized tier.
#if defined(__GNUC__) && !defined(__clang__)
#define ATMOR_NO_VECTORIZE \
    __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define ATMOR_NO_VECTORIZE
#endif

namespace atmor::la::simd {

namespace {

std::atomic<bool>& forced_flag() {
    static std::atomic<bool> forced = [] {
        const char* env = std::getenv("ATMOR_SCALAR_KERNELS");
        return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
    }();
    return forced;
}

}  // namespace

bool scalar_forced() { return forced_flag().load(std::memory_order_relaxed); }

void force_scalar(bool on) { forced_flag().store(on, std::memory_order_relaxed); }

const char* compiled_level() {
#ifdef ATMOR_SIMD_AVX2
    return "avx2";
#else
    return "omp-simd";
#endif
}

const char* active_level() { return scalar_forced() ? "scalar" : compiled_level(); }

// ---------------------------------------------------------------------------
// Scalar reference tier.
// ---------------------------------------------------------------------------
namespace scalar {

ATMOR_NO_VECTORIZE double dot(const double* a, const double* b, std::size_t n) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
}

ATMOR_NO_VECTORIZE double nrm2sq(const double* a, std::size_t n) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += a[i] * a[i];
    return s;
}

ATMOR_NO_VECTORIZE void axpy(double alpha, const double* x, double* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

ATMOR_NO_VECTORIZE void scale(double alpha, double* x, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

ATMOR_NO_VECTORIZE double spmv_row(const double* vals, const int* cols, std::size_t nnz,
                                   const double* x) {
    double s = 0.0;
    for (std::size_t k = 0; k < nnz; ++k) s += vals[k] * x[static_cast<std::size_t>(cols[k])];
    return s;
}

ATMOR_NO_VECTORIZE void zaxpy(Complex alpha, const Complex* x, Complex* y, std::size_t n) {
    const double ar = alpha.real(), ai = alpha.imag();
    const double* xd = reinterpret_cast<const double*>(x);
    double* yd = reinterpret_cast<double*>(y);
    for (std::size_t i = 0; i < n; ++i) {
        const double xr = xd[2 * i], xi = xd[2 * i + 1];
        yd[2 * i] += ar * xr - ai * xi;
        yd[2 * i + 1] += ar * xi + ai * xr;
    }
}

ATMOR_NO_VECTORIZE Complex zspmv_row(const double* vals, const int* cols, std::size_t nnz,
                                     const Complex* x) {
    double re = 0.0, im = 0.0;
    const double* xd = reinterpret_cast<const double*>(x);
    for (std::size_t k = 0; k < nnz; ++k) {
        const std::size_t j = static_cast<std::size_t>(cols[k]);
        re += vals[k] * xd[2 * j];
        im += vals[k] * xd[2 * j + 1];
    }
    return Complex(re, im);
}

ATMOR_NO_VECTORIZE void gemv(std::size_t rows, std::size_t cols, const double* a,
                             std::size_t ld, const double* x, double* y) {
    for (std::size_t i = 0; i < rows; ++i) y[i] += dot(a + i * ld, x, cols);
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Vectorized tier. Reductions use four independent accumulators (combined as
// (s0+s1)+(s2+s3), remainder folded in last) so the fold is reassociated the
// same way on every call; elementwise kernels are plain mul+add per lane,
// which is bit-identical to the scalar reference.
// ---------------------------------------------------------------------------
namespace {

#ifdef ATMOR_SIMD_AVX2

double dot_vec(const double* __restrict__ a, const double* __restrict__ b, std::size_t n) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4), acc1);
    }
    for (; i + 4 <= n; i += 4)
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
    const __m256d acc = _mm256_add_pd(acc0, acc1);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (; i < n; ++i) s += a[i] * b[i];
    return s;
}

double nrm2sq_vec(const double* __restrict__ a, std::size_t n) { return dot_vec(a, a, n); }

// No FMA here: elementwise kernels must stay bit-identical to the scalar
// reference (the blocked-solve exactness pins depend on it).
void axpy_vec(double alpha, const double* __restrict__ x, double* __restrict__ y,
              std::size_t n) {
    const __m256d va = _mm256_set1_pd(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
        _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale_vec(double alpha, double* __restrict__ x, std::size_t n) {
    const __m256d va = _mm256_set1_pd(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(x + i, _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    for (; i < n; ++i) x[i] *= alpha;
}

double spmv_row_vec(const double* __restrict__ vals, const int* __restrict__ cols,
                    std::size_t nnz, const double* __restrict__ x) {
    __m256d acc = _mm256_setzero_pd();
    std::size_t k = 0;
    const __m256d ones_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (; k + 4 <= nnz; k += 4) {
        const __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols + k));
        // Masked gather with a zeroed source: same full-lane load as the
        // plain form, but with no uninitialized pass-through operand.
        const __m256d gathered =
            _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx, ones_mask, 8);
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(vals + k), gathered, acc);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (; k < nnz; ++k) s += vals[k] * x[static_cast<std::size_t>(cols[k])];
    return s;
}

// Complex elementwise axpy with explicit unfused arithmetic: the auto-
// vectorizer's complex-multiply pattern emits vfmaddsub (single-rounding)
// even under -ffp-contract=off, so hand-roll mul / permute / addsub to keep
// each output element exactly fl(y + (fl(ar*xr) -/+ fl(ai*xi))) -- bit-
// identical to the scalar reference.
void zaxpy_vec(Complex alpha, const Complex* __restrict__ x, Complex* __restrict__ y,
               std::size_t n) {
    const double ar = alpha.real(), ai = alpha.imag();
    const double* __restrict__ xd = reinterpret_cast<const double*>(x);
    double* __restrict__ yd = reinterpret_cast<double*>(y);
    const __m256d var = _mm256_set1_pd(ar);
    const __m256d vai = _mm256_set1_pd(ai);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {  // two complex values per 256-bit lane set
        const __m256d xv = _mm256_loadu_pd(xd + 2 * i);
        const __m256d t1 = _mm256_mul_pd(var, xv);                        // ar*xr | ar*xi
        const __m256d t2 = _mm256_mul_pd(vai, _mm256_permute_pd(xv, 5));  // ai*xi | ai*xr
        const __m256d prod = _mm256_addsub_pd(t1, t2);  // even: t1-t2, odd: t1+t2
        _mm256_storeu_pd(yd + 2 * i, _mm256_add_pd(_mm256_loadu_pd(yd + 2 * i), prod));
    }
    for (; i < n; ++i) {
        const double xr = xd[2 * i], xi = xd[2 * i + 1];
        yd[2 * i] += ar * xr - ai * xi;
        yd[2 * i + 1] += ar * xi + ai * xr;
    }
}

// Four rows per pass, each with dot_vec's two accumulators over 8-wide
// blocks and its 4-wide step into the first. The four lane sets fold in one
// hadd/permute as (l0 + l1) + (l2 + l3) per row and the tail columns follow
// unfused, so every row equals dot_vec of that row bit for bit.
void gemv_vec(std::size_t rows, std::size_t cols, const double* __restrict__ a, std::size_t ld,
              const double* __restrict__ x, double* __restrict__ y) {
    std::size_t i = 0;
    for (; i + 4 <= rows; i += 4) {
        const double* r0 = a + i * ld;
        const double* r1 = r0 + ld;
        const double* r2 = r1 + ld;
        const double* r3 = r2 + ld;
        __m256d p0 = _mm256_setzero_pd(), p1 = p0, p2 = p0, p3 = p0;
        __m256d q0 = p0, q1 = p0, q2 = p0, q3 = p0;
        std::size_t j = 0;
        for (; j + 8 <= cols; j += 8) {
            const __m256d xl = _mm256_loadu_pd(x + j);
            const __m256d xh = _mm256_loadu_pd(x + j + 4);
            p0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + j), xl, p0);
            q0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + j + 4), xh, q0);
            p1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + j), xl, p1);
            q1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + j + 4), xh, q1);
            p2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2 + j), xl, p2);
            q2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2 + j + 4), xh, q2);
            p3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3 + j), xl, p3);
            q3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3 + j + 4), xh, q3);
        }
        for (; j + 4 <= cols; j += 4) {
            const __m256d xl = _mm256_loadu_pd(x + j);
            p0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + j), xl, p0);
            p1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + j), xl, p1);
            p2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2 + j), xl, p2);
            p3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3 + j), xl, p3);
        }
        // hadd gives (l0 + l1) and (l2 + l3) of two rows per 128-bit half;
        // the permutes line the halves up as rows 0..3.
        const __m256d t01 = _mm256_hadd_pd(_mm256_add_pd(p0, q0), _mm256_add_pd(p1, q1));
        const __m256d t23 = _mm256_hadd_pd(_mm256_add_pd(p2, q2), _mm256_add_pd(p3, q3));
        __m256d s = _mm256_add_pd(_mm256_permute2f128_pd(t01, t23, 0x20),
                                  _mm256_permute2f128_pd(t01, t23, 0x31));
        for (; j < cols; ++j)
            s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set_pd(r3[j], r2[j], r1[j], r0[j]),
                                               _mm256_set1_pd(x[j])));
        _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), s));
    }
    for (; i < rows; ++i) y[i] += dot_vec(a + i * ld, x, cols);
}

#else  // portable omp-simd tier

double dot_vec(const double* __restrict__ a, const double* __restrict__ b, std::size_t n) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    const std::size_t n4 = n & ~static_cast<std::size_t>(3);
    for (std::size_t i = 0; i < n4; i += 4) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    double s = (s0 + s1) + (s2 + s3);
    for (std::size_t i = n4; i < n; ++i) s += a[i] * b[i];
    return s;
}

double nrm2sq_vec(const double* __restrict__ a, std::size_t n) { return dot_vec(a, a, n); }

void axpy_vec(double alpha, const double* __restrict__ x, double* __restrict__ y,
              std::size_t n) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_vec(double alpha, double* __restrict__ x, std::size_t n) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

double spmv_row_vec(const double* __restrict__ vals, const int* __restrict__ cols,
                    std::size_t nnz, const double* __restrict__ x) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    const std::size_t n4 = nnz & ~static_cast<std::size_t>(3);
    for (std::size_t k = 0; k < n4; k += 4) {
        s0 += vals[k] * x[static_cast<std::size_t>(cols[k])];
        s1 += vals[k + 1] * x[static_cast<std::size_t>(cols[k + 1])];
        s2 += vals[k + 2] * x[static_cast<std::size_t>(cols[k + 2])];
        s3 += vals[k + 3] * x[static_cast<std::size_t>(cols[k + 3])];
    }
    double s = (s0 + s1) + (s2 + s3);
    for (std::size_t k = n4; k < nnz; ++k) s += vals[k] * x[static_cast<std::size_t>(cols[k])];
    return s;
}

// Complex elementwise axpy: interleaved re/im updates, each one mul-add pair.
// Without FMA hardware in this tier the even/odd lane structure auto-
// vectorizes value-preservingly, staying bit-identical to the scalar loop.
void zaxpy_vec(Complex alpha, const Complex* __restrict__ x, Complex* __restrict__ y,
               std::size_t n) {
    const double ar = alpha.real(), ai = alpha.imag();
    const double* __restrict__ xd = reinterpret_cast<const double*>(x);
    double* __restrict__ yd = reinterpret_cast<double*>(y);
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
        const double xr = xd[2 * i], xi = xd[2 * i + 1];
        yd[2 * i] += ar * xr - ai * xi;
        yd[2 * i + 1] += ar * xi + ai * xr;
    }
}

// Two-lane vectors for gemv's sums: the loop vectorizer would interleave
// its column loop and spill sixteen scalar sums, so the pairs are explicit.
using V2 = double __attribute__((vector_size(16)));

V2 load2(const double* p) {
    V2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// One row's sums as dot_vec holds them, lo = (s0, s1) and hi = (s2, s3),
/// folded as (s0 + s1) + (s2 + s3) with the tail columns [c4, cols) after.
double fold_row(V2 lo, V2 hi, const double* __restrict__ a, const double* __restrict__ x,
                std::size_t c4, std::size_t cols) {
    double s = (lo[0] + lo[1]) + (hi[0] + hi[1]);
    for (std::size_t j = c4; j < cols; ++j) s += a[j] * x[j];
    return s;
}

// Four rows per pass, each with dot_vec's lanes, fold and tail, so every
// row equals dot_vec of that row bit for bit; the rows share each load of x
// and give the pass sixteen independent sums.
void gemv_vec(std::size_t rows, std::size_t cols, const double* __restrict__ a, std::size_t ld,
              const double* __restrict__ x, double* __restrict__ y) {
    const std::size_t c4 = cols & ~static_cast<std::size_t>(3);
    std::size_t i = 0;
    for (; i + 4 <= rows; i += 4) {
        const double* r0 = a + i * ld;
        const double* r1 = r0 + ld;
        const double* r2 = r1 + ld;
        const double* r3 = r2 + ld;
        V2 lo0 = {0.0, 0.0}, hi0 = lo0, lo1 = lo0, hi1 = lo0;
        V2 lo2 = lo0, hi2 = lo0, lo3 = lo0, hi3 = lo0;
        for (std::size_t j = 0; j < c4; j += 4) {
            const V2 xl = load2(x + j);
            const V2 xh = load2(x + j + 2);
            lo0 += load2(r0 + j) * xl;
            hi0 += load2(r0 + j + 2) * xh;
            lo1 += load2(r1 + j) * xl;
            hi1 += load2(r1 + j + 2) * xh;
            lo2 += load2(r2 + j) * xl;
            hi2 += load2(r2 + j + 2) * xh;
            lo3 += load2(r3 + j) * xl;
            hi3 += load2(r3 + j + 2) * xh;
        }
        y[i] += fold_row(lo0, hi0, r0, x, c4, cols);
        y[i + 1] += fold_row(lo1, hi1, r1, x, c4, cols);
        y[i + 2] += fold_row(lo2, hi2, r2, x, c4, cols);
        y[i + 3] += fold_row(lo3, hi3, r3, x, c4, cols);
    }
    for (; i < rows; ++i) y[i] += dot_vec(a + i * ld, x, cols);
}

#endif  // ATMOR_SIMD_AVX2

// Complex gather reduction: two-way unrolled split re/im accumulators
// (shared by both vector tiers; reductions are tolerance-pinned).
Complex zspmv_row_vec(const double* __restrict__ vals, const int* __restrict__ cols,
                      std::size_t nnz, const Complex* __restrict__ x) {
    double re0 = 0.0, re1 = 0.0, im0 = 0.0, im1 = 0.0;
    const double* __restrict__ xd = reinterpret_cast<const double*>(x);
    const std::size_t n2 = nnz & ~static_cast<std::size_t>(1);
    for (std::size_t k = 0; k < n2; k += 2) {
        const std::size_t j0 = static_cast<std::size_t>(cols[k]);
        const std::size_t j1 = static_cast<std::size_t>(cols[k + 1]);
        re0 += vals[k] * xd[2 * j0];
        im0 += vals[k] * xd[2 * j0 + 1];
        re1 += vals[k + 1] * xd[2 * j1];
        im1 += vals[k + 1] * xd[2 * j1 + 1];
    }
    double re = re0 + re1, im = im0 + im1;
    for (std::size_t k = n2; k < nnz; ++k) {
        const std::size_t j = static_cast<std::size_t>(cols[k]);
        re += vals[k] * xd[2 * j];
        im += vals[k] * xd[2 * j + 1];
    }
    return Complex(re, im);
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

double dot(const double* a, const double* b, std::size_t n) {
    return scalar_forced() ? scalar::dot(a, b, n) : dot_vec(a, b, n);
}

double nrm2sq(const double* a, std::size_t n) {
    return scalar_forced() ? scalar::nrm2sq(a, n) : nrm2sq_vec(a, n);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
    if (scalar_forced())
        scalar::axpy(alpha, x, y, n);
    else
        axpy_vec(alpha, x, y, n);
}

void scale(double alpha, double* x, std::size_t n) {
    if (scalar_forced())
        scalar::scale(alpha, x, n);
    else
        scale_vec(alpha, x, n);
}

double spmv_row(const double* vals, const int* cols, std::size_t nnz, const double* x) {
    return scalar_forced() ? scalar::spmv_row(vals, cols, nnz, x)
                           : spmv_row_vec(vals, cols, nnz, x);
}

void zaxpy(Complex alpha, const Complex* x, Complex* y, std::size_t n) {
    if (scalar_forced())
        scalar::zaxpy(alpha, x, y, n);
    else
        zaxpy_vec(alpha, x, y, n);
}

Complex zspmv_row(const double* vals, const int* cols, std::size_t nnz, const Complex* x) {
    return scalar_forced() ? scalar::zspmv_row(vals, cols, nnz, x)
                           : zspmv_row_vec(vals, cols, nnz, x);
}

void gemv(std::size_t rows, std::size_t cols, const double* a, std::size_t ld, const double* x,
          double* y) {
    if (scalar_forced())
        scalar::gemv(rows, cols, a, ld, x, y);
    else
        gemv_vec(rows, cols, a, ld, x, y);
}

}  // namespace atmor::la::simd
