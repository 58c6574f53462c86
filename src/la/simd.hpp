// SIMD kernel substrate: the vector primitives every hot loop in the la/,
// sparse/ and core/ layers bottoms out in.
//
// Three implementation tiers share one dispatch point per kernel:
//   * scalar   -- reference loops, compiled with auto-vectorization disabled.
//                 These are the numerical anchors the tolerance-tagged kernel
//                 tests compare against, and the ATMOR_SCALAR_KERNELS runtime
//                 escape hatch routes every kernel here for debugging. The
//                 hatch changes kernels only: the algorithms above them
//                 (e.g. la::BasisBuilder's orthogonalizer) run the same steps
//                 on either tier.
//   * omp-simd -- `#pragma omp simd` / restrict-annotated loops (built with
//                 -fopenmp-simd; no OpenMP runtime involved). The default.
//   * avx2     -- explicit AVX2/FMA intrinsics, compiled in when the build
//                 enables -mavx2 -mfma (CMake option ATMOR_AVX2).
//
// Numerical policy (see also tests/test_simd_kernels.cpp):
//   * Elementwise kernels (axpy, scale, zaxpy) are BIT-IDENTICAL across all
//     tiers: each output element is one IEEE mul + one IEEE add, never an
//     FMA, so the blocked-solve == single-solve exactness pins survive every
//     build configuration.
//   * Reduction kernels (dot, nrm2sq, spmv_row, gemv) reassociate the fold
//     for instruction-level parallelism; their results are deterministic for
//     a given build + escape-hatch setting but only tolerance-equal to the
//     scalar reference. Nothing pins reductions bit-exactly across kernel
//     tiers. gemv folds each row exactly as dot does on the same tier, so a
//     row of gemv and a dot of that row agree bit for bit.
#pragma once

#include <complex>
#include <cstddef>

namespace atmor::la::simd {

using Complex = std::complex<double>;

/// True when the ATMOR_SCALAR_KERNELS escape hatch is active (environment
/// variable set to anything but "0", or force_scalar(true) was called).
bool scalar_forced();

/// Programmatic override of the escape hatch (tests and the kernel bench use
/// this to time scalar-vs-vectorized on one binary). Not thread-safe against
/// concurrent kernel calls; flip it only from single-threaded setup code.
void force_scalar(bool on);

/// Kernel tier compiled into this binary: "omp-simd" or "avx2".
const char* compiled_level();

/// Kernel tier actually dispatched to: compiled_level(), or "scalar" when
/// the escape hatch is active.
const char* active_level();

// ---------------------------------------------------------------------------
// Scalar reference kernels. Compiled with auto-vectorization off so they stay
// honest baselines even at -O3.
// ---------------------------------------------------------------------------
namespace scalar {
double dot(const double* a, const double* b, std::size_t n);
double nrm2sq(const double* a, std::size_t n);
void axpy(double alpha, const double* x, double* y, std::size_t n);
void scale(double alpha, double* x, std::size_t n);
double spmv_row(const double* vals, const int* cols, std::size_t nnz, const double* x);
void zaxpy(Complex alpha, const Complex* x, Complex* y, std::size_t n);
Complex zspmv_row(const double* vals, const int* cols, std::size_t nnz, const Complex* x);
void gemv(std::size_t rows, std::size_t cols, const double* a, std::size_t ld, const double* x,
          double* y);
}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched kernels (escape hatch honoured on every call).
// ---------------------------------------------------------------------------

/// sum_i a[i] * b[i]  (reassociated reduction).
double dot(const double* a, const double* b, std::size_t n);

/// sum_i a[i]^2  (reassociated reduction).
double nrm2sq(const double* a, std::size_t n);

/// y[i] += alpha * x[i]  (elementwise; bit-identical across tiers).
void axpy(double alpha, const double* x, double* y, std::size_t n);

/// x[i] *= alpha  (elementwise; bit-identical across tiers).
void scale(double alpha, double* x, std::size_t n);

/// One CSR row: sum_k vals[k] * x[cols[k]]  (reassociated gather reduction).
double spmv_row(const double* vals, const int* cols, std::size_t nnz, const double* x);

/// y[i] += alpha * x[i] over complex data (elementwise real/imag updates;
/// bit-identical across tiers).
void zaxpy(Complex alpha, const Complex* x, Complex* y, std::size_t n);

/// One CSR row against a complex vector: sum_k vals[k] * x[cols[k]]
/// (reassociated gather reduction, real values).
Complex zspmv_row(const double* vals, const int* cols, std::size_t nnz, const Complex* x);

/// y[i] += sum_j a[i * ld + j] * x[j] for i < rows, j < cols: a row-major
/// matrix with leading dimension ld >= cols times x, accumulated into y.
/// Four rows per pass share each load of x; row i adds exactly
/// dot(a + i * ld, x, cols). y must not overlap a or x.
void gemv(std::size_t rows, std::size_t cols, const double* a, std::size_t ld, const double* x,
          double* y);

}  // namespace atmor::la::simd
