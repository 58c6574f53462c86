// Kernel-layer contract tests (see src/la/simd.hpp):
//   * elementwise kernels (axpy, scale, zaxpy) are BIT-IDENTICAL to the
//     scalar reference in every build configuration;
//   * reduction kernels (dot, nrm2sq, spmv_row, zspmv_row, gemv) match the
//     scalar reference to tolerance only (the fold is reassociated), and
//     each row of gemv equals dot of that row bit for bit;
//   * the one orthogonalizer (BasisBuilder::flush: blocked CGS2 against the
//     basis, blocked Householder QR within the panel) stays orthogonal on
//     multi-panel, ill-conditioned and rank-deficient input, keeps its span
//     however its candidates are split across flushes, and keeps its column
//     count and span on the scalar kernel tier.
// Inputs cover random data plus the adversarial shapes that break unrolled
// kernels: empty rows, single elements, lengths straddling the unroll width,
// and denormal-adjacent magnitudes.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "la/matrix.hpp"
#include "la/orth.hpp"
#include "la/simd.hpp"
#include "la/vector_ops.hpp"
#include "util/rng.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::Vec;
using la::ZVec;
namespace simd = la::simd;

/// RAII reset of the scalar escape hatch (tests flip it to compare tiers).
struct ScalarGuard {
    ScalarGuard() : was(simd::scalar_forced()) {}
    ~ScalarGuard() { simd::force_scalar(was); }
    bool was;
};

Vec random_vec(std::size_t n, std::uint64_t seed, double scale = 1.0) {
    util::Rng rng(seed);
    Vec v(n);
    for (auto& x : v) x = scale * rng.gaussian();
    return v;
}

Matrix random_matrix(int rows, int cols, std::uint64_t seed) {
    util::Rng rng(seed);
    Matrix m(rows, cols);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
    return m;
}

// Lengths straddling every unroll/tail boundary of the kernels (4- and
// 8-wide main loops with scalar tails).
const std::size_t kLens[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100, 257};

// ---------------------------------------------------------------------------
// Elementwise kernels: bitwise equality against the scalar reference.
// ---------------------------------------------------------------------------

TEST(SimdKernels, AxpyBitIdenticalToScalar) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        for (double mag : {1.0, 1e-305, 1e300}) {
            const Vec x = random_vec(n, 11 + n, mag);
            Vec y_vec = random_vec(n, 13 + n, mag);
            Vec y_ref = y_vec;
            const double alpha = -0.7357 * mag;
            simd::axpy(alpha, x.data(), y_vec.data(), n);
            simd::scalar::axpy(alpha, x.data(), y_ref.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(y_vec[i], y_ref[i]) << "n=" << n << " mag=" << mag << " i=" << i;
        }
    }
}

TEST(SimdKernels, ScaleBitIdenticalToScalar) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        Vec x_vec = random_vec(n, 17 + n);
        Vec x_ref = x_vec;
        simd::scale(0.3183, x_vec.data(), n);
        simd::scalar::scale(0.3183, x_ref.data(), n);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x_vec[i], x_ref[i]) << "n=" << n;
    }
}

TEST(SimdKernels, ZaxpyBitIdenticalToScalar) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        util::Rng rng(19 + n);
        ZVec x(n), y_vec(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = Complex(rng.gaussian(), rng.gaussian());
            y_vec[i] = Complex(rng.gaussian(), rng.gaussian());
        }
        ZVec y_ref = y_vec;
        const Complex alpha(-1.25, 0.5 + static_cast<double>(n));
        simd::zaxpy(alpha, x.data(), y_vec.data(), n);
        simd::scalar::zaxpy(alpha, x.data(), y_ref.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(y_vec[i].real(), y_ref[i].real()) << "n=" << n << " i=" << i;
            EXPECT_EQ(y_vec[i].imag(), y_ref[i].imag()) << "n=" << n << " i=" << i;
        }
    }
}

// The std::complex "-=" formula the blocked solves replaced must also agree
// bitwise with zaxpy(-m, ...) -- this is the identity the LU exactness pins
// rest on (IEEE negation commutes exactly through multiply and subtract).
TEST(SimdKernels, ZaxpyNegatedMatchesComplexSubtract) {
    ScalarGuard guard;
    simd::force_scalar(false);
    util::Rng rng(23);
    const std::size_t n = 33;
    ZVec x(n), y_kernel(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = Complex(rng.gaussian(), rng.gaussian());
        y_kernel[i] = Complex(rng.gaussian(), rng.gaussian());
    }
    ZVec y_manual = y_kernel;
    const Complex m(0.87, -1.43);
    simd::zaxpy(-m, x.data(), y_kernel.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const double xr = x[i].real(), xi = x[i].imag();
        y_manual[i] = Complex(y_manual[i].real() - (m.real() * xr - m.imag() * xi),
                              y_manual[i].imag() - (m.real() * xi + m.imag() * xr));
    }
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(y_kernel[i].real(), y_manual[i].real()) << i;
        EXPECT_EQ(y_kernel[i].imag(), y_manual[i].imag()) << i;
    }
}

// ---------------------------------------------------------------------------
// Reduction kernels: tolerance equality against the scalar reference.
// ---------------------------------------------------------------------------

TEST(SimdKernels, DotMatchesScalarToTolerance) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        for (double mag : {1.0, 1e-305}) {  // denormal-adjacent magnitudes too
            const Vec a = random_vec(n, 29 + n, mag);
            const Vec b = random_vec(n, 31 + n, mag);
            const double vec = simd::dot(a.data(), b.data(), n);
            const double ref = simd::scalar::dot(a.data(), b.data(), n);
            const double tol =
                1e-14 * static_cast<double>(n + 1) * mag * mag * static_cast<double>(n + 1);
            EXPECT_NEAR(vec, ref, tol) << "n=" << n << " mag=" << mag;
        }
    }
}

TEST(SimdKernels, Nrm2sqMatchesScalarToTolerance) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t n : kLens) {
        const Vec a = random_vec(n, 37 + n);
        const double vec = simd::nrm2sq(a.data(), n);
        const double ref = simd::scalar::nrm2sq(a.data(), n);
        EXPECT_NEAR(vec, ref, 1e-13 * (ref + 1.0)) << "n=" << n;
        EXPECT_GE(vec, 0.0);
    }
}

TEST(SimdKernels, SpmvRowMatchesScalarToTolerance) {
    ScalarGuard guard;
    simd::force_scalar(false);
    const Vec x = random_vec(512, 41);
    util::Rng rng(43);
    for (std::size_t nnz : kLens) {
        std::vector<int> cols(nnz);
        Vec vals(nnz);
        for (std::size_t k = 0; k < nnz; ++k) {
            cols[k] = rng.uniform_int(0, 511);
            vals[k] = rng.gaussian();
        }
        const double vec = simd::spmv_row(vals.data(), cols.data(), nnz, x.data());
        const double ref = simd::scalar::spmv_row(vals.data(), cols.data(), nnz, x.data());
        EXPECT_NEAR(vec, ref, 1e-13 * static_cast<double>(nnz + 1)) << "nnz=" << nnz;
    }
    // Empty row and single-element row are exact by construction.
    EXPECT_EQ(simd::spmv_row(nullptr, nullptr, 0, x.data()), 0.0);
    const int c0 = 7;
    const double v0 = -3.25;
    EXPECT_EQ(simd::spmv_row(&v0, &c0, 1, x.data()), v0 * x[7]);
}

TEST(SimdKernels, ZspmvRowMatchesScalarToTolerance) {
    ScalarGuard guard;
    simd::force_scalar(false);
    util::Rng rng(47);
    ZVec x(256);
    for (auto& z : x) z = Complex(rng.gaussian(), rng.gaussian());
    for (std::size_t nnz : kLens) {
        std::vector<int> cols(nnz);
        Vec vals(nnz);
        for (std::size_t k = 0; k < nnz; ++k) {
            cols[k] = rng.uniform_int(0, 255);
            vals[k] = rng.gaussian();
        }
        const Complex vec = simd::zspmv_row(vals.data(), cols.data(), nnz, x.data());
        const Complex ref = simd::scalar::zspmv_row(vals.data(), cols.data(), nnz, x.data());
        EXPECT_LT(std::abs(vec - ref), 1e-13 * static_cast<double>(nnz + 1)) << "nnz=" << nnz;
    }
    EXPECT_EQ(simd::zspmv_row(nullptr, nullptr, 0, x.data()), Complex(0));
}

// gemv over every row count 0..9 (two four-row passes and every remainder)
// and every column count 0..70 (both unroll widths and every tail), with a
// leading dimension past the columns whose padding holds NaN: a kernel that
// read it would return NaN.
struct GemvCase {
    std::size_t rows, cols, ld;
    Vec a, x, y0;
};

GemvCase gemv_case(std::size_t rows, std::size_t cols) {
    const std::size_t ld = cols + 3;
    GemvCase c{rows, cols, ld, random_vec(rows * ld, 227 + 71 * rows + cols),
               random_vec(cols, 211 + cols), random_vec(rows, 223 + rows)};
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = cols; j < c.ld; ++j) c.a[i * c.ld + j] = std::nan("");
    return c;
}

TEST(SimdKernels, GemvMatchesScalarToToleranceAndDotPerRow) {
    ScalarGuard guard;
    simd::force_scalar(false);
    for (std::size_t rows = 0; rows <= 9; ++rows) {
        for (std::size_t cols = 0; cols <= 70; ++cols) {
            const GemvCase c = gemv_case(rows, cols);
            Vec y_vec = c.y0;
            Vec y_ref = c.y0;
            y_vec.push_back(-7.5);  // one slot past the rows: must stay untouched
            simd::gemv(rows, cols, c.a.data(), c.ld, c.x.data(), y_vec.data());
            simd::scalar::gemv(rows, cols, c.a.data(), c.ld, c.x.data(), y_ref.data());
            EXPECT_EQ(y_vec[rows], -7.5) << rows << "x" << cols;
            for (std::size_t i = 0; i < rows; ++i) {
                const double* row = c.a.data() + i * c.ld;
                double scale = std::abs(c.y0[i]);
                for (std::size_t j = 0; j < cols; ++j) scale += std::abs(row[j] * c.x[j]);
                EXPECT_NEAR(y_vec[i], y_ref[i], 1e-15 * static_cast<double>(cols + 2) * scale)
                    << rows << "x" << cols << " row " << i;
                EXPECT_EQ(y_vec[i], c.y0[i] + simd::dot(row, c.x.data(), cols))
                    << rows << "x" << cols << " row " << i;
            }
        }
    }
}

TEST(SimdKernels, GemvAccumulatesIntoY) {
    // Small integers multiply and add exactly in any order, so every tier
    // must return y0 + A x to the bit: gemv adds to y, never overwrites it.
    ScalarGuard guard;
    for (const bool scalar : {false, true}) {
        simd::force_scalar(scalar);
        util::Rng rng(229);
        const std::size_t rows = 7, cols = 13, ld = 16;
        Vec a(rows * ld, std::nan("")), x(cols), y(rows);
        for (auto& v : x) v = rng.uniform_int(-9, 9);
        for (auto& v : y) v = rng.uniform_int(-99, 99);
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j = 0; j < cols; ++j) a[i * ld + j] = rng.uniform_int(-9, 9);
        Vec ax(rows, 0.0);
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j = 0; j < cols; ++j) ax[i] += a[i * ld + j] * x[j];
        Vec expected = y;
        for (int call = 1; call <= 2; ++call) {
            simd::gemv(rows, cols, a.data(), ld, x.data(), y.data());
            for (std::size_t i = 0; i < rows; ++i) expected[i] += ax[i];
            EXPECT_EQ(y, expected) << simd::active_level() << ", call " << call;
        }
    }
}

// The escape hatch must actually reroute: active_level flips to "scalar" and
// dispatched reductions return the scalar fold exactly.
TEST(SimdKernels, EscapeHatchDispatchesScalar) {
    ScalarGuard guard;
    simd::force_scalar(true);
    EXPECT_STREQ(simd::active_level(), "scalar");
    const Vec a = random_vec(257, 53);
    const Vec b = random_vec(257, 59);
    EXPECT_EQ(simd::dot(a.data(), b.data(), a.size()),
              simd::scalar::dot(a.data(), b.data(), a.size()));
    for (const std::size_t rows : {3u, 9u}) {
        const GemvCase c = gemv_case(rows, 70);
        Vec y = c.y0;
        Vec y_ref = c.y0;
        simd::gemv(rows, c.cols, c.a.data(), c.ld, c.x.data(), y.data());
        simd::scalar::gemv(rows, c.cols, c.a.data(), c.ld, c.x.data(), y_ref.data());
        EXPECT_EQ(y, y_ref) << rows << " rows";
    }
    simd::force_scalar(false);
    EXPECT_STREQ(simd::active_level(), simd::compiled_level());
}

// ---------------------------------------------------------------------------
// The orthogonalizer: multi-panel and ill-conditioned input, rank
// deficiency, flush boundaries and the scalar kernel tier -- judged by
// orthogonality, reconstruction and span.
// ---------------------------------------------------------------------------

double orthogonality_error(const Matrix& q) {
    const Matrix g = la::matmul(la::transpose(q), q);
    double err = 0.0;
    for (int i = 0; i < g.rows(); ++i)
        for (int j = 0; j < g.cols(); ++j)
            err = std::max(err, std::abs(g(i, j) - (i == j ? 1.0 : 0.0)));
    return err;
}

/// Largest 1 - ||Q^T y||^2 over the columns y of an orthonormal Y: zero
/// when span(Y) lies inside span(Q).
double span_loss(const Matrix& q, const Matrix& y) {
    const Matrix c = la::matmul(la::transpose(q), y);
    double loss = 0.0;
    for (int j = 0; j < c.cols(); ++j) {
        double s = 0.0;
        for (int i = 0; i < c.rows(); ++i) s += c(i, j) * c(i, j);
        loss = std::max(loss, std::abs(1.0 - s));
    }
    return loss;
}

TEST(Orthogonalizer, MultiPanelOrthogonalityAndReconstruction) {
    // 70 columns = two full Householder panels + a partial one (kPanel = 32).
    const Matrix a = random_matrix(200, 70, 61);
    const Matrix q = la::orthonormalize_columns(a);
    ASSERT_EQ(q.cols(), 70);
    EXPECT_LT(orthogonality_error(q), 1e-13);
    // Orthonormalised in column order: R = Q^T A is upper triangular with a
    // positive diagonal (the make_householder sign convention), and Q R
    // rebuilds A.
    const Matrix r = la::matmul(la::transpose(q), a);
    for (int i = 0; i < r.rows(); ++i) {
        EXPECT_GT(r(i, i), 0.0);
        for (int j = 0; j < i; ++j) EXPECT_NEAR(r(i, j), 0.0, 1e-12);
    }
    const Matrix a_rec = la::matmul(q, r);
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) EXPECT_NEAR(a_rec(i, j), a(i, j), 1e-12);
}

TEST(Orthogonalizer, IllConditionedStaysOrthogonal) {
    // Columns graded over 12 orders of magnitude: cond(A) ~ 1e12. Householder
    // orthogonality is condition-independent, and deflation judges each
    // residual against its own candidate's norm, so no column is dropped.
    Matrix a = random_matrix(150, 40, 67);
    for (int j = 0; j < a.cols(); ++j) {
        const double s = std::pow(10.0, -12.0 * j / (a.cols() - 1));
        for (int i = 0; i < a.rows(); ++i) a(i, j) *= s;
    }
    const Matrix q = la::orthonormalize_columns(a);
    ASSERT_EQ(q.cols(), 40);
    EXPECT_LT(orthogonality_error(q), 1e-13);
}

TEST(Orthogonalizer, NumericallyRankDeficientKeepsOrthogonality) {
    // A = U diag(sigma) W^T with sigma graded from 1 down to 1e-14: every
    // column mixes all directions, so the trailing columns are dependent on
    // their predecessors to round-off. Deflation drops them, what survives
    // stays orthogonal to machine precision, and the kept columns still
    // reproduce every column of A to the deflation level.
    const int m = 100, n = 30;
    const Matrix u = la::orthonormalize_columns(random_matrix(m, n, 71));
    const Matrix w = la::orthonormalize_columns(random_matrix(n, n, 73));
    Matrix us = u;
    for (int k = 0; k < n; ++k) {
        const double sigma = std::pow(10.0, -14.0 * k / (n - 1));
        for (int i = 0; i < m; ++i) us(i, k) *= sigma;
    }
    const Matrix a = la::matmul(us, la::transpose(w));
    const Matrix q = la::orthonormalize_columns(a);
    EXPECT_LT(q.cols(), n);
    EXPECT_LT(orthogonality_error(q), 1e-13);
    const Matrix rebuilt = la::matmul(q, la::matmul(la::transpose(q), a));
    EXPECT_LT(la::max_abs(rebuilt - a), 1e-9);
}

TEST(PanelBasisBuilder, RankDeficientPanelDeflates) {
    // 6 candidates spanning only 3 directions.
    const Matrix base = random_matrix(50, 3, 79);
    Matrix cand(50, 6);
    util::Rng rng(83);
    for (int j = 0; j < 6; ++j) {
        Vec mix(50, 0.0);
        for (int k = 0; k < 3; ++k) {
            const double w = rng.gaussian();
            for (int i = 0; i < 50; ++i)
                mix[static_cast<std::size_t>(i)] += w * base(i, k);
        }
        cand.set_col(j, mix);
    }
    const Matrix q = la::orthonormalize_columns(cand);
    EXPECT_EQ(q.cols(), 3);
    EXPECT_LT(orthogonality_error(q), 1e-12);
}

TEST(PanelBasisBuilder, FlushBoundariesKeepTheSpan) {
    // One flush of 12 candidates (one Householder panel) and 12
    // one-candidate flushes (each projected against the basis its
    // predecessors left) differ only in round-off: same columns, same span.
    const Matrix cand = random_matrix(80, 12, 89);

    la::BasisBuilder panel(80);
    for (int j = 0; j < cand.cols(); ++j) panel.stage(cand.col(j));
    EXPECT_EQ(panel.flush(), 12);

    la::BasisBuilder single(80);
    for (int j = 0; j < cand.cols(); ++j) {
        single.stage(cand.col(j));
        EXPECT_EQ(single.flush(), 1);
    }

    const Matrix qp = panel.matrix();
    const Matrix qs = single.matrix();
    ASSERT_EQ(qp.cols(), qs.cols());
    EXPECT_LT(orthogonality_error(qp), 1e-12);
    EXPECT_LT(orthogonality_error(qs), 1e-12);
    EXPECT_LT(span_loss(qp, qs), 1e-10);
}

TEST(PanelBasisBuilder, StageComplexAppliesImaginaryZeroRule) {
    la::BasisBuilder b(20);
    util::Rng rng(97);
    ZVec v(20);
    for (auto& z : v) z = Complex(rng.gaussian(), 1e-12 * rng.gaussian());
    b.stage_complex(v);  // imaginary part numerically zero: one candidate
    EXPECT_EQ(b.staged(), 1);
    for (auto& z : v) z = Complex(rng.gaussian(), rng.gaussian());
    b.stage_complex(v);  // genuine imaginary part: two candidates
    EXPECT_EQ(b.staged(), 3);
    EXPECT_EQ(b.flush(), 3);
    EXPECT_EQ(b.staged(), 0);
}

TEST(PanelBasisBuilder, ScalarKernelsKeepTheBasis) {
    // The escape hatch swaps the kernels, never the algorithm: the scalar
    // tier keeps the same columns and span (dot is only tolerance-equal
    // across tiers, so the bits may differ).
    ScalarGuard guard;
    const Matrix cand = random_matrix(40, 8, 101);

    simd::force_scalar(true);
    const Matrix qs = la::orthonormalize_columns(cand);
    simd::force_scalar(false);
    const Matrix qv = la::orthonormalize_columns(cand);

    ASSERT_EQ(qs.cols(), qv.cols());
    EXPECT_LT(orthogonality_error(qs), 1e-12);
    EXPECT_LT(span_loss(qv, qs), 1e-10);
}

}  // namespace
}  // namespace atmor
