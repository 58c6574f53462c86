#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "la/lu.hpp"
#include "la/schur.hpp"
#include "la/vector_ops.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::ZMatrix;
using la::ZVec;

void expect_orthogonal(const Matrix& q, double tol) {
    const Matrix qtq = la::matmul(la::transpose(q), q);
    EXPECT_LT(la::max_abs(qtq - Matrix::identity(q.rows())), tol);
}

TEST(Hessenberg, ReducesAndReconstructs) {
    util::Rng rng(300);
    const int n = 30;
    const Matrix a = test::random_matrix(n, n, rng);
    const auto [h, q] = la::hessenberg_reduce(a);
    expect_orthogonal(q, 1e-12);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < i - 1; ++j) EXPECT_DOUBLE_EQ(h(i, j), 0.0);
    const Matrix rec = la::matmul(q, la::matmul(h, la::transpose(q)));
    EXPECT_LT(la::max_abs(rec - a), 1e-11 * (1.0 + la::max_abs(a)));
}

class SchurSizes : public ::testing::TestWithParam<int> {};

TEST_P(SchurSizes, RealSchurProperties) {
    const int n = GetParam();
    util::Rng rng(400 + static_cast<std::uint64_t>(n));
    const Matrix a = test::random_matrix(n, n, rng);
    const auto [t, q] = la::real_schur(a);
    expect_orthogonal(q, 1e-11);
    // Quasi-triangular: nothing below the first subdiagonal, no adjacent
    // nonzero subdiagonal entries (2x2 blocks never overlap).
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < i - 1; ++j) EXPECT_DOUBLE_EQ(t(i, j), 0.0);
    for (int i = 0; i + 2 < n; ++i) {
        if (t(i + 1, i) != 0.0) {
            EXPECT_DOUBLE_EQ(t(i + 2, i + 1), 0.0);
        }
    }
    const Matrix rec = la::matmul(q, la::matmul(t, la::transpose(q)));
    EXPECT_LT(la::max_abs(rec - a), 1e-9 * (1.0 + la::max_abs(a)));
    // Any remaining 2x2 block must carry a complex pair (real ones are split).
    for (int i = 0; i + 1 < n; ++i) {
        if (t(i + 1, i) == 0.0) continue;
        const double half = 0.5 * (t(i, i) - t(i + 1, i + 1));
        EXPECT_LT(half * half + t(i, i + 1) * t(i + 1, i), 0.0);
    }
}

TEST_P(SchurSizes, ComplexSchurProperties) {
    const int n = GetParam();
    util::Rng rng(500 + static_cast<std::uint64_t>(n));
    const Matrix a = test::random_matrix(n, n, rng);
    const la::ComplexSchur cs(a);
    // T strictly upper triangular.
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < i; ++j) EXPECT_EQ(cs.t()(i, j), Complex(0.0, 0.0));
    // Z unitary.
    const ZMatrix zhz = la::matmul(la::adjoint(cs.z()), cs.z());
    EXPECT_LT(la::max_abs(zhz - ZMatrix::identity(n)), 1e-11);
    // Reconstruction.
    const ZMatrix rec = la::matmul(cs.z(), la::matmul(cs.t(), la::adjoint(cs.z())));
    EXPECT_LT(la::max_abs(rec - la::complexify(a)), 1e-9 * (1.0 + la::max_abs(a)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchurSizes, ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21, 40, 90));

TEST(Schur, KnownEigenvaluesDiagonal) {
    Matrix a{{3.0, 1.0}, {0.0, -2.0}};
    ZVec ev = la::eigenvalues(a);
    std::sort(ev.begin(), ev.end(),
              [](Complex x, Complex y) { return x.real() < y.real(); });
    EXPECT_NEAR(ev[0].real(), -2.0, 1e-12);
    EXPECT_NEAR(ev[1].real(), 3.0, 1e-12);
}

TEST(Schur, KnownEigenvaluesRotation) {
    // [[0, -1], [1, 0]] has eigenvalues +/- i.
    Matrix a{{0.0, -1.0}, {1.0, 0.0}};
    ZVec ev = la::eigenvalues(a);
    std::sort(ev.begin(), ev.end(),
              [](Complex x, Complex y) { return x.imag() < y.imag(); });
    EXPECT_NEAR(ev[0].real(), 0.0, 1e-12);
    EXPECT_NEAR(ev[0].imag(), -1.0, 1e-12);
    EXPECT_NEAR(ev[1].imag(), 1.0, 1e-12);
}

TEST(Schur, CompanionMatrixEigenvalues) {
    // Companion of p(x) = x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3).
    Matrix a{{6.0, -11.0, 6.0}, {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}};
    ZVec ev = la::eigenvalues(a);
    std::sort(ev.begin(), ev.end(),
              [](Complex x, Complex y) { return x.real() < y.real(); });
    EXPECT_NEAR(ev[0].real(), 1.0, 1e-9);
    EXPECT_NEAR(ev[1].real(), 2.0, 1e-9);
    EXPECT_NEAR(ev[2].real(), 3.0, 1e-9);
    for (const auto& e : ev) EXPECT_NEAR(e.imag(), 0.0, 1e-9);
}

TEST(Schur, SymmetricMatrixRealEigenvalues) {
    util::Rng rng(15);
    const int n = 25;
    Matrix a = test::random_matrix(n, n, rng);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < i; ++j) a(i, j) = a(j, i);
    for (const auto& ev : la::eigenvalues(a)) EXPECT_NEAR(ev.imag(), 0.0, 1e-8);
}

TEST(Schur, EigenvalueSumEqualsTrace) {
    util::Rng rng(16);
    const int n = 35;
    const Matrix a = test::random_matrix(n, n, rng);
    double trace = 0.0;
    for (int i = 0; i < n; ++i) trace += a(i, i);
    Complex sum(0.0, 0.0);
    for (const auto& ev : la::eigenvalues(a)) sum += ev;
    EXPECT_NEAR(sum.real(), trace, 1e-8 * (1.0 + std::abs(trace)));
    EXPECT_NEAR(sum.imag(), 0.0, 1e-8);
}

TEST(ComplexSchur, ShiftedSolveMatchesLu) {
    util::Rng rng(17);
    const int n = 20;
    const Matrix a = test::random_matrix(n, n, rng);
    const la::ComplexSchur cs(a);
    const Complex sigma(0.7, 1.3);
    const ZVec b = test::random_zvector(n, rng);
    const ZVec x = cs.solve_shifted(sigma, b);
    // Compare against dense complex LU solve of (sigma I - A).
    ZMatrix m = la::complexify(a);
    m *= Complex(-1.0, 0.0);
    for (int i = 0; i < n; ++i) m(i, i) += sigma;
    const ZVec x_ref = la::solve(m, b);
    EXPECT_LT(la::dist2(x, x_ref), 1e-9 * (1.0 + la::norm2(x_ref)));
}

TEST(ComplexSchur, ShiftAtEigenvalueThrows) {
    Matrix a{{1.0, 0.0}, {0.0, 2.0}};
    const la::ComplexSchur cs(a);
    la::ZVec b{{1.0, 0.0}, {1.0, 0.0}};
    EXPECT_THROW(cs.solve_shifted(Complex(1.0, 0.0), b), util::InternalError);
}

TEST(Stability, SpectralAbscissa) {
    Matrix stable{{-1.0, 5.0}, {0.0, -0.1}};
    EXPECT_NEAR(la::spectral_abscissa(stable), -0.1, 1e-12);
    Matrix unstable{{0.5, 0.0}, {0.0, -3.0}};
    EXPECT_NEAR(la::spectral_abscissa(unstable), 0.5, 1e-12);
}

TEST(Schur, HandlesAlreadyTriangular) {
    Matrix a{{1.0, 2.0, 3.0}, {0.0, 4.0, 5.0}, {0.0, 0.0, 6.0}};
    const auto [t, q] = la::real_schur(a);
    const Matrix rec = la::matmul(q, la::matmul(t, la::transpose(q)));
    EXPECT_LT(la::max_abs(rec - a), 1e-12);
}

TEST(Schur, MultipleEqualEigenvalues) {
    // Jordan-ish: defective matrices still admit a Schur form.
    Matrix a{{2.0, 1.0, 0.0}, {0.0, 2.0, 1.0}, {0.0, 0.0, 2.0}};
    ZVec ev = la::eigenvalues(a);
    for (const auto& e : ev) {
        EXPECT_NEAR(e.real(), 2.0, 1e-7);
        EXPECT_NEAR(e.imag(), 0.0, 1e-7);
    }
}

}  // namespace
}  // namespace atmor
