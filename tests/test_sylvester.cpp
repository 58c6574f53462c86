#include <gtest/gtest.h>

#include "kron_reference.hpp"
#include "la/lu.hpp"
#include "la/schur.hpp"
#include "la/sylvester.hpp"
#include "la/vector_ops.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::ZMatrix;

/// vec(C): column-stacked, i.e. C^T row-major.
la::ZVec vec_complex(const Matrix& c) {
    la::ZVec v(static_cast<std::size_t>(c.rows()) * static_cast<std::size_t>(c.cols()));
    for (int col = 0; col < c.cols(); ++col)
        for (int row = 0; row < c.rows(); ++row)
            v[static_cast<std::size_t>(col * c.rows() + row)] = Complex(c(row, col), 0.0);
    return v;
}

TEST(KronSumResolvent, MatchesDenseOracle) {
    // (sigma I - A (+) A)^{-1} vec(C) computed structurally must equal the
    // dense n^2 x n^2 solve.
    util::Rng rng(703);
    const int n = 6;
    const Matrix a = test::random_stable_matrix(n, rng);
    const Matrix c = test::random_matrix(n, n, rng);
    const la::ComplexSchur cs(a);
    const Complex sigma(0.4, 0.9);

    const la::ZVec x = la::resolvent_kron_sum_solve(cs, sigma, vec_complex(c));

    // Dense oracle in vec coordinates: vec(X) stacks columns, and
    // (A (+) A) vec(X) = vec(A X + X A^T)  <=>  kron(I, A) + kron(A, I).
    const Matrix ks = test::dense_kron_sum(a, a);
    ZMatrix m = la::complexify(ks);
    m *= Complex(-1.0, 0.0);
    for (int i = 0; i < n * n; ++i) m(i, i) += sigma;
    const la::ZVec vx = la::solve(m, vec_complex(c));

    ASSERT_EQ(x.size(), vx.size());
    double err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) err = std::max(err, std::abs(x[i] - vx[i]));
    EXPECT_LT(err, 1e-9);
}

TEST(KronSumResolvent, RealShiftRealData) {
    util::Rng rng(704);
    const int n = 8;
    const Matrix a = test::random_stable_matrix(n, rng);
    const Matrix c = test::random_matrix(n, n, rng);
    const la::ComplexSchur cs(a);
    const la::ZVec vx = la::resolvent_kron_sum_solve(cs, Complex(0.0, 0.0), vec_complex(c));
    // Back to matrix form: entry col * n + row is X(row, col).
    ZMatrix x(n, n);
    for (int col = 0; col < n; ++col)
        for (int row = 0; row < n; ++row) x(row, col) = vx[static_cast<std::size_t>(col * n + row)];
    // Solution of a real equation must be real.
    EXPECT_LT(la::max_abs(la::imag_part(x)), 1e-9 * (1.0 + la::max_abs(x)));
    // Residual: sigma X - A X - X A^T = C with sigma = 0.
    const Matrix xr = la::real_part(x);
    const Matrix residual =
        (la::matmul(a, xr) + la::matmul(xr, la::transpose(a))) * (-1.0) - c;
    EXPECT_LT(la::max_abs(residual), 1e-8 * (1.0 + la::max_abs(xr)));
}

TEST(TriSylvester, ShiftedSingularPencilThrows) {
    // T1 = T2 = 0 (1x1), sigma = 0 makes the pencil singular.
    ZMatrix t1(1, 1), t2(1, 1);
    la::ZVec c{Complex(1.0, 0.0)};
    EXPECT_THROW(la::tri_sylvester_shifted(t1, t2, Complex(0.0, 0.0), c.data()),
                 util::InternalError);
}

TEST(KronSumResolvent, BitIdenticalToColumnForm) {
    // The vec-form resolvent at shift 0 (the Lyapunov equation A X + X A^T =
    // -C) must equal, bit for bit, the column-layout formulation of
    // tests/kron_reference.hpp.
    util::Rng rng(706);
    const int n = 48;  // 48^3 multiply-adds: the products split across the pool
    const Matrix a = test::random_stable_matrix(n, rng);
    const Matrix c = test::random_matrix(n, n, rng);
    const la::ComplexSchur cs(a);
    const ZMatrix want =
        test::ref_resolvent_kron_sum_solve(cs, Complex(0.0, 0.0), la::complexify(c));
    const la::ZVec got = la::resolvent_kron_sum_solve(cs, Complex(0.0, 0.0), vec_complex(c));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (int col = 0; col < n; ++col)
        for (int row = 0; row < n; ++row) {
            const Complex g = got[static_cast<std::size_t>(col * n + row)];
            EXPECT_EQ(g.real(), want(row, col).real()) << row << "," << col;
            EXPECT_EQ(g.imag(), want(row, col).imag()) << row << "," << col;
        }
}

}  // namespace
}  // namespace atmor
