// Shared fixtures and oracles for the atmor test suite.
#pragma once

#include <gtest/gtest.h>

#include <complex>

#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/orth.hpp"
#include "la/schur.hpp"
#include "la/vector_ops.hpp"
#include "util/rng.hpp"

namespace atmor::test {

/// Random dense matrix with iid N(0,1) entries.
inline la::Matrix random_matrix(int rows, int cols, util::Rng& rng) {
    la::Matrix m(rows, cols);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
    return m;
}

/// Random Hurwitz-stable matrix: random dense shifted left of its spectral
/// abscissa by `margin`.
inline la::Matrix random_stable_matrix(int n, util::Rng& rng, double margin = 0.5) {
    la::Matrix a = random_matrix(n, n, rng);
    const double alpha = la::spectral_abscissa(a);
    for (int i = 0; i < n; ++i) a(i, i) -= alpha + margin;
    return a;
}

inline la::Vec random_vector(int n, util::Rng& rng) {
    la::Vec v(static_cast<std::size_t>(n));
    for (auto& x : v) x = rng.gaussian();
    return v;
}

inline la::ZVec random_zvector(int n, util::Rng& rng) {
    la::ZVec v(static_cast<std::size_t>(n));
    for (auto& x : v) x = la::Complex(rng.gaussian(), rng.gaussian());
    return v;
}

/// Dense Kronecker product (test oracle; production code never forms these).
inline la::Matrix dense_kron(const la::Matrix& a, const la::Matrix& b) {
    la::Matrix k(a.rows() * b.rows(), a.cols() * b.cols());
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) {
            const double aij = a(i, j);
            if (aij == 0.0) continue;
            for (int p = 0; p < b.rows(); ++p)
                for (int q = 0; q < b.cols(); ++q)
                    k(i * b.rows() + p, j * b.cols() + q) = aij * b(p, q);
        }
    return k;
}

/// Dense Kronecker sum A (+) B = A (x) I + I (x) B (test oracle).
inline la::Matrix dense_kron_sum(const la::Matrix& a, const la::Matrix& b) {
    la::Matrix k = dense_kron(a, la::Matrix::identity(b.rows()));
    k += dense_kron(la::Matrix::identity(a.rows()), b);
    return k;
}

/// Least-squares solution of min ||A x - b||_2 for full-column-rank A: Q
/// from la::orthonormalize_columns, R = Q^T A, then R x = Q^T b by la::Lu.
/// A deflated column (A numerically rank-deficient) fails the test.
inline la::Vec least_squares(const la::Matrix& a, const la::Vec& b) {
    const la::Matrix q = la::orthonormalize_columns(a);
    EXPECT_EQ(q.cols(), a.cols()) << "least_squares: a column of A deflated";
    return la::Lu(la::matmul(la::transpose(q), a)).solve(la::matvec_transposed(q, b));
}

/// Classic fixed-step RK4 for dx/dt = f(t, x) (test oracle integrator).
template <class F>
la::Vec rk4_integrate(const F& f, la::Vec x, double t0, double t1, int steps) {
    const double h = (t1 - t0) / steps;
    double t = t0;
    for (int s = 0; s < steps; ++s) {
        const la::Vec k1 = f(t, x);
        la::Vec x2 = x;
        la::axpy(0.5 * h, k1, x2);
        const la::Vec k2 = f(t + 0.5 * h, x2);
        la::Vec x3 = x;
        la::axpy(0.5 * h, k2, x3);
        const la::Vec k3 = f(t + 0.5 * h, x3);
        la::Vec x4 = x;
        la::axpy(h, k3, x4);
        const la::Vec k4 = f(t + h, x4);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] += (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        t += h;
    }
    return x;
}

}  // namespace atmor::test
