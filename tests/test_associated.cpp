#include <gtest/gtest.h>

#include <cmath>

#include "la/expm.hpp"
#include "la/lu.hpp"
#include "la/vector_ops.hpp"
#include "tensor/kronecker.hpp"
#include "test_qldae_helpers.hpp"
#include "volterra/associated.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::Vec;
using la::ZMatrix;
using la::ZVec;
using volterra::AssociatedTransform;
using volterra::Qldae;
namespace tn = atmor::tensor;

/// Dense Gt2 = [[G1, G2], [0, G1 (+) G1]] of paper eq. (17).
Matrix dense_gt2(const Qldae& sys) {
    const int n = sys.order();
    Matrix big(n + n * n, n + n * n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) big(i, j) = sys.g1()(i, j);
    if (sys.has_quadratic()) {
        const Matrix g2d = sys.g2().to_dense_matrix();
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n * n; ++j) big(i, n + j) = g2d(i, j);
    }
    const Matrix ks = test::dense_kron_sum(sys.g1(), sys.g1());
    for (int i = 0; i < n * n; ++i)
        for (int j = 0; j < n * n; ++j) big(n + i, n + j) = ks(i, j);
    return big;
}

ZVec dense_shifted_solve(const Matrix& m, Complex sigma, const ZVec& b) {
    ZMatrix a = la::complexify(m);
    a *= Complex(-1.0, 0.0);
    for (int i = 0; i < a.rows(); ++i) a(i, i) += sigma;
    return la::solve(a, b);
}

TEST(Associated, A2H2MatchesDenseRealization) {
    util::Rng rng(2200);
    test::QldaeOptions opt;
    opt.n = 4;
    opt.inputs = 2;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const AssociatedTransform at(sys);
    const int n = 4, m = 2;

    const Matrix gt2 = dense_gt2(sys);
    for (const Complex s : {Complex(0.4, 0.0), Complex(0.1, 1.3), Complex(-0.3, 0.5)}) {
        const ZMatrix a2 = at.a2h2(s);
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < m; ++j) {
                const ZVec full = dense_shifted_solve(gt2, s, at.btilde2(i, j));
                const ZVec top(full.begin(), full.begin() + n);  // c~2 = [I 0]
                EXPECT_LT(la::dist2(a2.col(i * m + j), top), 1e-9)
                    << "pair (" << i << "," << j << ") at s = " << s;
            }
        }
    }
}

TEST(Associated, A2H2RealAtRealShift) {
    util::Rng rng(2201);
    test::QldaeOptions opt;
    opt.n = 5;
    const Qldae sys = test::random_qldae(opt, rng);
    const AssociatedTransform at(sys);
    const ZMatrix a2 = at.a2h2(Complex(0.7, 0.0));
    EXPECT_LT(la::max_abs(la::imag_part(a2)), 1e-10);
}

TEST(Associated, A3H3MatchesDenseRealization) {
    // Frequency-domain: the structured evaluation must equal the dense-oracle
    // assembly of the same realisation (independent solver paths).
    util::Rng rng(2202);
    test::QldaeOptions opt;
    opt.n = 3;
    opt.inputs = 1;
    opt.bilinear = true;
    opt.cubic = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const AssociatedTransform at(sys);
    const int n = 3;

    const Matrix gt2 = dense_gt2(sys);
    const Matrix m1 = test::dense_kron_sum(sys.g1(), gt2);  // G1 outer
    const Matrix k3 = test::dense_kron_sum(sys.g1(), test::dense_kron_sum(sys.g1(), sys.g1()));
    const int p = n + n * n;

    const Vec b = sys.b_col(0);
    for (const Complex s : {Complex(0.5, 0.0), Complex(0.2, 0.9)}) {
        // Dense H~3 term 1: (I (x) c~2)(sI - M1)^{-1} (b (x) b~2).
        const ZVec beta1 = tn::kron(la::complexify(b), at.btilde2(0, 0));
        const ZVec u = dense_shifted_solve(m1, s, beta1);
        ZVec va(static_cast<std::size_t>(n * n));
        ZVec vb(static_cast<std::size_t>(n * n));
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                va[static_cast<std::size_t>(i * n + j)] = u[static_cast<std::size_t>(i * p + j)];
                vb[static_cast<std::size_t>(j * n + i)] = u[static_cast<std::size_t>(i * p + j)];
            }
        // Inner bracket: G2 (va + vb as lifted) + D1 d0 + G3 (sI - K3)^{-1} b(x)3.
        ZVec acc = sys.g2().apply_lifted(va);
        la::axpy(Complex(1), sys.g2().apply_lifted(vb), acc);
        la::axpy(Complex(1), la::matvec_rc(sys.d1(0), at.d0(0, 0)), acc);
        const ZVec w3 =
            dense_shifted_solve(k3, s, la::complexify(tn::kron3(b, b, b)));
        la::axpy(Complex(1), sys.g3().apply_lifted(w3), acc);
        const ZVec ref = dense_shifted_solve(sys.g1(), s, acc);

        const ZMatrix a3 = at.a3h3(s);
        EXPECT_LT(la::dist2(a3.col(0), ref), 1e-8 * (1.0 + la::norm2(ref))) << "s = " << s;
    }
}

// ---------------------------------------------------------------------------
// Time-domain validation: the variational (perturbation-order) responses of
// the QLDAE to an impulse are exactly the diagonal kernels h_n(t, ..., t),
// whose Laplace transforms are the associated transfer functions. This
// validates Theorem 1 / Theorem 2 and the realisations end to end without
// reusing any frequency-domain code.
// ---------------------------------------------------------------------------

TEST(Associated, VariationalSecondOrderResponseMatchesRealization) {
    util::Rng rng(2203);
    test::QldaeOptions opt;
    opt.n = 4;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const AssociatedTransform at(sys);
    const int n = 4;
    const Vec b = sys.b_col(0);

    // Variational cascade under u = delta(t):
    //   x1' = G1 x1, x1(0) = b;  x2' = G1 x2 + G2 x1 (x) x1, x2(0) = D1 b.
    auto f = [&](double, const Vec& z) {
        const Vec x1(z.begin(), z.begin() + n);
        const Vec x2(z.begin() + n, z.end());
        Vec d1 = la::matvec(sys.g1(), x1);
        Vec d2 = la::matvec(sys.g1(), x2);
        la::axpy(1.0, sys.g2().apply(x1, x1), d2);
        Vec out(static_cast<std::size_t>(2 * n));
        std::copy(d1.begin(), d1.end(), out.begin());
        std::copy(d2.begin(), d2.end(), out.begin() + n);
        return out;
    };
    Vec z0(static_cast<std::size_t>(2 * n), 0.0);
    std::copy(b.begin(), b.end(), z0.begin());
    const Vec d1b = la::matvec(sys.d1(0), b);
    std::copy(d1b.begin(), d1b.end(), z0.begin() + n);

    const Matrix gt2 = dense_gt2(sys);
    const Vec btilde2 = la::real_part(at.btilde2(0, 0));
    for (const double t_end : {0.4, 1.1}) {
        const Vec z = test::rk4_integrate(f, z0, 0.0, t_end, 3000);
        const Vec x2(z.begin() + n, z.end());
        // h2(t,t) = [I 0] e^{Gt2 t} b~2 (paper eq. 17 realisation).
        Matrix gt2t = gt2;
        gt2t *= t_end;
        const Vec full = la::matvec(la::expm(gt2t), btilde2);
        const Vec top(full.begin(), full.begin() + n);
        EXPECT_LT(la::dist2(x2, top), 1e-7 * (1.0 + la::norm2(top))) << "t = " << t_end;
    }
}

TEST(Associated, VariationalThirdOrderResponseMatchesRealization) {
    util::Rng rng(2204);
    test::QldaeOptions opt;
    opt.n = 3;
    opt.bilinear = true;
    opt.cubic = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const AssociatedTransform at(sys);
    const int n = 3;
    const Vec b = sys.b_col(0);
    const Matrix& d1m = sys.d1(0);

    // Variational cascade under u = delta(t):
    //   x3' = G1 x3 + G2 (x1 (x) x2 + x2 (x) x1) + G3 x1^(x)3, x3(0) = D1^2 b.
    auto f = [&](double, const Vec& z) {
        const Vec x1(z.begin(), z.begin() + n);
        const Vec x2(z.begin() + n, z.begin() + 2 * n);
        const Vec x3(z.begin() + 2 * n, z.end());
        Vec d1 = la::matvec(sys.g1(), x1);
        Vec d2 = la::matvec(sys.g1(), x2);
        la::axpy(1.0, sys.g2().apply(x1, x1), d2);
        Vec d3 = la::matvec(sys.g1(), x3);
        la::axpy(1.0, sys.g2().apply(x1, x2), d3);
        la::axpy(1.0, sys.g2().apply(x2, x1), d3);
        la::axpy(1.0, sys.g3().apply(x1, x1, x1), d3);
        Vec out(static_cast<std::size_t>(3 * n));
        std::copy(d1.begin(), d1.end(), out.begin());
        std::copy(d2.begin(), d2.end(), out.begin() + n);
        std::copy(d3.begin(), d3.end(), out.begin() + 2 * n);
        return out;
    };
    Vec z0(static_cast<std::size_t>(3 * n), 0.0);
    std::copy(b.begin(), b.end(), z0.begin());
    const Vec d1b = la::matvec(d1m, b);
    std::copy(d1b.begin(), d1b.end(), z0.begin() + n);
    const Vec d1d1b = la::matvec(d1m, d1b);
    std::copy(d1d1b.begin(), d1d1b.end(), z0.begin() + 2 * n);

    // Augmented linear realisation of h3(t,t,t):
    //   eta' = G1 eta + G2 (I (x) c~2) za + G2 (c~2 (x) I) zb + G3 zc,
    //   za' = M1 za, zb' = M2 zb, zc' = K3 zc,
    //   eta(0) = D1^2 b, za(0) = b (x) b~2, zb(0) = b~2 (x) b, zc(0) = b(x)3.
    const Matrix gt2 = dense_gt2(sys);
    const int p = n + n * n;
    const Matrix m1 = test::dense_kron_sum(sys.g1(), gt2);
    const Matrix m2 = test::dense_kron_sum(gt2, sys.g1());
    const Matrix k3 = test::dense_kron_sum(sys.g1(), test::dense_kron_sum(sys.g1(), sys.g1()));
    Matrix ctil(n, p);  // c~2 = [I 0]
    for (int i = 0; i < n; ++i) ctil(i, i) = 1.0;
    const Matrix g2d = sys.g2().to_dense_matrix();
    const Matrix fa = la::matmul(g2d, test::dense_kron(Matrix::identity(n), ctil));
    const Matrix fb = la::matmul(g2d, test::dense_kron(ctil, Matrix::identity(n)));
    Matrix g3d(n, n * n * n);
    for (const auto& e : sys.g3().entries()) g3d(e.row, (e.i * n + e.j) * n + e.k) += e.value;

    const int na = n * p;
    const int dim = n + 2 * na + n * n * n;
    Matrix big(dim, dim);
    auto put = [&](const Matrix& mblk, int r0, int c0) {
        for (int i = 0; i < mblk.rows(); ++i)
            for (int j = 0; j < mblk.cols(); ++j) big(r0 + i, c0 + j) = mblk(i, j);
    };
    put(sys.g1(), 0, 0);
    put(fa, 0, n);
    put(fb, 0, n + na);
    put(g3d, 0, n + 2 * na);
    put(m1, n, n);
    put(m2, n + na, n + na);
    put(k3, n + 2 * na, n + 2 * na);

    Vec init(static_cast<std::size_t>(dim), 0.0);
    std::copy(d1d1b.begin(), d1d1b.end(), init.begin());
    const Vec beta1 = tn::kron(b, la::real_part(at.btilde2(0, 0)));
    std::copy(beta1.begin(), beta1.end(), init.begin() + n);
    const Vec beta2 = tn::kron(la::real_part(at.btilde2(0, 0)), b);
    std::copy(beta2.begin(), beta2.end(), init.begin() + n + na);
    const Vec beta3 = tn::kron3(b, b, b);
    std::copy(beta3.begin(), beta3.end(), init.begin() + n + 2 * na);

    for (const double t_end : {0.5, 1.2}) {
        const Vec z = test::rk4_integrate(f, z0, 0.0, t_end, 4000);
        const Vec x3(z.begin() + 2 * n, z.end());
        Matrix bt = big;
        bt *= t_end;
        const Vec full = la::matvec(la::expm(bt), init);
        const Vec eta(full.begin(), full.begin() + n);
        EXPECT_LT(la::dist2(x3, eta), 1e-6 * (1.0 + la::norm2(eta))) << "t = " << t_end;
    }
}

// ---------------------------------------------------------------------------
// Moment sequences = Taylor coefficients (finite-difference cross-check).
// ---------------------------------------------------------------------------

TEST(Associated, MomentsAreTaylorCoefficients) {
    util::Rng rng(2205);
    test::QldaeOptions opt;
    opt.n = 4;
    opt.bilinear = true;
    opt.cubic = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const AssociatedTransform at(sys);
    const Complex sigma0(0.6, 0.0);
    const double h = 1e-3;

    const auto check = [&](auto eval, const std::vector<ZMatrix>& moments) {
        const ZMatrix f0 = eval(sigma0);
        const ZMatrix fp = eval(sigma0 + h);
        const ZMatrix fm = eval(sigma0 - h);
        // m0 exact, m1/m2 by central differences.
        EXPECT_LT(la::max_abs(moments[0] - f0), 1e-9 * (1.0 + la::max_abs(f0)));
        ZMatrix d1 = fp - fm;
        d1 *= Complex(1.0 / (2.0 * h));
        EXPECT_LT(la::max_abs(moments[1] - d1), 2e-4 * (1.0 + la::max_abs(d1)));
        ZMatrix d2 = fp + fm - f0 - f0;
        d2 *= Complex(1.0 / (2.0 * h * h));  // f''/2!
        EXPECT_LT(la::max_abs(moments[2] - d2), 2e-3 * (1.0 + la::max_abs(d2)));
    };

    check([&](Complex s) { return at.h1(s); }, at.h1_moments(3, sigma0));
    check([&](Complex s) { return at.a2h2(s); }, at.a2h2_moments(3, sigma0));
    check([&](Complex s) { return at.a3h3(s); }, at.a3h3_moments(3, sigma0));
}

TEST(Associated, MomentsAtComplexExpansionPoint) {
    util::Rng rng(2206);
    test::QldaeOptions opt;
    opt.n = 4;
    const Qldae sys = test::random_qldae(opt, rng);
    const AssociatedTransform at(sys);
    const Complex sigma0(0.2, 0.8);  // non-DC multipoint expansion (Remark 3)
    const auto m = at.a2h2_moments(2, sigma0);
    const ZMatrix f0 = at.a2h2(sigma0);
    EXPECT_LT(la::max_abs(m[0] - f0), 1e-9 * (1.0 + la::max_abs(f0)));
}

TEST(Associated, QuadraticFreeSystemHasZeroA2H2) {
    util::Rng rng(2207);
    test::QldaeOptions opt;
    opt.n = 4;
    opt.quadratic = false;
    opt.cubic = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const AssociatedTransform at(sys);
    EXPECT_LT(la::max_abs(at.a2h2(Complex(0.5, 0.0))), 1e-14);
    // ... but A3H3 is alive through G3.
    EXPECT_GT(la::max_abs(at.a3h3(Complex(0.5, 0.0))), 1e-12);
}

}  // namespace
}  // namespace atmor
