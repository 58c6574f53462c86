#include <gtest/gtest.h>

#include "la/vector_ops.hpp"
#include "sparse/tensor3.hpp"
#include "sparse/tensor4.hpp"
#include "tensor/kronecker.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using la::Matrix;
using la::Vec;
using sparse::SparseTensor3;

SparseTensor3 random_tensor(int n, int terms, util::Rng& rng) {
    SparseTensor3 t(n, n, n);
    for (int k = 0; k < terms; ++k)
        t.add(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1),
              rng.gaussian());
    return t;
}

TEST(Tensor3, ApplyMatchesLiftedMatrixView) {
    util::Rng rng(1200);
    const int n = 6;
    const SparseTensor3 t = random_tensor(n, 25, rng);
    const Vec x = test::random_vector(n, rng);
    const Vec y = test::random_vector(n, rng);
    // T(x, y) must equal the matrix view applied to x (x) y.
    const Vec lifted = tensor::kron(x, y);
    EXPECT_LT(la::dist2(t.apply(x, y), t.apply_lifted(lifted)), 1e-12);
    // ... and the dense matrix view oracle.
    EXPECT_LT(la::dist2(t.apply(x, y), la::matvec(t.to_dense_matrix(), lifted)), 1e-12);
}

TEST(Tensor3, JacobianMatchesFiniteDifference) {
    util::Rng rng(1201);
    const int n = 5;
    const SparseTensor3 t = random_tensor(n, 20, rng);
    const Vec x = test::random_vector(n, rng);
    const Matrix jac = t.jacobian(x);
    const double h = 1e-6;
    for (int k = 0; k < n; ++k) {
        Vec xp = x, xm = x;
        xp[static_cast<std::size_t>(k)] += h;
        xm[static_cast<std::size_t>(k)] -= h;
        const Vec fp = t.apply(xp, xp);
        const Vec fm = t.apply(xm, xm);
        for (int r = 0; r < n; ++r) {
            const double fd = (fp[static_cast<std::size_t>(r)] - fm[static_cast<std::size_t>(r)]) /
                              (2.0 * h);
            EXPECT_NEAR(jac(r, k), fd, 1e-6 * (1.0 + std::abs(fd)));
        }
    }
}

TEST(Tensor3, SymmetrizedPreservesQuadraticForm) {
    util::Rng rng(1202);
    const int n = 7;
    const SparseTensor3 t = random_tensor(n, 30, rng);
    const SparseTensor3 s = t.symmetrized();
    const Vec x = test::random_vector(n, rng);
    EXPECT_LT(la::dist2(t.apply(x, x), s.apply(x, x)), 1e-12);
    // Symmetry: S(x, y) = S(y, x).
    const Vec y = test::random_vector(n, rng);
    EXPECT_LT(la::dist2(s.apply(x, y), s.apply(y, x)), 1e-12);
}

TEST(Tensor3, Contractions) {
    util::Rng rng(1203);
    const int n = 5;
    const SparseTensor3 t = random_tensor(n, 20, rng);
    const Vec x0 = test::random_vector(n, rng);
    const Vec y = test::random_vector(n, rng);
    // contract_left(x0) * y == T(x0, y); contract_right(x0) * y == T(y, x0).
    EXPECT_LT(la::dist2(la::matvec(t.contract_left(x0), y), t.apply(x0, y)), 1e-12);
    EXPECT_LT(la::dist2(la::matvec(t.contract_right(x0), y), t.apply(y, x0)), 1e-12);
}

TEST(Tensor3, ComplexApplyConsistent) {
    util::Rng rng(1204);
    const int n = 4;
    const SparseTensor3 t = random_tensor(n, 15, rng);
    const Vec x = test::random_vector(n, rng);
    const Vec y = test::random_vector(n, rng);
    const la::ZVec zr = t.apply(la::complexify(x), la::complexify(y));
    EXPECT_LT(la::dist2(la::real_part(zr), t.apply(x, y)), 1e-13);
    EXPECT_LT(la::norm2(la::imag_part(zr)), 1e-13);
}

TEST(Tensor3, ScaleAndBounds) {
    SparseTensor3 t(2, 2, 2);
    t.add(0, 1, 1, 3.0);
    t.scale(2.0);
    const Vec x{0.0, 1.0};
    EXPECT_DOUBLE_EQ(t.apply(x, x)[0], 6.0);
    EXPECT_THROW(t.add(0, 2, 0, 1.0), util::PreconditionError);
}

TEST(Tensor4, CubicApplyAndJacobian) {
    util::Rng rng(1205);
    const int n = 4;
    sparse::SparseTensor4 t(n);
    for (int k = 0; k < 15; ++k)
        t.add(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1),
              rng.uniform_int(0, n - 1), rng.gaussian());
    const Vec x = test::random_vector(n, rng);
    // Lifted consistency.
    const Vec lifted = tensor::kron3(x, x, x);
    EXPECT_LT(la::dist2(t.apply(x, x, x), t.apply_lifted(lifted)), 1e-12);
    // Jacobian by finite differences.
    const Matrix jac = t.jacobian(x);
    const double h = 1e-6;
    for (int k = 0; k < n; ++k) {
        Vec xp = x, xm = x;
        xp[static_cast<std::size_t>(k)] += h;
        xm[static_cast<std::size_t>(k)] -= h;
        const Vec fp = t.apply(xp, xp, xp);
        const Vec fm = t.apply(xm, xm, xm);
        for (int r = 0; r < n; ++r) {
            const double fd = (fp[static_cast<std::size_t>(r)] - fm[static_cast<std::size_t>(r)]) /
                              (2.0 * h);
            EXPECT_NEAR(jac(r, k), fd, 1e-5 * (1.0 + std::abs(fd)));
        }
    }
}

TEST(Tensor4, ShiftExpansionIdentity) {
    // T(x0 + d)^3 = T(x0,x0,x0) + [contract_twice(x0)] d
    //               + [contract_once(x0)](d, d) + T(d,d,d).
    util::Rng rng(1206);
    const int n = 4;
    sparse::SparseTensor4 t(n);
    for (int k = 0; k < 12; ++k)
        t.add(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1),
              rng.uniform_int(0, n - 1), rng.gaussian());
    const Vec x0 = test::random_vector(n, rng);
    const Vec d = test::random_vector(n, rng);
    const Vec x = la::add(x0, d);
    Vec lhs = t.apply(x, x, x);

    Vec rhs = t.apply(x0, x0, x0);
    la::axpy(1.0, la::matvec(t.contract_twice(x0), d), rhs);
    la::axpy(1.0, t.contract_once(x0).apply(d, d), rhs);
    la::axpy(1.0, t.apply(d, d, d), rhs);
    EXPECT_LT(la::dist2(lhs, rhs), 1e-11);
}

}  // namespace
}  // namespace atmor
