#include <gtest/gtest.h>

#include "core/projection.hpp"
#include "la/orth.hpp"
#include "la/vector_ops.hpp"
#include "test_qldae_helpers.hpp"

namespace atmor {
namespace {

using la::Matrix;
using la::Vec;
using volterra::Qldae;

Matrix random_orthonormal_basis(int n, int q, util::Rng& rng) {
    return la::orthonormalize_columns(test::random_matrix(n, q, rng));
}

TEST(Projection, GalerkinRhsConsistency) {
    // For orthonormal V the reduced rhs is exactly V^T f(V xr, u).
    util::Rng rng(2300);
    test::QldaeOptions opt;
    opt.n = 10;
    opt.inputs = 2;
    opt.quadratic = true;
    opt.cubic = true;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const Matrix v = random_orthonormal_basis(10, 4, rng);
    const Qldae rom = core::galerkin_reduce(sys, v);
    ASSERT_EQ(rom.order(), 4);

    const Vec xr = test::random_vector(4, rng);
    const Vec u = test::random_vector(2, rng);
    const Vec full_rhs = sys.rhs(la::matvec(v, xr), u);
    const Vec expected = la::matvec_transposed(v, full_rhs);
    EXPECT_LT(la::dist2(rom.rhs(xr, u), expected), 1e-11 * (1.0 + la::norm2(expected)));
}

TEST(Projection, IdentityBasisIsNoOp) {
    util::Rng rng(2301);
    test::QldaeOptions opt;
    opt.n = 6;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const Qldae rom = core::galerkin_reduce(sys, Matrix::identity(6));
    const Vec x = test::random_vector(6, rng);
    const Vec u = test::random_vector(1, rng);
    EXPECT_LT(la::dist2(rom.rhs(x, u), sys.rhs(x, u)), 1e-12);
    EXPECT_LT(la::dist2(rom.output(x), sys.output(x)), 1e-12);
}

TEST(Projection, ReduceMatrixIsCongruence) {
    util::Rng rng(2302);
    const Matrix a = test::random_matrix(8, 8, rng);
    const Matrix v = random_orthonormal_basis(8, 3, rng);
    const Matrix ar = core::reduce_matrix(a, v);
    EXPECT_EQ(ar.rows(), 3);
    const Matrix expected = la::matmul(la::transpose(v), la::matmul(a, v));
    EXPECT_LT(la::max_abs(ar - expected), 1e-13);
}

TEST(Projection, ReducedTensorQuadraticForm) {
    util::Rng rng(2303);
    test::QldaeOptions opt;
    opt.n = 7;
    const Qldae sys = test::random_qldae(opt, rng);
    const Matrix v = random_orthonormal_basis(7, 3, rng);
    const auto g2r = core::reduce_tensor3(sys.g2(), v);
    const Vec xr = test::random_vector(3, rng);
    const Vec x = la::matvec(v, xr);
    const Vec lhs = g2r.apply(xr, xr);
    const Vec rhs = la::matvec_transposed(v, sys.g2().apply(x, x));
    EXPECT_LT(la::dist2(lhs, rhs), 1e-11);
}

TEST(Projection, BasisWiderThanStateThrows) {
    util::Rng rng(2304);
    test::QldaeOptions opt;
    opt.n = 4;
    const Qldae sys = test::random_qldae(opt, rng);
    Matrix v(4, 5);
    EXPECT_THROW(core::galerkin_reduce(sys, v), util::PreconditionError);
}

}  // namespace
}  // namespace atmor
