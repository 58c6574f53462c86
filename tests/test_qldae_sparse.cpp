// Sparse-first Qldae storage: the CSR-backed system must be operationally
// indistinguishable from the same system constructed densely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "core/projection.hpp"
#include "la/orth.hpp"
#include "la/solver_backend.hpp"
#include "la/vector_ops.hpp"
#include "ode/transient.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using la::Matrix;
using la::Vec;
using volterra::Qldae;

/// The lifted NLTL as built (sparse-first) and its dense reconstruction.
struct Pair {
    Qldae sparse;
    Qldae dense;
};

Pair nltl_pair(int stages, bool voltage_source) {
    circuits::NltlOptions opt;
    opt.stages = stages;
    Qldae s = voltage_source ? circuits::voltage_source_line(opt).to_qldae()
                             : circuits::current_source_line(opt).to_qldae();
    std::vector<Matrix> d1;
    if (s.has_bilinear())
        for (int i = 0; i < s.inputs(); ++i) d1.push_back(s.d1(i));
    Qldae d(s.g1(), s.g2(), s.g3(), std::move(d1), s.b(), s.c());
    return {std::move(s), std::move(d)};
}

TEST(QldaeSparse, BuilderProducesSparseSystem) {
    const auto p = nltl_pair(8, true);
    EXPECT_TRUE(p.sparse.is_sparse());
    EXPECT_FALSE(p.dense.is_sparse());
    EXPECT_TRUE(p.sparse.g1_op().is_sparse());
    ASSERT_NE(p.sparse.g1_csr(), nullptr);
    // The lifted ladder is sparse: nnz grows linearly, not quadratically.
    EXPECT_LT(p.sparse.g1_csr()->nnz(), 12 * p.sparse.order());
}

TEST(QldaeSparse, RhsAndAccessorsMatchDense) {
    const auto p = nltl_pair(7, true);
    util::Rng rng(7100);
    const int n = p.sparse.order();
    const Vec x = test::random_vector(n, rng);
    const Vec u{0.37};
    EXPECT_LT(la::dist2(p.sparse.rhs(x, u), p.dense.rhs(x, u)), 1e-12);
    EXPECT_LT(la::dist2(p.sparse.b_col(0), p.dense.b_col(0)), 1e-15);
    EXPECT_LT(la::dist2(p.sparse.output(x), p.dense.output(x)), 1e-13);
    EXPECT_LT(la::dist2(p.sparse.apply_g1(x), p.dense.apply_g1(x)), 1e-12);
    if (p.sparse.has_bilinear()) {
        EXPECT_LT(la::dist2(p.sparse.apply_d1(0, x), p.dense.apply_d1(0, x)), 1e-12);
    }
}

TEST(QldaeSparse, JacobianCooMatchesDenseJacobian) {
    const auto p = nltl_pair(6, true);
    util::Rng rng(7101);
    const int n = p.sparse.order();
    const Vec x = test::random_vector(n, rng);
    const Vec u{-0.21};
    const double scale = 0.025;
    Matrix ref = p.dense.jacobian(x, u);
    ref *= scale;
    const Matrix coo = sparse::CsrMatrix(p.sparse.jacobian_coo(x, u, scale)).to_dense();
    EXPECT_LT(la::max_abs(coo - ref), 1e-12);
}

TEST(QldaeSparse, GalerkinReductionMatchesDense) {
    const auto p = nltl_pair(6, false);
    util::Rng rng(7102);
    const Matrix v = la::orthonormalize_columns(test::random_matrix(p.sparse.order(), 4, rng));
    const Qldae rom_s = core::galerkin_reduce(p.sparse, v);
    const Qldae rom_d = core::galerkin_reduce(p.dense, v);
    EXPECT_LT(la::max_abs(rom_s.g1() - rom_d.g1()), 1e-11);
    EXPECT_LT(la::max_abs(rom_s.b() - rom_d.b()), 1e-12);
    EXPECT_LT(la::max_abs(rom_s.c() - rom_d.c()), 1e-12);
}

TEST(QldaeSparse, ReduceAssociatedAgreesAcrossBackends) {
    // The same reduction computed through sparse LU and through Schur must
    // span the same subspace and produce matching ROM transfer behaviour;
    // compare the reduced G1 spectra (basis-independent).
    const auto p = nltl_pair(8, false);
    core::AtMorOptions opt;
    opt.k1 = 4;
    opt.k2 = 0;
    opt.k3 = 0;
    opt.expansion_points = {la::Complex(1.0, 0.0)};

    opt.backend = std::make_shared<la::SparseLuBackend>();
    const auto rom_sparse = core::reduce_associated(p.sparse, opt);
    opt.backend = std::make_shared<la::SchurBackend>();
    const auto rom_schur = core::reduce_associated(p.dense, opt);

    ASSERT_EQ(rom_sparse.order, rom_schur.order);
    la::ZVec e1 = la::eigenvalues(rom_sparse.rom.g1());
    la::ZVec e2 = la::eigenvalues(rom_schur.rom.g1());
    auto key = [](const la::Complex& z) { return std::make_pair(z.real(), z.imag()); };
    std::sort(e1.begin(), e1.end(), [&](auto a, auto b) { return key(a) < key(b); });
    std::sort(e2.begin(), e2.end(), [&](auto a, auto b) { return key(a) < key(b); });
    for (std::size_t i = 0; i < e1.size(); ++i) EXPECT_LT(std::abs(e1[i] - e2[i]), 1e-6);
}

TEST(QldaeSparse, ImplicitTransientMatchesDensePath) {
    const auto p = nltl_pair(6, true);
    ode::TransientOptions topt;
    topt.t_end = 2.0;
    topt.dt = 1e-2;
    const auto input = [](double t) { return Vec{0.2 * std::sin(0.5 * t)}; };
    const auto rs = ode::simulate(p.sparse, input, topt);
    const auto rd = ode::simulate(p.dense, input, topt);
    ASSERT_EQ(rs.t.size(), rd.t.size());
    EXPECT_LT(ode::peak_relative_error(rd, rs), 1e-9);
    EXPECT_GE(rs.factorizations, 1L);
}

TEST(QldaeSparse, LargeK1OnlyReductionAvoidsDenseFactorisation) {
    // n > kEigenGuardMaxOrder, k2 = k3 = 0: the whole moment chain must run
    // through the sparse backend -- asserted by handing reduce_associated a
    // backend whose statistics we can inspect afterwards.
    circuits::NltlOptions copt;
    copt.stages = 300;  // lifted n = 600 > 512
    const auto full = circuits::current_source_line(copt).to_qldae();
    ASSERT_TRUE(full.is_sparse());
    ASSERT_GT(full.order(), core::kEigenGuardMaxOrder);

    core::AtMorOptions opt;
    opt.k1 = 5;
    opt.k2 = 0;
    opt.k3 = 0;
    opt.expansion_points = {la::Complex(1.0, 0.0)};
    auto backend = std::make_shared<la::SparseLuBackend>();
    opt.backend = backend;
    const auto rom = core::reduce_associated(full, opt);
    EXPECT_GE(rom.order, 1);
    // One sparse factorisation at sigma0, replayed for every moment.
    EXPECT_EQ(backend->stats().factorizations, 1);
    EXPECT_GE(backend->stats().cache_hits, 4);
}

}  // namespace
}  // namespace atmor
