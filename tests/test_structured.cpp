#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "kron_reference.hpp"
#include "la/lu.hpp"
#include "la/vector_ops.hpp"
#include "tensor/kronecker.hpp"
#include "tensor/structured.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::ZMatrix;
using la::ZVec;
namespace tn = atmor::tensor;

/// Oracle: x = (sigma I - M)^{-1} b via dense complex LU.
ZVec dense_shifted_solve(const Matrix& m, Complex sigma, const ZVec& b) {
    ZMatrix a = la::complexify(m);
    a *= Complex(-1.0, 0.0);
    for (int i = 0; i < a.rows(); ++i) a(i, i) += sigma;
    return la::solve(a, b);
}

std::shared_ptr<const la::ComplexSchur> schur_of(const Matrix& a) {
    return std::make_shared<const la::ComplexSchur>(a);
}

TEST(DenseSchurSolver, MatchesOracle) {
    util::Rng rng(1400);
    const int n = 9;
    const Matrix a = test::random_matrix(n, n, rng);
    tn::DenseSchurSolver solver(a);
    const Complex sigma(0.3, -0.8);
    const ZVec b = test::random_zvector(n, rng);
    EXPECT_LT(la::dist2(solver.solve(sigma, b), dense_shifted_solve(a, sigma, b)), 1e-9);
    // apply: sigma*x - Op(x) must reproduce b for x = solve(sigma, b).
    const ZVec x = solver.solve(sigma, b);
    ZVec res = solver.apply(x);
    for (std::size_t i = 0; i < res.size(); ++i) res[i] = sigma * x[i] - res[i];
    EXPECT_LT(la::dist2(res, b), 1e-9);
}

TEST(KronSum2Solver, MatchesDenseOracle) {
    util::Rng rng(1401);
    const int n = 5;
    const Matrix a = test::random_stable_matrix(n, rng);
    tn::KronSum2Solver solver(schur_of(a));
    ASSERT_EQ(solver.dim(), n * n);
    const Complex sigma(0.25, 0.6);
    const ZVec b = test::random_zvector(n * n, rng);
    const ZVec x = solver.solve(sigma, b);
    const ZVec x_ref = dense_shifted_solve(tn::kron_sum(a, a), sigma, b);
    EXPECT_LT(la::dist2(x, x_ref), 1e-8 * (1.0 + la::norm2(x_ref)));
}

TEST(KronSum2Solver, ApplyMatchesDense) {
    util::Rng rng(1402);
    const int n = 4;
    const Matrix a = test::random_matrix(n, n, rng);
    tn::KronSum2Solver solver(schur_of(a));
    const ZVec x = test::random_zvector(n * n, rng);
    const ZVec y = solver.apply(x);
    const ZVec y_ref = la::matvec(la::complexify(tn::kron_sum(a, a)), x);
    EXPECT_LT(la::dist2(y, y_ref), 1e-9);
}

TEST(KronSumLeftSolver, MatchesDenseOracle) {
    util::Rng rng(1403);
    const int m = 4, p = 3;
    const Matrix a = test::random_stable_matrix(m, rng);  // outer
    const Matrix b = test::random_stable_matrix(p, rng);  // inner
    auto inner = std::make_shared<tn::DenseSchurSolver>(b);
    tn::KronSumLeftSolver solver(schur_of(a), inner);
    ASSERT_EQ(solver.dim(), m * p);
    const Complex sigma(0.1, 1.1);
    const ZVec rhs = test::random_zvector(m * p, rng);
    const ZVec x = solver.solve(sigma, rhs);
    const ZVec x_ref = dense_shifted_solve(tn::kron_sum(a, b), sigma, rhs);
    EXPECT_LT(la::dist2(x, x_ref), 1e-8 * (1.0 + la::norm2(x_ref)));
    // apply consistency.
    ZVec res = solver.apply(x);
    for (std::size_t i = 0; i < res.size(); ++i) res[i] = sigma * x[i] - res[i];
    EXPECT_LT(la::dist2(res, rhs), 1e-8 * (1.0 + la::norm2(rhs)));
}

TEST(BlockTriangularSolver, MatchesDenseBlockOracle) {
    // Gt2 = [[G1, G2], [0, G1 (+) G1]] exactly as in paper eq. (17).
    util::Rng rng(1405);
    const int n = 4;
    const Matrix g1 = test::random_stable_matrix(n, rng);
    sparse::SparseTensor3 g2(n, n, n);
    for (int k = 0; k < 20; ++k)
        g2.add(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1),
               rng.gaussian());

    auto schur = schur_of(g1);
    auto low = std::make_shared<tn::KronSum2Solver>(schur);
    tn::BlockTriangularSolver solver(schur, g2, low);
    ASSERT_EQ(solver.dim(), n + n * n);

    // Dense oracle.
    Matrix big(n + n * n, n + n * n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) big(i, j) = g1(i, j);
    const Matrix g2d = g2.to_dense_matrix();
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n * n; ++j) big(i, n + j) = g2d(i, j);
    const Matrix ks = tn::kron_sum(g1, g1);
    for (int i = 0; i < n * n; ++i)
        for (int j = 0; j < n * n; ++j) big(n + i, n + j) = ks(i, j);

    const Complex sigma(0.2, 0.9);
    const ZVec rhs = test::random_zvector(n + n * n, rng);
    const ZVec x = solver.solve(sigma, rhs);
    const ZVec x_ref = dense_shifted_solve(big, sigma, rhs);
    EXPECT_LT(la::dist2(x, x_ref), 1e-8 * (1.0 + la::norm2(x_ref)));

    // apply consistency.
    ZVec res = solver.apply(x);
    for (std::size_t i = 0; i < res.size(); ++i) res[i] = sigma * x[i] - res[i];
    EXPECT_LT(la::dist2(res, rhs), 1e-8 * (1.0 + la::norm2(rhs)));
}

TEST(StructuredSolvers, Theorem1KernelIdentity) {
    // Paper Theorem 1/Corollary 1 in operator form: the structured solve of
    // (sI - A1 (+) A2)^{-1} applied to b1 (x) b2 equals the associated
    // transform of the product of resolvents; cross-check with dense algebra.
    util::Rng rng(1407);
    const int n1 = 3, n2 = 2;
    const Matrix a1 = test::random_stable_matrix(n1, rng);
    const Matrix a2 = test::random_stable_matrix(n2, rng);
    const la::Vec b1 = test::random_vector(n1, rng);
    const la::Vec b2 = test::random_vector(n2, rng);

    auto inner = std::make_shared<tn::DenseSchurSolver>(a2);
    tn::KronSumLeftSolver solver(schur_of(a1), inner);

    const Complex s(0.9, 0.0);
    const ZVec rhs = la::complexify(tn::kron(b1, b2));
    const ZVec lhs = solver.solve(s, rhs);
    const ZVec ref = dense_shifted_solve(tn::kron_sum(a1, a2), s, rhs);
    EXPECT_LT(la::dist2(lhs, ref), 1e-9);
}

// ---------------------------------------------------------------------------
// Bit identity of the in-place vec layout and the pool-split products against
// the column-layout formulation (tests/kron_reference.hpp), on 1 and 4
// threads. Each chain starts from a mostly-zero b (x) w right side, as the
// moment chains do, and continues from the dense solution.
// ---------------------------------------------------------------------------

void expect_bit_equal(const ZVec& got, const ZVec& want, const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
        if (std::memcmp(&got[i], &want[i], sizeof(Complex)) != 0) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << what << ": " << mismatches << " of " << got.size() << " differ";
}

/// b (x) w with a b holding one nonzero: all but one row of the vec layout
/// are zero, like the first right side of the A3(H3) chains.
ZVec sparse_kron_rhs(int m, const ZVec& w) {
    ZVec b(static_cast<std::size_t>(m), Complex(0));
    b[static_cast<std::size_t>(m / 3)] = Complex(0.8, -0.3);
    return tn::kron(b, w);
}

/// Two chained solves of `solver` and `ref`, on 1 and then 4 threads.
void expect_chain_bit_equal(const tn::ShiftedSolver& solver, const tn::ShiftedSolver& ref,
                            const ZVec& rhs, Complex sigma) {
    const ZVec want1 = ref.solve(sigma, rhs);
    const ZVec want2 = ref.solve(sigma, want1);
    for (const int threads : {1, 4}) {
        util::ThreadPool::set_global_threads(threads);
        const std::string tag = " solve on " + std::to_string(threads) + " thread(s)";
        const ZVec got1 = solver.solve(sigma, rhs);
        const ZVec got2 = solver.solve(sigma, got1);
        expect_bit_equal(got1, want1, "first" + tag);
        expect_bit_equal(got2, want2, "second" + tag);
    }
    util::ThreadPool::set_global_threads(util::ThreadPool::default_thread_count());
}

TEST(VecLayoutBitIdentity, KronSum2MatchesColumnForm) {
    // n = 48: the four 48^3 basis-change products are large enough to split.
    util::Rng rng(1410);
    const int n = 48;
    auto schur = schur_of(test::random_stable_matrix(n, rng));
    const tn::KronSum2Solver solver(schur);
    const test::RefKronSum2 ref(schur);
    const ZVec rhs = sparse_kron_rhs(n, test::random_zvector(n, rng));
    expect_chain_bit_equal(solver, ref, rhs, Complex(0.3, 0.45));
}

TEST(VecLayoutBitIdentity, G1KronSumGtilde2MatchesColumnForm) {
    // The A3(H3) operator G1 (+) Gt2, Gt2 = [[G1, G2], [0, G1 (+) G1]], at
    // n = 24: its outer 24 x 24 x 600 products split across the pool.
    util::Rng rng(1411);
    const int n = 24;
    auto schur = schur_of(test::random_stable_matrix(n, rng));
    sparse::SparseTensor3 g2(n, n, n);
    for (int k = 0; k < 4 * n; ++k)
        g2.add(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1),
               rng.gaussian());
    auto ks2 = std::make_shared<tn::KronSum2Solver>(schur);
    auto ref_ks2 = std::make_shared<test::RefKronSum2>(schur);
    auto gt2 = std::make_shared<tn::BlockTriangularSolver>(schur, g2, ks2);
    auto ref_gt2 = std::make_shared<tn::BlockTriangularSolver>(schur, g2, ref_ks2);
    const tn::KronSumLeftSolver solver(schur, gt2);
    const test::RefKronSumLeft ref(schur, ref_gt2);
    const ZVec rhs = sparse_kron_rhs(n, test::random_zvector(n + n * n, rng));
    expect_chain_bit_equal(solver, ref, rhs, Complex(1.0, 0.0));
}

}  // namespace
}  // namespace atmor
