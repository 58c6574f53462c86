// The tentpole seam: LinearOperator + SolverBackend with the factorization
// cache keyed by (operator, shift), and the sparse LU underneath it with its
// fill-reducing order, chosen from the pattern.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "circuits/mixer.hpp"
#include "circuits/nltl.hpp"
#include "circuits/power_grid.hpp"
#include "circuits/rf_receiver.hpp"
#include "la/lu.hpp"
#include "la/operator.hpp"
#include "la/schur.hpp"
#include "la/solver_backend.hpp"
#include "la/vector_ops.hpp"
#include "sparse/splu.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "volterra/qldae.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::Vec;
using la::ZVec;

Matrix random_sparse_stable(int n, double density, util::Rng& rng) {
    Matrix a(n, n);
    const int per_row = std::max(1, static_cast<int>(density * n));
    for (int i = 0; i < n; ++i) {
        for (int t = 0; t < per_row; ++t) a(i, rng.uniform_int(0, n - 1)) = rng.gaussian();
        a(i, i) -= 4.0 + per_row;  // diagonally dominant => stable, well conditioned
    }
    return a;
}

TEST(SparseLu, MatchesDenseLuOnRandomSparseMatrix) {
    util::Rng rng(42);
    const int n = 40;
    const Matrix a = random_sparse_stable(n, 0.1, rng);
    const sparse::CsrMatrix s = sparse::CsrMatrix::from_dense(a);
    const Vec b = test::random_vector(n, rng);

    const Vec x_sparse = sparse::splu(s).solve(b);
    const Vec x_dense = la::solve(a, b);
    EXPECT_LT(la::dist2(x_sparse, x_dense), 1e-10);
}

TEST(SparseLu, ShiftedRealFactorisation) {
    util::Rng rng(43);
    const int n = 30;
    const Matrix a = random_sparse_stable(n, 0.15, rng);
    const sparse::CsrMatrix s = sparse::CsrMatrix::from_dense(a);
    const Vec b = test::random_vector(n, rng);
    const double sigma = 0.7;

    // Reference: dense (sigma I - A) solve.
    Matrix shifted = a;
    shifted *= -1.0;
    for (int i = 0; i < n; ++i) shifted(i, i) += sigma;
    const Vec ref = la::solve(shifted, b);

    const Vec x = sparse::splu_shifted(s, sigma).solve(b);
    EXPECT_LT(la::dist2(x, ref), 1e-10);
}

TEST(SparseLu, ComplexShiftMatchesSchur) {
    util::Rng rng(44);
    const int n = 25;
    const Matrix a = test::random_stable_matrix(n, rng);
    const sparse::CsrMatrix s = sparse::CsrMatrix::from_dense(a);
    const ZVec b = test::random_zvector(n, rng);
    const Complex sigma(0.4, 1.3);

    const ZVec ref = la::ComplexSchur(a).solve_shifted(sigma, b);
    const ZVec x = sparse::splu_shifted(s, sigma).solve(b);
    EXPECT_LT(la::dist2(x, ref), 1e-9);
}

TEST(SparseLu, RequiresPivotingOnZeroDiagonal) {
    // [[0 1], [1 0]] has a structurally zero diagonal: natural-order LU
    // without pivoting would break down immediately.
    sparse::CooBuilder coo(2, 2);
    coo.add(0, 1, 1.0);
    coo.add(1, 0, 1.0);
    const sparse::CsrMatrix s(coo);
    const Vec x = sparse::splu(s).solve(Vec{3.0, 5.0});
    EXPECT_DOUBLE_EQ(x[0], 5.0);
    EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(SparseLu, SingularMatrixThrows) {
    sparse::CooBuilder coo(3, 3);
    coo.add(0, 0, 1.0);
    coo.add(1, 1, 1.0);  // column/row 2 empty => structurally singular
    const sparse::CsrMatrix s(coo);
    EXPECT_THROW(sparse::splu(s), util::InternalError);
}

TEST(SparseLu, BandedSystemHasNoFill) {
    // Tridiagonal: natural-order LU stays tridiagonal (no fill-in), which is
    // the structural bet the sparse-first pipeline makes on MNA ladders.
    const int n = 200;
    sparse::CooBuilder coo(n, n);
    for (int i = 0; i < n; ++i) {
        coo.add(i, i, 4.0);
        if (i > 0) coo.add(i, i - 1, -1.0);
        if (i + 1 < n) coo.add(i, i + 1, -1.0);
    }
    const sparse::CsrMatrix s(coo);
    const sparse::SpLu lu = sparse::splu(s);
    EXPECT_LE(lu.factor_nnz(), 4 * n);  // L: diag + subdiag, U: diag + superdiag
    EXPECT_GT(lu.pivot_ratio(), 0.1);
}

TEST(Operator, DenseAndSparseAgree) {
    util::Rng rng(45);
    const Matrix a = random_sparse_stable(12, 0.2, rng);
    const la::DenseOperator dop{a};
    const la::SparseOperator sop{sparse::CsrMatrix::from_dense(a)};
    const Vec x = test::random_vector(12, rng);
    EXPECT_LT(la::dist2(dop.apply(x), sop.apply(x)), 1e-13);
    EXPECT_TRUE(sop.is_sparse());
    EXPECT_FALSE(dop.is_sparse());
    EXPECT_NE(dop.id(), sop.id());
}

class BackendCase : public ::testing::TestWithParam<int> {};

std::shared_ptr<la::SolverBackend> make_backend(int which) {
    switch (which) {
        case 0: return std::make_shared<la::DenseLuBackend>();
        case 1: return std::make_shared<la::SparseLuBackend>();
        default: return std::make_shared<la::SchurBackend>();
    }
}

TEST_P(BackendCase, ShiftedSolveMatchesOneShotDense) {
    util::Rng rng(47);
    const int n = 20;
    const Matrix a = test::random_stable_matrix(n, rng);
    auto sp = la::make_sparse_operator(sparse::CsrMatrix::from_dense(a));
    auto backend = make_backend(GetParam());
    const Complex sigma(0.3, 0.9);
    const ZVec b = test::random_zvector(n, rng);

    const ZVec x = backend->solve_shifted(*sp, sigma, b);
    const ZVec ref = la::ComplexSchur(a).solve_shifted(sigma, b);
    EXPECT_LT(la::dist2(x, ref), 1e-9);

    // Real-shift real solve agrees with dense one-shot la::solve.
    Matrix shifted = a;
    shifted *= -1.0;
    for (int i = 0; i < n; ++i) shifted(i, i) += 2.0;
    const Vec rb = test::random_vector(n, rng);
    EXPECT_LT(la::dist2(backend->solve_shifted(*sp, 2.0, rb), la::solve(shifted, rb)), 1e-9);

    // Plain solve A x = b.
    EXPECT_LT(la::dist2(backend->solve(*sp, rb), la::solve(a, rb)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendCase, ::testing::Values(0, 1, 2));

TEST(SolverCache, HitAndMissSemantics) {
    util::Rng rng(48);
    const int n = 15;
    auto op1 = la::make_dense_operator(test::random_stable_matrix(n, rng));
    auto op2 = la::make_dense_operator(test::random_stable_matrix(n, rng));
    la::DenseLuBackend backend;
    const ZVec b = test::random_zvector(n, rng);
    const Complex s1(1.0, 0.0), s2(2.0, 0.5);

    (void)backend.solve_shifted(*op1, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 1);
    EXPECT_EQ(backend.stats().cache_hits, 0);

    // Same (operator, shift): cache hit, no new factorisation.
    (void)backend.solve_shifted(*op1, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 1);
    EXPECT_EQ(backend.stats().cache_hits, 1);

    // New shift on the same operator: miss.
    (void)backend.solve_shifted(*op1, s2, b);
    EXPECT_EQ(backend.stats().factorizations, 2);

    // Different operator, same shift: miss.
    (void)backend.solve_shifted(*op2, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 3);

    // All three cached entries replay as hits.
    (void)backend.solve_shifted(*op1, s2, b);
    (void)backend.solve_shifted(*op2, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 3);
    EXPECT_EQ(backend.stats().cache_hits, 3);
    EXPECT_EQ(backend.stats().solves, 6);

    backend.clear_cache();
    (void)backend.solve_shifted(*op1, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 4);
}

TEST(SolverCache, EvictionIsFifoAndHandlesStayValid) {
    util::Rng rng(49);
    const int n = 10;
    auto op = la::make_dense_operator(test::random_stable_matrix(n, rng));
    la::DenseLuBackend backend(2);  // tiny cache
    const ZVec b = test::random_zvector(n, rng);

    auto f1 = backend.factorization(*op, Complex(1.0, 0.0));
    (void)backend.factorization(*op, Complex(2.0, 0.0));
    EXPECT_EQ(backend.cached_count(), 2u);
    (void)backend.factorization(*op, Complex(3.0, 0.0));  // evicts shift 1
    EXPECT_EQ(backend.cached_count(), 2u);

    // Shift 1 was evicted => re-factoring it is a miss...
    const long before = backend.stats().factorizations;
    (void)backend.factorization(*op, Complex(1.0, 0.0));
    EXPECT_EQ(backend.stats().factorizations, before + 1);
    // ...but the handle we kept still solves correctly.
    const ZVec x = f1->solve(b);
    const ZVec ref = backend.solve_shifted(*op, Complex(1.0, 0.0), b);
    EXPECT_LT(la::dist2(x, ref), 1e-12);
}

TEST(SolverCache, CorrectnessAgainstOneShotSolveAfterManyReplays) {
    // Factor once, solve many: every replayed solve must equal the one-shot
    // la::solve answer, or the cache is silently corrupting the pipeline.
    util::Rng rng(50);
    const int n = 18;
    const Matrix a = random_sparse_stable(n, 0.2, rng);
    auto op = la::make_sparse_operator(sparse::CsrMatrix::from_dense(a));
    la::SparseLuBackend backend;
    Matrix shifted = a;
    shifted *= -1.0;
    for (int i = 0; i < n; ++i) shifted(i, i) += 1.5;

    for (int t = 0; t < 20; ++t) {
        const Vec b = test::random_vector(n, rng);
        EXPECT_LT(la::dist2(backend.solve_shifted(*op, 1.5, b), la::solve(shifted, b)), 1e-9);
    }
    EXPECT_EQ(backend.stats().factorizations, 1);
    EXPECT_EQ(backend.stats().cache_hits, 19);
}

TEST(SolverCache, FactorizeBypassesCache) {
    // Throwaway operators (per-refactor Newton Jacobians) must not occupy
    // cache slots their never-recurring ids can't hit again.
    util::Rng rng(52);
    const int n = 8;
    auto op = la::make_dense_operator(test::random_stable_matrix(n, rng));
    la::DenseLuBackend backend;
    auto f = backend.factorize(*op, Complex(1.0, 0.0));
    EXPECT_EQ(backend.stats().factorizations, 1);
    EXPECT_EQ(backend.cached_count(), 0u);
    const Vec b = test::random_vector(n, rng);
    EXPECT_LT(la::dist2(f->solve(b), backend.solve_shifted(*op, 1.0, b)), 1e-12);
}

TEST(Factorization, PivotRatioFlagsNearSingularShift) {
    // A = diag(1, 2): shift 1 + 1e-14 is numerically on top of an eigenvalue.
    la::Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(1, 1) = 2.0;
    auto op = la::make_sparse_operator(sparse::CsrMatrix::from_dense(a));
    la::SparseLuBackend sparse_backend;
    EXPECT_LT(sparse_backend.factorization(*op, Complex(1.0 + 1e-14, 0.0))->pivot_ratio(),
              1e-12);
    EXPECT_GT(sparse_backend.factorization(*op, Complex(3.0, 0.0))->pivot_ratio(), 1e-3);
    la::SchurBackend schur_backend;
    EXPECT_LT(schur_backend.factorization(*op, Complex(1.0 + 1e-14, 0.0))->pivot_ratio(),
              1e-12);
}

TEST(SchurBackend, OneSchurManyShifts) {
    util::Rng rng(51);
    const int n = 16;
    const Matrix a = test::random_stable_matrix(n, rng);
    auto op = la::make_dense_operator(a);
    la::SchurBackend backend;
    const ZVec b = test::random_zvector(n, rng);
    for (int k = 1; k <= 5; ++k)
        (void)backend.solve_shifted(*op, Complex(0.1 * k, 0.2 * k), b);
    EXPECT_EQ(backend.schur_count(), 1);  // one O(n^3) factorisation total
}

// ---------------------------------------------------------------------------
// Fill-reducing orders.
// ---------------------------------------------------------------------------

/// Reverse Cuthill-McKee with a root search that rescans every node per
/// component: the reference the linear-time search must reproduce exactly.
std::vector<int> reference_rcm(const sparse::Csc<double>& a) {
    const int n = a.n;
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j)
        for (int p = a.col_ptr[static_cast<std::size_t>(j)];
             p < a.col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
            const int i = a.row_idx[static_cast<std::size_t>(p)];
            if (i == j) continue;
            adj[static_cast<std::size_t>(i)].push_back(j);
            adj[static_cast<std::size_t>(j)].push_back(i);
        }
    for (auto& nb : adj) {
        std::sort(nb.begin(), nb.end());
        nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    }
    auto degree = [&](int v) { return static_cast<int>(adj[static_cast<std::size_t>(v)].size()); };
    std::vector<int> order;
    std::vector<char> visited(static_cast<std::size_t>(n), 0);
    std::vector<int> queue;
    for (;;) {
        int root = -1;
        for (int v = 0; v < n; ++v)
            if (!visited[static_cast<std::size_t>(v)] && (root < 0 || degree(v) < degree(root)))
                root = v;
        if (root < 0) break;
        queue.clear();
        queue.push_back(root);
        visited[static_cast<std::size_t>(root)] = 1;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const int v = queue[head];
            order.push_back(v);
            std::vector<int> next;
            for (int w : adj[static_cast<std::size_t>(v)])
                if (!visited[static_cast<std::size_t>(w)]) {
                    visited[static_cast<std::size_t>(w)] = 1;
                    next.push_back(w);
                }
            std::sort(next.begin(), next.end(),
                      [&](int x, int y) { return degree(x) < degree(y); });
            queue.insert(queue.end(), next.begin(), next.end());
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

bool is_permutation(const std::vector<int>& q, int n) {
    if (static_cast<int>(q.size()) != n) return false;
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    for (int v : q) {
        if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
        seen[static_cast<std::size_t>(v)] = 1;
    }
    return true;
}

sparse::CsrMatrix pattern_matrix(int n, const std::vector<std::pair<int, int>>& entries,
                                 util::Rng& rng) {
    sparse::CooBuilder coo(n, n);
    for (const auto& [i, j] : entries) coo.add(i, j, rng.uniform(0.5, 1.5));
    return sparse::CsrMatrix(coo);
}

/// Random pattern whose nodes fall into `parts` components (plus isolated
/// nodes), each entry stored one way only: structurally unsymmetric.
sparse::CsrMatrix random_disconnected(int n, int parts, double density, util::Rng& rng) {
    std::vector<int> part(static_cast<std::size_t>(n));
    for (auto& p : part) p = rng.uniform_int(0, parts);  // part == parts: isolated
    std::vector<std::pair<int, int>> entries;
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (i != j && part[static_cast<std::size_t>(i)] == part[static_cast<std::size_t>(j)] &&
                part[static_cast<std::size_t>(i)] < parts && rng.uniform() < density)
                entries.emplace_back(i, j);
    return pattern_matrix(n, entries, rng);
}

circuits::PowerGridOptions mesh(int side) {
    circuits::PowerGridOptions opt;
    opt.rows = side;
    opt.cols = side;
    opt.clamps = 8;
    opt.pitch_resistance = 0.02;
    opt.decap = 0.2;
    opt.load_conductance = 0.02;
    return opt;
}

TEST(SparseOrdering, RcmMatchesReferenceOnDisconnectedPatterns) {
    util::Rng rng(60);
    for (int trial = 0; trial < 60; ++trial) {
        const int n = rng.uniform_int(1, 150);
        const sparse::CsrMatrix a =
            random_disconnected(n, rng.uniform_int(1, 12), rng.uniform(0.0, 0.15), rng);
        const sparse::Csc<double> csc = sparse::shifted_csc(a, 1.0);
        const std::vector<int> ref = reference_rcm(csc);
        // CSR arrays of A and CSC arrays of (I - A) describe one A + A^T.
        EXPECT_EQ(sparse::rcm_order(n, a.row_ptr(), a.col_idx()), ref) << "trial " << trial;
        EXPECT_EQ(sparse::rcm_order(n, csc.col_ptr, csc.row_idx), ref) << "trial " << trial;
    }
}

TEST(SparseOrdering, DiagonalPatternFactorsInLinearTime) {
    // 100,000 singleton components. A root search that rescans every node
    // per component is quadratic here and takes over half a minute.
    const int n = 100000;
    sparse::CooBuilder coo(n, n);
    for (int i = 0; i < n; ++i) coo.add(i, i, 1.0 + i % 7);
    const sparse::CsrMatrix a(coo);
    const util::Timer timer;
    const sparse::SpLu lu = sparse::splu_shifted(a, 10.0);
    EXPECT_LT(timer.seconds(), 2.0);
    EXPECT_EQ(lu.factor_nnz(), 2L * n);
    const Vec x = lu.solve(Vec(static_cast<std::size_t>(n), 1.0));
    for (int i : {0, 1, 6, n - 1})
        EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(i)], 1.0 / (10.0 - (1.0 + i % 7)));
}

TEST(SparseOrdering, EveryOrderIsAPermutationAndFactorsCorrectly) {
    util::Rng rng(61);
    std::vector<std::pair<std::string, sparse::CsrMatrix>> cases;
    cases.emplace_back("n = 1", pattern_matrix(1, {{0, 0}}, rng));
    cases.emplace_back("empty n = 1", pattern_matrix(1, {}, rng));
    {
        std::vector<std::pair<int, int>> e;
        for (int i = 0; i < 50; ++i) e.emplace_back(i, i);
        cases.emplace_back("diagonal", pattern_matrix(50, e, rng));
    }
    {
        std::vector<std::pair<int, int>> e;
        for (int i = 0; i < 30; ++i)
            for (int j = 0; j < 30; ++j) e.emplace_back(i, j);
        cases.emplace_back("dense", pattern_matrix(30, e, rng));
    }
    cases.emplace_back("disconnected", random_disconnected(120, 6, 0.08, rng));
    {
        // Lower triangle plus a few upper entries: A != A^T structurally.
        std::vector<std::pair<int, int>> e;
        for (int i = 0; i < 80; ++i)
            for (int j = 0; j < i; ++j)
                if (rng.uniform() < 0.05) e.emplace_back(i, j);
        e.emplace_back(3, 70);
        e.emplace_back(10, 41);
        cases.emplace_back("unsymmetric", pattern_matrix(80, e, rng));
    }
    {
        // 20x20 grid plus one row and column touching every node: past the
        // 10 sqrt(n) density cut, so minimum degree orders it last.
        const int side = 20, n = side * side + 1;
        std::vector<std::pair<int, int>> e;
        for (int r = 0; r < side; ++r)
            for (int c = 0; c < side; ++c) {
                const int v = r * side + c;
                if (c + 1 < side) e.emplace_back(v, v + 1);
                if (r + 1 < side) e.emplace_back(v + side, v);
                e.emplace_back(n - 1, v);
                e.emplace_back(v, n - 1);
            }
        cases.emplace_back("grid with a dense row", pattern_matrix(n, e, rng));
    }
    for (int trial = 0; trial < 40; ++trial) {
        const int n = rng.uniform_int(2, 90);
        const double density = rng.uniform(0.0, trial % 2 ? 0.4 : 0.06);
        std::vector<std::pair<int, int>> e;
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                if (rng.uniform() < density) e.emplace_back(i, j);
        cases.emplace_back("random " + std::to_string(trial), pattern_matrix(n, e, rng));
    }

    for (const auto& [name, a] : cases) {
        const int n = a.rows();
        const std::vector<int>& ptr = a.row_ptr();
        const std::vector<int>& idx = a.col_idx();
        const std::vector<int> rcm = sparse::rcm_order(n, ptr, idx);
        const std::vector<int> amd = sparse::amd_order(n, ptr, idx);
        const std::vector<int> chosen = sparse::fill_reducing_order(n, ptr, idx);
        EXPECT_TRUE(is_permutation(rcm, n)) << name;
        EXPECT_TRUE(is_permutation(amd, n)) << name;
        EXPECT_TRUE(chosen == rcm || chosen == amd) << name;
        // The order depends on the pattern alone: the same arrays again give
        // the same order.
        EXPECT_EQ(sparse::amd_order(n, ptr, idx), amd) << name;

        // Shifted by more than any row sum, (s I - A) is diagonally dominant:
        // every order must factor it and solve it like dense LU.
        const double shift = 2.0 * n + 2.0;
        const Vec b = test::random_vector(n, rng);
        Matrix dense = a.to_dense();
        dense *= -1.0;
        for (int i = 0; i < n; ++i) dense(i, i) += shift;
        const Vec ref = la::solve(dense, b);
        for (const std::vector<int>* q : {&rcm, &amd}) {
            const Vec x = sparse::SpLu(sparse::shifted_csc(a, shift), *q).solve(b);
            EXPECT_LT(la::dist2(x, ref), 1e-12 * (1.0 + la::norm2(ref))) << name;
        }
    }
}

TEST(SparseOrdering, SparseLuRejectsAnInvalidOrder) {
    util::Rng rng(62);
    const sparse::CsrMatrix a = pattern_matrix(3, {{0, 1}, {1, 2}}, rng);
    const sparse::Csc<double> csc = sparse::shifted_csc(a, 4.0);
    EXPECT_THROW(sparse::SpLu(csc, {0, 1}), util::PreconditionError);
    EXPECT_THROW(sparse::SpLu(csc, {0, 1, 1}), util::PreconditionError);
    EXPECT_THROW(sparse::SpLu(csc, {0, 1, 3}), util::PreconditionError);
}

TEST(SparseOrdering, LaddersKeepTheirRcmOrder) {
    // Ladder and tree stamps factor fill-free under RCM, so the selection
    // never reaches minimum degree and their factors stay what RCM gives.
    std::vector<std::pair<std::string, volterra::Qldae>> cases;
    for (int stages : {35, 1000}) {
        circuits::NltlOptions o;
        o.stages = stages;
        cases.emplace_back("NLTL " + std::to_string(stages),
                           circuits::current_source_line(o).to_qldae());
    }
    cases.emplace_back("RF receiver", circuits::rf_receiver());
    for (int sections : {2, 4}) {
        circuits::MixerOptions m;
        m.rf_sections = m.lo_sections = m.if_sections = sections;
        cases.emplace_back("mixer " + std::to_string(sections), circuits::mixer(m));
    }
    for (const auto& [name, q] : cases) {
        // G1's pattern as SparseLuBackend factors it: a dense G1 goes through CSR.
        const sparse::CsrMatrix a =
            q.g1_csr() ? *q.g1_csr() : sparse::CsrMatrix::from_dense(q.g1_op().to_dense());
        EXPECT_EQ(sparse::fill_reducing_order(a.rows(), a.row_ptr(), a.col_idx()),
                  sparse::rcm_order(a.rows(), a.row_ptr(), a.col_idx()))
            << name;
    }
}

TEST(SparseOrdering, FillTiesKeepRcm) {
    // A ring and a 2 x 6 grid fill under every order, and minimum degree
    // predicts exactly RCM's fill with a different permutation: a tie keeps
    // RCM.
    util::Rng rng(66);
    std::vector<std::pair<int, int>> ring, ladder;
    for (int i = 0; i < 10; ++i) ring.emplace_back(i, (i + 1) % 10);
    for (int c = 0; c < 6; ++c) {
        if (c + 1 < 6) {
            ladder.emplace_back(c, c + 1);
            ladder.emplace_back(c + 6, c + 7);
        }
        ladder.emplace_back(c, c + 6);
    }
    for (const sparse::CsrMatrix& a :
         {pattern_matrix(10, ring, rng), pattern_matrix(12, ladder, rng)}) {
        const int n = a.rows();
        const std::vector<int> rcm = sparse::rcm_order(n, a.row_ptr(), a.col_idx());
        EXPECT_NE(sparse::amd_order(n, a.row_ptr(), a.col_idx()), rcm);
        EXPECT_EQ(sparse::fill_reducing_order(n, a.row_ptr(), a.col_idx()), rcm);
    }
}

TEST(SparseOrdering, MeshTakesMinimumDegreeAndSolvesAlike) {
    const volterra::Qldae full = circuits::power_grid(mesh(40)).to_qldae();
    const sparse::CsrMatrix& a = *full.g1_csr();
    const int n = a.rows();
    const sparse::Csc<Complex> csc = sparse::shifted_csc(a, Complex(0.0, 1.1));
    const sparse::ZSpLu by_rcm(csc, sparse::rcm_order(n, a.row_ptr(), a.col_idx()));
    const sparse::ZSpLu chosen(csc, sparse::fill_reducing_order(n, a.row_ptr(), a.col_idx()));
    EXPECT_LE(2 * chosen.factor_nnz(), by_rcm.factor_nnz());
    util::Rng rng(63);
    const ZVec b = test::random_zvector(n, rng);
    const ZVec x_rcm = by_rcm.solve(b);
    EXPECT_LT(la::dist2(chosen.solve(b), x_rcm), 1e-12 * la::norm2(x_rcm));
}

// ---------------------------------------------------------------------------
// In-place backsolves: solve_into is the one real solve, solve() wraps it.
// ---------------------------------------------------------------------------

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// solve_into equals solve and the one-column blocked solve bit for bit,
/// into a warmed x (whose storage it keeps), a wrongly sized x and an empty
/// one; a mis-sized b or b aliasing x is a PreconditionError.
template <class F, class T>
void expect_solve_into_matches(const F& f, const std::vector<T>& b, const std::string& what) {
    const std::vector<T> ref = f.solve(b);
    la::DenseMatrix<T> block(f.dim(), 1);
    block.set_col(0, b);
    EXPECT_TRUE(same_bits(f.solve(block).col(0), ref)) << what << ": blocked";

    std::vector<T> x(b.size(), T(7));
    const T* storage = x.data();
    f.solve_into(b, x);
    EXPECT_TRUE(same_bits(x, ref)) << what << ": warmed x";
    EXPECT_EQ(x.data(), storage) << what;
    for (std::vector<T> y : {std::vector<T>{}, std::vector<T>(b.size() + 3, T(1))}) {
        f.solve_into(b, y);
        EXPECT_TRUE(same_bits(y, ref)) << what << ": x of size " << y.size();
    }

    std::vector<T> self = b;
    EXPECT_THROW(f.solve_into(self, self), util::PreconditionError) << what;
    const std::vector<T> short_b(b.begin(), b.end() - 1);
    EXPECT_THROW(f.solve_into(short_b, x), util::PreconditionError) << what;
}

TEST(SolveInto, LuFactorsMatchSolveBitForBit) {
    circuits::NltlOptions line;
    line.stages = 35;
    const volterra::Qldae nltl = circuits::current_source_line(line).to_qldae();
    const volterra::Qldae grid = circuits::power_grid(mesh(40)).to_qldae();
    // The ladder factors under RCM, the mesh under minimum degree (see
    // LaddersKeepTheirRcmOrder and MeshTakesMinimumDegreeAndSolvesAlike).
    const sparse::CsrMatrix& ladder = *nltl.g1_csr();
    const sparse::CsrMatrix& mesh40 = *grid.g1_csr();
    util::Rng rng(71);
    const Complex shift(0.0, 1.1);
    const std::pair<std::string, const sparse::CsrMatrix*> sparse_cases[] = {
        {"NLTL", &ladder}, {"40x40 mesh", &mesh40}};
    for (const auto& [name, a] : sparse_cases) {
        const Vec b = test::random_vector(a->rows(), rng);
        const ZVec zb = test::random_zvector(a->rows(), rng);
        expect_solve_into_matches(sparse::splu_shifted(*a, 1.0), b, name + " SpLu");
        expect_solve_into_matches(sparse::splu_shifted(*a, shift), zb, name + " ZSpLu");
    }
    // Dense LU on the ladder and on a mesh small enough to factor densely.
    const volterra::Qldae small_grid = circuits::power_grid(mesh(12)).to_qldae();
    const std::pair<std::string, const volterra::Qldae*> dense_cases[] = {
        {"NLTL", &nltl}, {"12x12 mesh", &small_grid}};
    for (const auto& [name, q] : dense_cases) {
        Matrix a = q->g1_op().to_dense();
        a *= -1.0;
        la::ZMatrix za = la::complexify(a);
        for (int i = 0; i < a.rows(); ++i) {
            a(i, i) += 1.0;
            za(i, i) += shift;
        }
        expect_solve_into_matches(la::Lu(a), test::random_vector(a.rows(), rng), name + " Lu");
        expect_solve_into_matches(la::ZLu(za), test::random_zvector(a.rows(), rng),
                                  name + " ZLu");
    }
}

TEST(SolveInto, BackendFactorizationsMatchSolveBitForBit) {
    circuits::NltlOptions line;
    line.stages = 35;
    const volterra::Qldae nltl = circuits::current_source_line(line).to_qldae();
    const volterra::Qldae grid = circuits::power_grid(mesh(40)).to_qldae();
    util::Rng rng(72);
    for (int which : {0, 1, 2}) {
        auto backend = make_backend(which);
        const auto f = backend->factorization(nltl.g1_op(), Complex(1.0, 0.0));
        expect_solve_into_matches(*f, test::random_vector(nltl.order(), rng),
                                  std::string("NLTL ") + backend->name());
    }
    la::SparseLuBackend sparse_backend;
    const auto f = sparse_backend.factorization(grid.g1_op(), Complex(1.0, 0.0));
    expect_solve_into_matches(*f, test::random_vector(grid.order(), rng), "40x40 mesh sparse-lu");
}

TEST(SolveInto, ComplexShiftThrowsAsTheRealSolveDoes) {
    circuits::NltlOptions line;
    line.stages = 12;
    const volterra::Qldae nltl = circuits::current_source_line(line).to_qldae();
    util::Rng rng(73);
    const Vec b = test::random_vector(nltl.order(), rng);
    for (int which : {0, 1, 2}) {
        auto backend = make_backend(which);
        const auto f = backend->factorization(nltl.g1_op(), Complex(0.3, 0.9));
        std::string solve_what, into_what;
        try {
            (void)f->solve(b);
        } catch (const util::InternalError& e) {
            solve_what = e.what();
        }
        Vec x;
        try {
            f->solve_into(b, x);
        } catch (const util::InternalError& e) {
            into_what = e.what();
        }
        EXPECT_NE(into_what.find("real"), std::string::npos)
            << backend->name() << ": " << into_what;
        EXPECT_EQ(into_what, solve_what) << backend->name();
        // The real-shift check comes first, as it always has.
        EXPECT_THROW(f->solve_into(Vec(3, 1.0), x), util::InternalError) << backend->name();
    }
}

TEST(SolverCache, ConcurrentShiftsMatchSerialFactors) {
    // The order depends on the pattern only: mesh factors computed on four
    // workers are bytewise those computed serially.
    const volterra::Qldae full = circuits::power_grid(mesh(24)).to_qldae();
    const la::LinearOperator& op = full.g1_op();
    const int n = full.order();
    util::Rng rng(65);
    const ZVec b = test::random_zvector(n, rng);
    const auto shift = [](long k) { return Complex(0.1 * static_cast<double>(k), 0.3 * k + 0.25); };

    la::SparseLuBackend serial;
    std::vector<ZVec> expect(8);
    std::vector<double> expect_ratio(8);
    for (long k = 0; k < 8; ++k) {
        const auto f = serial.factorization(op, shift(k));
        expect[static_cast<std::size_t>(k)] = f->solve(b);
        expect_ratio[static_cast<std::size_t>(k)] = f->pivot_ratio();
    }

    la::SparseLuBackend shared;
    std::vector<ZVec> got(8);
    std::vector<double> got_ratio(8);
    util::ThreadPool pool(4);
    pool.parallel_for(0, 8, [&](long k) {
        const auto f = shared.factorization(op, shift(k));
        got[static_cast<std::size_t>(k)] = f->solve(b);
        got_ratio[static_cast<std::size_t>(k)] = f->pivot_ratio();
    });
    for (std::size_t k = 0; k < 8; ++k) {
        ASSERT_EQ(got[k].size(), expect[k].size());
        EXPECT_EQ(std::memcmp(got[k].data(), expect[k].data(), got[k].size() * sizeof(Complex)), 0)
            << "shift " << k;
        EXPECT_EQ(got_ratio[k], expect_ratio[k]) << "shift " << k;
    }
    EXPECT_EQ(shared.stats().factorizations, 8);
}

}  // namespace
}  // namespace atmor
