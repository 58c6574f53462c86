// Multi-RHS blocked solves must be BIT-FOR-BIT equivalent to repeated
// single-RHS solves on every backend: the parallel/batched pipeline promises
// reduced models identical to the serial pipeline, and that guarantee
// bottoms out here.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "circuits/nltl.hpp"
#include "circuits/power_grid.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/solver_backend.hpp"
#include "sparse/csr.hpp"
#include "sparse/splu.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "volterra/qldae.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::Vec;
using la::ZMatrix;
using la::ZVec;

Matrix random_matrix(int rows, int cols, std::uint64_t seed) {
    util::Rng rng(seed);
    Matrix m(rows, cols);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j) m(i, j) = rng.gaussian();
    return m;
}

ZMatrix random_zmatrix(int rows, int cols, std::uint64_t seed) {
    util::Rng rng(seed);
    ZMatrix m(rows, cols);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j) m(i, j) = Complex(rng.gaussian(), rng.gaussian());
    return m;
}

Matrix diagonally_dominant(int n, std::uint64_t seed) {
    Matrix a = random_matrix(n, n, seed);
    for (int i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
    return a;
}

/// Exact (bitwise) equality of column c of a block result and a single-RHS
/// solve -- EXPECT_EQ on doubles is exact comparison.
template <class T>
void expect_identical_columns(const la::DenseMatrix<T>& block, const std::vector<T>& single,
                              int c) {
    ASSERT_EQ(static_cast<std::size_t>(block.rows()), single.size());
    for (int i = 0; i < block.rows(); ++i)
        EXPECT_EQ(block(i, c), single[static_cast<std::size_t>(i)])
            << "row " << i << " col " << c;
}

// ---------------------------------------------------------------------------
// Factor-level blocked solves.
// ---------------------------------------------------------------------------

TEST(MultiRhs, DenseLuBlockedMatchesSingleBitForBit) {
    const int n = 40, k = 7;
    const Matrix a = diagonally_dominant(n, 1);
    const Matrix b = random_matrix(n, k, 2);
    const la::Lu lu(a);
    const Matrix x = lu.solve(b);
    for (int c = 0; c < k; ++c) expect_identical_columns(x, lu.solve(b.col(c)), c);
}

TEST(MultiRhs, DenseComplexLuBlockedMatchesSingleBitForBit) {
    const int n = 33, k = 5;
    ZMatrix a = random_zmatrix(n, n, 3);
    for (int i = 0; i < n; ++i) a(i, i) += Complex(n, n);
    const ZMatrix b = random_zmatrix(n, k, 4);
    const la::ZLu lu(a);
    const ZMatrix x = lu.solve(b);
    for (int c = 0; c < k; ++c) expect_identical_columns(x, lu.solve(b.col(c)), c);
}

TEST(MultiRhs, SparseLuBlockedMatchesSingleBitForBit) {
    // The pipeline's actual sparsity patterns, with pivoting exercised: a
    // lifted NLTL keeps its RCM order, and a 2-D mesh takes minimum degree,
    // whose permutation is far from the identity.
    circuits::NltlOptions nopt;
    nopt.stages = 30;
    circuits::PowerGridOptions gopt;
    gopt.rows = 14;
    gopt.cols = 14;
    const volterra::Qldae line = circuits::current_source_line(nopt).to_qldae();
    const volterra::Qldae grid = circuits::power_grid(gopt).to_qldae();
    const sparse::CsrMatrix& g = *grid.g1_csr();
    ASSERT_NE(sparse::fill_reducing_order(g.rows(), g.row_ptr(), g.col_idx()),
              sparse::rcm_order(g.rows(), g.row_ptr(), g.col_idx()));
    for (const volterra::Qldae* sys : {&line, &grid}) {
        const int n = sys->order(), k = 9;
        const sparse::SpLu lu = sparse::splu_shifted(*sys->g1_csr(), 1.0);
        const Matrix b = random_matrix(n, k, 5);
        const Matrix x = lu.solve(b);
        for (int c = 0; c < k; ++c) expect_identical_columns(x, lu.solve(b.col(c)), c);
    }
}

TEST(MultiRhs, SparseComplexLuBlockedMatchesSingleBitForBit) {
    circuits::NltlOptions copt;
    copt.stages = 20;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    const int n = sys.order(), k = 6;
    const sparse::ZSpLu lu = sparse::splu_shifted(*sys.g1_csr(), Complex(0.8, 1.3));
    const ZMatrix b = random_zmatrix(n, k, 6);
    const ZMatrix x = lu.solve(b);
    for (int c = 0; c < k; ++c) expect_identical_columns(x, lu.solve(b.col(c)), c);
}

// ---------------------------------------------------------------------------
// Backend-level blocked solves: dense-LU, sparse-LU and Schur backends must
// all hold the bit-for-bit block == single contract, real and complex.
// ---------------------------------------------------------------------------

class BackendKinds : public ::testing::TestWithParam<const char*> {
protected:
    static std::shared_ptr<la::SolverBackend> make(const std::string& kind) {
        if (kind == "dense-lu") return std::make_shared<la::DenseLuBackend>();
        if (kind == "sparse-lu") return std::make_shared<la::SparseLuBackend>();
        return std::make_shared<la::SchurBackend>();
    }
};

TEST_P(BackendKinds, BlockSolveMatchesRepeatedSingleBitForBit) {
    const int n = 30, k = 8;
    const auto op = la::make_dense_operator(diagonally_dominant(n, 7));
    auto backend = make(GetParam());
    const Complex shift(2.5, 1.5);
    const ZMatrix b = random_zmatrix(n, k, 8);

    const ZMatrix x = backend->solve_shifted(*op, shift, b);
    for (int c = 0; c < k; ++c) {
        const ZVec single = backend->solve_shifted(*op, shift, b.col(c));
        expect_identical_columns(x, single, c);
    }
    EXPECT_EQ(backend->stats().solves, k + k);  // block counted k RHS
}

TEST_P(BackendKinds, RealBlockSolveMatchesRepeatedSingleBitForBit) {
    const int n = 26, k = 5;
    const auto op = la::make_dense_operator(diagonally_dominant(n, 9));
    auto backend = make(GetParam());
    const Matrix b = random_matrix(n, k, 10);

    const Matrix x = backend->solve_shifted(*op, 3.0, b);
    for (int c = 0; c < k; ++c) {
        const Vec single = backend->solve_shifted(*op, 3.0, b.col(c));
        expect_identical_columns(x, single, c);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendKinds,
                         ::testing::Values("dense-lu", "sparse-lu", "schur"));

TEST(MultiRhs, SparseBackendOnCsrOperatorBitForBit) {
    circuits::NltlOptions copt;
    copt.stages = 25;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    la::SparseLuBackend backend;
    const int k = 10;
    const ZMatrix b = random_zmatrix(sys.order(), k, 11);
    const ZMatrix x = backend.solve_shifted(sys.g1_op(), Complex(1.0, 0.0), b);
    for (int c = 0; c < k; ++c) {
        const ZVec single = backend.solve_shifted(sys.g1_op(), Complex(1.0, 0.0), b.col(c));
        expect_identical_columns(x, single, c);
    }
}

// ---------------------------------------------------------------------------
// SpMM and the GEMM.
// ---------------------------------------------------------------------------

// spmm accumulates elementwise (axpy across the block); matvec reduces each
// row with the reassociated spmv kernel. Per the kernel-layer numerical
// policy, reductions are pinned by tolerance, not bit-for-bit -- only the
// blocked-SOLVE paths keep exactness pins.
TEST(MultiRhs, CsrSpmmMatchesMatvecTightly) {
    circuits::NltlOptions copt;
    copt.stages = 15;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    const sparse::CsrMatrix& a = *sys.g1_csr();
    const Matrix x = random_matrix(a.cols(), 6, 12);
    const Matrix y = a.matmul(x);
    for (int c = 0; c < 6; ++c) {
        const Vec yc = a.matvec(x.col(c));
        for (int i = 0; i < y.rows(); ++i)
            EXPECT_NEAR(y(i, c), yc[static_cast<std::size_t>(i)], 1e-12)
                << "row " << i << " col " << c;
    }

    const ZMatrix zx = random_zmatrix(a.cols(), 4, 13);
    const ZMatrix zy = a.matmul(zx);
    for (int c = 0; c < 4; ++c) {
        const ZVec zyc = a.matvec(zx.col(c));
        for (int i = 0; i < zy.rows(); ++i)
            EXPECT_LT(std::abs(zy(i, c) - zyc[static_cast<std::size_t>(i)]), 1e-12)
                << "row " << i << " col " << c;
    }
}

/// C += A B by the serial ikj loop the GEMM must reproduce: ascending k per
/// output row, skipping A(i, k) == 0.
template <class T>
la::DenseMatrix<T> serial_gemm(const la::DenseMatrix<T>& a, const la::DenseMatrix<T>& b,
                               la::DenseMatrix<T> c) {
    for (int i = 0; i < a.rows(); ++i)
        for (int k = 0; k < a.cols(); ++k) {
            if (a(i, k) == T(0)) continue;
            la::row_update(c.row_ptr(i), a(i, k), b.row_ptr(k), b.cols());
        }
    return c;
}

template <class T>
void expect_same_bits(const la::DenseMatrix<T>& got, const la::DenseMatrix<T>& want) {
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    if (got.rows() == 0 || got.cols() == 0) return;  // memcmp needs non-null storage
    const std::size_t bytes = sizeof(T) * static_cast<std::size_t>(got.rows() * got.cols());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0);
}

template <class T>
void expect_split_gemm_bit_identical(const la::DenseMatrix<T>& a, la::DenseMatrix<T> b) {
    // Zero a few rows of B (matmul skips them) and entries of A.
    for (int k = 0; k < b.rows(); k += 7)
        for (int j = 0; j < b.cols(); ++j) b(k, j) = T(0);
    la::DenseMatrix<T> a0 = a;
    for (int i = 0; i < a0.rows(); i += 3) a0(i, i % a0.cols()) = T(0);
    la::DenseMatrix<T> c0(a0.rows(), b.cols());
    for (int i = 0; i < c0.rows(); ++i)
        for (int j = 0; j < c0.cols(); ++j) c0(i, j) = b(j % b.rows(), i % b.cols());
    const la::DenseMatrix<T> want = serial_gemm(a0, b, la::DenseMatrix<T>(a0.rows(), b.cols()));
    const la::DenseMatrix<T> want_acc = serial_gemm(a0, b, c0);
    for (const int threads : {1, 4}) {
        util::ThreadPool::set_global_threads(threads);
        expect_same_bits(la::matmul(a0, b), want);
        if constexpr (std::is_same_v<T, Complex>) {
            la::DenseMatrix<T> acc = c0;
            la::matmul_acc(a0.data(), b.data(), acc.data(), a0.rows(), a0.cols(), b.cols());
            expect_same_bits(acc, want_acc);
        }
    }
    util::ThreadPool::set_global_threads(util::ThreadPool::default_thread_count());
}

TEST(MultiRhs, SplitGemmMatchesSerialLoopBitForBit) {
    // Shapes straddling the column panels, above the split threshold: many
    // rows (row blocks), a single row (column panels only), and a square
    // product; real and complex.
    expect_split_gemm_bit_identical(random_matrix(70, 101, 14), random_matrix(101, 530, 15));
    expect_split_gemm_bit_identical(random_matrix(1, 90, 16), random_matrix(90, 1300, 17));
    expect_split_gemm_bit_identical(random_zmatrix(70, 70, 18), random_zmatrix(70, 70, 19));
    expect_split_gemm_bit_identical(random_zmatrix(24, 24, 20), random_zmatrix(24, 600, 21));
    expect_split_gemm_bit_identical(random_zmatrix(1, 69, 22), random_zmatrix(69, 4970, 23));
    // Below the threshold and degenerate shapes stay exact too.
    expect_split_gemm_bit_identical(random_zmatrix(5, 3, 24), random_zmatrix(3, 4, 25));
    expect_split_gemm_bit_identical(random_matrix(0, 3, 26), random_matrix(3, 4, 27));
}

}  // namespace
}  // namespace atmor
