#include "tensor/structured.hpp"

#include <algorithm>
#include <functional>

#include "la/sylvester.hpp"
#include "util/check.hpp"

namespace atmor::tensor {

using la::Complex;
using la::ZMatrix;
using la::ZVec;

// ---------------------------------------------------------------------------
// DenseSchurSolver
// ---------------------------------------------------------------------------

DenseSchurSolver::DenseSchurSolver(const la::Matrix& a)
    : schur_(std::make_shared<const la::ComplexSchur>(a)) {}

DenseSchurSolver::DenseSchurSolver(std::shared_ptr<const la::ComplexSchur> schur)
    : schur_(std::move(schur)) {
    ATMOR_REQUIRE(schur_ != nullptr, "DenseSchurSolver: null Schur factor");
}

// ---------------------------------------------------------------------------
// KronSum2Solver
// ---------------------------------------------------------------------------

KronSum2Solver::KronSum2Solver(std::shared_ptr<const la::ComplexSchur> schur_a)
    : schur_(std::move(schur_a)) {
    ATMOR_REQUIRE(schur_ != nullptr, "KronSum2Solver: null Schur factor");
    n_ = schur_->dim();
}

namespace {

/// vec(B X + X A^T) for X in C^{p x m} with B = inner (p x p) and A = outer
/// (m x m), on the vec layout: xt row c (length p) is column c of X.
ZVec apply_kron_sum(const std::function<ZVec(const ZVec&)>& inner, const la::ComplexSchur& outer,
                    int p, const ZVec& xt) {
    const int m = outer.dim();
    ZVec out(xt.size());
    // B X: column c of X is the contiguous row c of xt.
    for (int c = 0; c < m; ++c) {
        const std::size_t base = static_cast<std::size_t>(c) * static_cast<std::size_t>(p);
        const ZVec bx = inner(ZVec(xt.begin() + base, xt.begin() + base + p));
        std::copy(bx.begin(), bx.end(), out.begin() + base);
    }
    // + X A^T: row r of X (a strided column of xt) through A.
    ZVec row(static_cast<std::size_t>(m));
    for (int r = 0; r < p; ++r) {
        for (int c = 0; c < m; ++c)
            row[static_cast<std::size_t>(c)] =
                xt[static_cast<std::size_t>(c) * static_cast<std::size_t>(p) +
                   static_cast<std::size_t>(r)];
        const ZVec arow = outer.apply(row);
        for (int c = 0; c < m; ++c)
            out[static_cast<std::size_t>(c) * static_cast<std::size_t>(p) +
                static_cast<std::size_t>(r)] += arow[static_cast<std::size_t>(c)];
    }
    return out;
}

}  // namespace

ZVec KronSum2Solver::apply(const ZVec& x) const {
    ATMOR_REQUIRE(static_cast<int>(x.size()) == dim(), "KronSum2Solver::apply: size mismatch");
    return apply_kron_sum([this](const ZVec& v) { return schur_->apply(v); }, *schur_, n_, x);
}

ZVec KronSum2Solver::solve(Complex sigma, const ZVec& rhs) const {
    ATMOR_REQUIRE(static_cast<int>(rhs.size()) == dim(), "KronSum2Solver::solve: size mismatch");
    return la::resolvent_kron_sum_solve(*schur_, sigma, rhs);
}

// ---------------------------------------------------------------------------
// KronSumLeftSolver
// ---------------------------------------------------------------------------

KronSumLeftSolver::KronSumLeftSolver(std::shared_ptr<const la::ComplexSchur> outer_a,
                                     std::shared_ptr<const ShiftedSolver> inner_b)
    : outer_(std::move(outer_a)), inner_(std::move(inner_b)) {
    ATMOR_REQUIRE(outer_ != nullptr && inner_ != nullptr, "KronSumLeftSolver: null factor");
    m_ = outer_->dim();
    p_ = inner_->dim();
}

ZVec KronSumLeftSolver::apply(const ZVec& x) const {
    ATMOR_REQUIRE(static_cast<int>(x.size()) == dim(), "KronSumLeftSolver::apply: size mismatch");
    return apply_kron_sum([this](const ZVec& v) { return inner_->apply(v); }, *outer_, p_, x);
}

ZVec KronSumLeftSolver::solve(Complex sigma, const ZVec& rhs) const {
    ATMOR_REQUIRE(static_cast<int>(rhs.size()) == dim(), "KronSumLeftSolver::solve: size mismatch");
    const ZMatrix& t = outer_->t();
    const std::size_t p = static_cast<std::size_t>(p_);

    // sigma X - B X - X A^T = C  with  A = Z T Z^H. Setting Y = X conj(Z):
    //   sigma Y - B Y - Y T^T = C conj(Z),
    // solved by a descending column recurrence: column j couples to k > j via
    // T(j, k), and each column is an inner solve at shift sigma - T(j, j).
    // On the vec layout column j is row j of Y^T, whose right side is
    // Z^H C^T, and X^T = Z Y^T.
    ZVec yt(rhs.size());
    la::matmul_into(outer_->zh().data(), rhs.data(), yt.data(), m_, m_, p_);
    for (int j = m_ - 1; j >= 0; --j) {
        Complex* yj = yt.data() + static_cast<std::size_t>(j) * p;
        la::matmul_acc(t.row_ptr(j) + j + 1, yj + p, yj, 1, m_ - j - 1, p_);
        const ZVec col = inner_->solve(sigma - t(j, j), ZVec(yj, yj + p));
        std::copy(col.begin(), col.end(), yj);
    }
    ZVec xt(rhs.size());
    la::matmul_into(outer_->z().data(), yt.data(), xt.data(), m_, m_, p_);
    return xt;
}

// ---------------------------------------------------------------------------
// BlockTriangularSolver
// ---------------------------------------------------------------------------

BlockTriangularSolver::BlockTriangularSolver(std::shared_ptr<const la::ComplexSchur> up,
                                             sparse::SparseTensor3 coupling,
                                             std::shared_ptr<const ShiftedSolver> low)
    : up_(std::move(up)), coupling_(std::move(coupling)), low_(std::move(low)) {
    ATMOR_REQUIRE(up_ != nullptr && low_ != nullptr, "BlockTriangularSolver: null factor");
    ATMOR_REQUIRE(coupling_.rows() == up_->dim(),
                  "BlockTriangularSolver: coupling rows " << coupling_.rows()
                                                          << " != up dim " << up_->dim());
    ATMOR_REQUIRE(coupling_.n1() * coupling_.n2() == low_->dim(),
                  "BlockTriangularSolver: coupling cols != low dim");
}

ZVec BlockTriangularSolver::apply(const ZVec& x) const {
    ATMOR_REQUIRE(static_cast<int>(x.size()) == dim(),
                  "BlockTriangularSolver::apply: size mismatch");
    const int nu = up_->dim(), nl = low_->dim();
    const ZVec x1(x.begin(), x.begin() + nu);
    const ZVec x2(x.begin() + nu, x.end());
    ZVec y1 = up_->apply(x1);
    const ZVec cx2 = coupling_.apply_lifted(x2);
    for (int i = 0; i < nu; ++i) y1[static_cast<std::size_t>(i)] += cx2[static_cast<std::size_t>(i)];
    const ZVec y2 = low_->apply(x2);
    ZVec out(static_cast<std::size_t>(nu + nl));
    std::copy(y1.begin(), y1.end(), out.begin());
    std::copy(y2.begin(), y2.end(), out.begin() + nu);
    return out;
}

ZVec BlockTriangularSolver::solve(Complex sigma, const ZVec& rhs) const {
    ATMOR_REQUIRE(static_cast<int>(rhs.size()) == dim(),
                  "BlockTriangularSolver::solve: size mismatch");
    const int nu = up_->dim(), nl = low_->dim();
    const ZVec b1(rhs.begin(), rhs.begin() + nu);
    const ZVec b2(rhs.begin() + nu, rhs.end());
    // (sigma I - Alow) x2 = b2 ; (sigma I - Aup) x1 = b1 + C x2.
    const ZVec x2 = low_->solve(sigma, b2);
    ZVec b1c = b1;
    const ZVec cx2 = coupling_.apply_lifted(x2);
    for (int i = 0; i < nu; ++i) b1c[static_cast<std::size_t>(i)] += cx2[static_cast<std::size_t>(i)];
    const ZVec x1 = up_->solve_shifted(sigma, b1c);
    ZVec out(static_cast<std::size_t>(nu + nl));
    std::copy(x1.begin(), x1.end(), out.begin());
    std::copy(x2.begin(), x2.end(), out.begin() + nu);
    return out;
}

}  // namespace atmor::tensor
