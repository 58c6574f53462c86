// Structured shifted-resolvent solvers.
//
// The associated transform turns high-order Volterra transfer functions into
// single-s LTI realisations whose state matrices are built from Kronecker
// sums and block-triangular couplings of G1 (paper eqs. 15-17):
//
//   A2(H2):  Gt2 = [[G1, G2], [0, G1 (+) G1]]           (dim n + n^2)
//   A3(H3):  resolvents of G1 (+) Gt2 and Gt2 (+) G1    (dim n(n+n^2))
//
// These operators are never formed. Each class below answers
//   solve(sigma, rhs) = (sigma*I - Op)^{-1} rhs
// through the complex Schur form of G1 plus triangular Sylvester recurrences,
// exactly the structure-exploiting strategy of the paper's Sec. 2.3.
//
// A Kronecker-sum operator acts on vec(X), and the solvers read that vector
// in place as the row-major X^T (row j = column j of X): every column
// recurrence runs over contiguous rows, and the Schur basis changes are
// la::matmul_into products on the vector itself, with no unvec/vec copies.
#pragma once

#include <memory>

#include "la/matrix.hpp"
#include "la/schur.hpp"
#include "sparse/tensor3.hpp"

namespace atmor::tensor {

/// Abstract shifted-resolvent interface: x = (sigma*I - Op)^{-1} rhs and
/// y = Op x, all in complex arithmetic (real problems pass sigma.imag()=0).
class ShiftedSolver {
public:
    virtual ~ShiftedSolver() = default;

    [[nodiscard]] virtual int dim() const = 0;
    [[nodiscard]] virtual la::ZVec apply(const la::ZVec& x) const = 0;
    [[nodiscard]] virtual la::ZVec solve(la::Complex sigma, const la::ZVec& rhs) const = 0;
};

/// Dense operator A through its complex Schur form; every shifted solve is a
/// triangular backsolve (no per-shift refactorisation).
class DenseSchurSolver final : public ShiftedSolver {
public:
    explicit DenseSchurSolver(const la::Matrix& a);
    explicit DenseSchurSolver(std::shared_ptr<const la::ComplexSchur> schur);

    [[nodiscard]] int dim() const override { return schur_->dim(); }
    [[nodiscard]] la::ZVec apply(const la::ZVec& x) const override { return schur_->apply(x); }
    [[nodiscard]] la::ZVec solve(la::Complex sigma, const la::ZVec& rhs) const override {
        return schur_->solve_shifted(sigma, rhs);
    }

    [[nodiscard]] const std::shared_ptr<const la::ComplexSchur>& schur() const { return schur_; }

private:
    std::shared_ptr<const la::ComplexSchur> schur_;
};

/// Op = A (+) A on vec(X), X in C^{n x n}: (A (+) A) vec(X) = vec(A X + X A^T).
/// Solves are O(n^3) triangular Sylvester recurrences via the Schur form of A.
class KronSum2Solver final : public ShiftedSolver {
public:
    explicit KronSum2Solver(std::shared_ptr<const la::ComplexSchur> schur_a);

    [[nodiscard]] int dim() const override { return n_ * n_; }
    [[nodiscard]] la::ZVec apply(const la::ZVec& x) const override;
    [[nodiscard]] la::ZVec solve(la::Complex sigma, const la::ZVec& rhs) const override;

private:
    std::shared_ptr<const la::ComplexSchur> schur_;
    int n_;
};

/// Op = A (+) B with a small "outer" A (m x m, via Schur) and an arbitrary
/// structured "inner" B (p x p): acts on vec(X), X in C^{p x m}, as
/// vec(B X + X A^T). Solve runs a descending column recurrence; each column
/// is one inner solve at a shifted sigma. The (+)^3 and G1 (+) Gt2 solvers
/// of A3(H3) are this class; Gt2 (+) G1 needs no solver of its own, since its
/// resolvent is a permutation of G1 (+) Gt2's (volterra reads the solution
/// through that permutation).
class KronSumLeftSolver final : public ShiftedSolver {
public:
    KronSumLeftSolver(std::shared_ptr<const la::ComplexSchur> outer_a,
                      std::shared_ptr<const ShiftedSolver> inner_b);

    [[nodiscard]] int dim() const override { return m_ * p_; }
    [[nodiscard]] la::ZVec apply(const la::ZVec& x) const override;
    [[nodiscard]] la::ZVec solve(la::Complex sigma, const la::ZVec& rhs) const override;

private:
    std::shared_ptr<const la::ComplexSchur> outer_;
    std::shared_ptr<const ShiftedSolver> inner_;
    int m_;  // outer dimension
    int p_;  // inner dimension
};

/// Op = [[Aup, C], [0, Alow]] with C given as the matrix view of a sparse
/// order-3 tensor (rows = dim(Aup), cols = dim(Alow)). This is exactly the
/// paper's Gt2 of eq. (17) with Aup = G1, C = G2, Alow = G1 (+) G1.
class BlockTriangularSolver final : public ShiftedSolver {
public:
    BlockTriangularSolver(std::shared_ptr<const la::ComplexSchur> up,
                          sparse::SparseTensor3 coupling,
                          std::shared_ptr<const ShiftedSolver> low);

    [[nodiscard]] int dim() const override { return up_->dim() + low_->dim(); }
    [[nodiscard]] la::ZVec apply(const la::ZVec& x) const override;
    [[nodiscard]] la::ZVec solve(la::Complex sigma, const la::ZVec& rhs) const override;

private:
    std::shared_ptr<const la::ComplexSchur> up_;
    sparse::SparseTensor3 coupling_;
    std::shared_ptr<const ShiftedSolver> low_;
};

/// Factory: Op = A (+) A (+) A on n^3, realised as A (+) (A (+) A).
std::shared_ptr<ShiftedSolver> make_kron_sum3(std::shared_ptr<const la::ComplexSchur> schur_a);

}  // namespace atmor::tensor
