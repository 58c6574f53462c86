// Bitwise oracle for the structured Kronecker solvers: the column-layout
// formulation they replaced (unvec -> matmul -> column-wise triangular
// Sylvester -> vec), kept test-local. The library solvers read vec(X) in
// place as X^T and split their products across the pool; every element must
// still come out bit-identical to this serial column form.
#pragma once

#include <memory>

#include "la/matrix.hpp"
#include "la/schur.hpp"
#include "tensor/kronecker.hpp"
#include "tensor/structured.hpp"
#include "util/check.hpp"

namespace atmor::test {

/// Serial ikj product: C(i, :) += A(i, k) B(k, :) for ascending k, skipping
/// A(i, k) == 0.
inline la::ZMatrix ref_matmul(const la::ZMatrix& a, const la::ZMatrix& b) {
    la::ZMatrix c(a.rows(), b.cols());
    for (int i = 0; i < a.rows(); ++i)
        for (int k = 0; k < a.cols(); ++k) {
            if (a(i, k) == la::Complex(0)) continue;
            la::row_update(c.row_ptr(i), a(i, k), b.row_ptr(k), b.cols());
        }
    return c;
}

/// sigma*Y - T1 Y - Y T2^T = C, descending columns, on the column layout.
inline la::ZMatrix ref_tri_sylvester_shifted(const la::ZMatrix& t1, const la::ZMatrix& t2,
                                             la::Complex sigma, la::ZMatrix c) {
    const int m = t1.rows(), p = t2.rows();
    for (int j = p - 1; j >= 0; --j) {
        for (int k = j + 1; k < p; ++k) {
            const la::Complex w = t2(j, k);
            if (w == la::Complex(0)) continue;
            for (int i = 0; i < m; ++i) c(i, j) += w * c(i, k);
        }
        const la::Complex shift = sigma - t2(j, j);
        for (int i = m - 1; i >= 0; --i) {
            la::Complex acc = c(i, j);
            for (int k = i + 1; k < m; ++k) acc += t1(i, k) * c(k, j);
            const la::Complex d = shift - t1(i, i);
            ATMOR_CHECK(std::abs(d) > 0.0, "ref_tri_sylvester_shifted: singular pencil");
            c(i, j) = acc / d;
        }
    }
    return c;
}

/// X = (sigma I - A (+) A)^{-1} C in matrix form: Z (Y Z^T) with
/// Y solving the triangular equation for Z^H (C conj(Z)).
inline la::ZMatrix ref_resolvent_kron_sum_solve(const la::ComplexSchur& s, la::Complex sigma,
                                                const la::ZMatrix& c) {
    const la::ZMatrix rhs = ref_matmul(la::adjoint(s.z()), ref_matmul(c, la::conjugate(s.z())));
    const la::ZMatrix y = ref_tri_sylvester_shifted(s.t(), s.t(), sigma, rhs);
    return ref_matmul(s.z(), ref_matmul(y, la::transpose(s.z())));
}

/// A (+) A on vec(X) through the matrix-form solve.
class RefKronSum2 final : public tensor::ShiftedSolver {
public:
    explicit RefKronSum2(std::shared_ptr<const la::ComplexSchur> s) : s_(std::move(s)) {}
    [[nodiscard]] int dim() const override { return s_->dim() * s_->dim(); }
    [[nodiscard]] la::ZVec apply(const la::ZVec&) const override {
        ATMOR_CHECK(false, "RefKronSum2::apply: not part of the oracle");
        return {};
    }
    [[nodiscard]] la::ZVec solve(la::Complex sigma, const la::ZVec& rhs) const override {
        const int n = s_->dim();
        return tensor::vec_of(ref_resolvent_kron_sum_solve(*s_, sigma, tensor::unvec(rhs, n, n)));
    }

private:
    std::shared_ptr<const la::ComplexSchur> s_;
};

/// A (+) B (A outer, B inner) on vec(X), X in C^{p x m}: Y = X conj(Z) by a
/// descending column recurrence of inner solves, then X = Y Z^T.
class RefKronSumLeft final : public tensor::ShiftedSolver {
public:
    RefKronSumLeft(std::shared_ptr<const la::ComplexSchur> outer,
                   std::shared_ptr<const tensor::ShiftedSolver> inner)
        : outer_(std::move(outer)), inner_(std::move(inner)) {}
    [[nodiscard]] int dim() const override { return outer_->dim() * inner_->dim(); }
    [[nodiscard]] la::ZVec apply(const la::ZVec&) const override {
        ATMOR_CHECK(false, "RefKronSumLeft::apply: not part of the oracle");
        return {};
    }
    [[nodiscard]] la::ZVec solve(la::Complex sigma, const la::ZVec& rhs) const override {
        const int m = outer_->dim(), p = inner_->dim();
        const la::ZMatrix& t = outer_->t();
        const la::ZMatrix ctil = ref_matmul(tensor::unvec(rhs, p, m), la::conjugate(outer_->z()));
        la::ZMatrix y(p, m);
        la::ZVec col(static_cast<std::size_t>(p));
        for (int j = m - 1; j >= 0; --j) {
            for (int i = 0; i < p; ++i) col[static_cast<std::size_t>(i)] = ctil(i, j);
            for (int k = j + 1; k < m; ++k) {
                const la::Complex w = t(j, k);
                if (w == la::Complex(0)) continue;
                for (int i = 0; i < p; ++i) col[static_cast<std::size_t>(i)] += w * y(i, k);
            }
            y.set_col(j, inner_->solve(sigma - t(j, j), col));
        }
        return tensor::vec_of(ref_matmul(y, la::transpose(outer_->z())));
    }

private:
    std::shared_ptr<const la::ComplexSchur> outer_;
    std::shared_ptr<const tensor::ShiftedSolver> inner_;
};

}  // namespace atmor::test
