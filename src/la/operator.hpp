// Linear-operator abstraction: the seam between what the MOR pipeline needs
// (matvecs and shifted resolvent solves against G1, Jacobians, D1 blocks) and
// how the matrix is stored (dense row-major or CSR).
//
// Every operator instance carries a process-unique id; la::SolverBackend keys
// its factorization cache on (id, shift), which is what turns "factor once
// per expansion point / Newton Jacobian, solve thousands of times" into an
// invariant of the pipeline instead of a per-call-site discipline.
#pragma once

#include <cstdint>
#include <memory>

#include "la/matrix.hpp"
#include "sparse/csr.hpp"

namespace atmor::la {

class LinearOperator {
public:
    LinearOperator();
    virtual ~LinearOperator() = default;
    LinearOperator(const LinearOperator&) = delete;
    LinearOperator& operator=(const LinearOperator&) = delete;

    [[nodiscard]] virtual int rows() const = 0;
    [[nodiscard]] virtual int cols() const = 0;
    [[nodiscard]] bool square() const { return rows() == cols(); }

    /// y = A x.
    [[nodiscard]] virtual Vec apply(const Vec& x) const = 0;
    [[nodiscard]] virtual ZVec apply(const ZVec& x) const = 0;

    /// Dense materialisation (legacy paths, small systems, diagnostics).
    [[nodiscard]] virtual Matrix to_dense() const = 0;

    /// CSR view when the operator is natively sparse, nullptr otherwise.
    [[nodiscard]] virtual const sparse::CsrMatrix* csr() const { return nullptr; }
    [[nodiscard]] bool is_sparse() const { return csr() != nullptr; }

    /// Process-unique identity (cache key for factorisations).
    [[nodiscard]] std::uint64_t id() const { return id_; }

private:
    std::uint64_t id_;
};

/// Dense operator; shares ownership of the matrix so Qldae copies and cached
/// factorisations can alias the same storage.
class DenseOperator final : public LinearOperator {
public:
    explicit DenseOperator(std::shared_ptr<const Matrix> m);
    explicit DenseOperator(Matrix m);

    [[nodiscard]] int rows() const override { return m_->rows(); }
    [[nodiscard]] int cols() const override { return m_->cols(); }
    [[nodiscard]] Vec apply(const Vec& x) const override { return matvec(*m_, x); }
    [[nodiscard]] ZVec apply(const ZVec& x) const override { return matvec_rc(*m_, x); }
    [[nodiscard]] Matrix to_dense() const override { return *m_; }

    [[nodiscard]] const Matrix& matrix() const { return *m_; }

private:
    std::shared_ptr<const Matrix> m_;
};

/// CSR-sparse operator.
class SparseOperator final : public LinearOperator {
public:
    explicit SparseOperator(std::shared_ptr<const sparse::CsrMatrix> m);
    explicit SparseOperator(sparse::CsrMatrix m);

    [[nodiscard]] int rows() const override { return m_->rows(); }
    [[nodiscard]] int cols() const override { return m_->cols(); }
    [[nodiscard]] Vec apply(const Vec& x) const override { return m_->matvec(x); }
    [[nodiscard]] ZVec apply(const ZVec& x) const override { return m_->matvec(x); }
    [[nodiscard]] Matrix to_dense() const override { return m_->to_dense(); }
    [[nodiscard]] const sparse::CsrMatrix* csr() const override { return m_.get(); }

private:
    std::shared_ptr<const sparse::CsrMatrix> m_;
};

std::shared_ptr<const DenseOperator> make_dense_operator(Matrix m);
std::shared_ptr<const SparseOperator> make_sparse_operator(sparse::CsrMatrix m);

}  // namespace atmor::la
