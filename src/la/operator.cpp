#include "la/operator.hpp"

#include <atomic>

#include "util/check.hpp"

namespace atmor::la {

namespace {
std::atomic<std::uint64_t> next_operator_id{1};
}  // namespace

LinearOperator::LinearOperator() : id_(next_operator_id.fetch_add(1)) {}

DenseOperator::DenseOperator(std::shared_ptr<const Matrix> m) : m_(std::move(m)) {
    ATMOR_REQUIRE(m_ != nullptr, "DenseOperator: null matrix");
}

DenseOperator::DenseOperator(Matrix m)
    : DenseOperator(std::make_shared<const Matrix>(std::move(m))) {}

SparseOperator::SparseOperator(std::shared_ptr<const sparse::CsrMatrix> m) : m_(std::move(m)) {
    ATMOR_REQUIRE(m_ != nullptr, "SparseOperator: null matrix");
}

SparseOperator::SparseOperator(sparse::CsrMatrix m)
    : SparseOperator(std::make_shared<const sparse::CsrMatrix>(std::move(m))) {}

std::shared_ptr<const DenseOperator> make_dense_operator(Matrix m) {
    return std::make_shared<const DenseOperator>(std::move(m));
}

std::shared_ptr<const SparseOperator> make_sparse_operator(sparse::CsrMatrix m) {
    return std::make_shared<const SparseOperator>(std::move(m));
}

}  // namespace atmor::la
