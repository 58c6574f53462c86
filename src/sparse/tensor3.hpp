// Sparse order-3 tensor: the quadratic form G2 of a QLDAE
//     x' = G1 x + G2 (x (x) x) + ...
//
// An entry (r, i, j, c) contributes  c * x_i * y_j  to output row r of the
// bilinear map T(x, y). The "matrix view" interprets T as the rows x (n1*n2)
// matrix acting on Kronecker-lifted vectors with column index i*n2 + j,
// consistent with (x (x) y)[i*n2 + j] = x_i y_j.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace atmor::sparse {

class SparseTensor3 {
public:
    /// Square case (rows = n1 = n2 = n) is the common QLDAE layout.
    SparseTensor3(int rows, int n1, int n2);
    SparseTensor3() = default;

    static SparseTensor3 zero(int n) { return SparseTensor3(n, n, n); }

    void add(int r, int i, int j, double value);

    [[nodiscard]] int rows() const { return rows_; }
    [[nodiscard]] int n1() const { return n1_; }
    [[nodiscard]] int n2() const { return n2_; }
    [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
    [[nodiscard]] bool empty() const { return entries_.empty(); }

    struct Entry {
        int row;
        int i;
        int j;
        double value;
    };
    [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

    /// Bilinear apply: out_r = sum c * x_i * y_j.
    [[nodiscard]] la::Vec apply(const la::Vec& x, const la::Vec& y) const;
    [[nodiscard]] la::ZVec apply(const la::ZVec& x, const la::ZVec& y) const;

    /// Matrix view times a lifted vector w (length n1*n2, w[i*n2+j] ~ x_i y_j).
    [[nodiscard]] la::Vec apply_lifted(const la::Vec& w) const;
    [[nodiscard]] la::ZVec apply_lifted(const la::ZVec& w) const;

    /// Jacobian of x -> T(x, x):  J(r, k) = sum c (delta_ik x_j + x_i delta_jk).
    [[nodiscard]] la::Matrix jacobian(const la::Vec& x) const;

    /// Left contraction T(x0, .) as a dense rows x n2 matrix.
    [[nodiscard]] la::Matrix contract_left(const la::Vec& x0) const;
    /// Right contraction T(., x0) as a dense rows x n1 matrix.
    [[nodiscard]] la::Matrix contract_right(const la::Vec& x0) const;

    /// Symmetrised tensor S with S(x,y) = (T(x,y) + T(y,x)) / 2 (square only);
    /// T(x, x) is unchanged.
    [[nodiscard]] SparseTensor3 symmetrized() const;

    /// Dense matrix view (rows x n1*n2). Test/diagnostic use only.
    [[nodiscard]] la::Matrix to_dense_matrix() const;

    /// Scale all coefficients in place.
    void scale(double alpha);

private:
    int rows_ = 0;
    int n1_ = 0;
    int n2_ = 0;
    std::vector<Entry> entries_;
};

}  // namespace atmor::sparse
