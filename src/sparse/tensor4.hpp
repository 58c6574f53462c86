// Sparse order-4 tensor: the cubic form G3 of systems like the paper's
// Sec. 3.4 varistor ODE  C x' + G1 x + G3 x^(x)3 = u.
//
// Entry (r, i, j, k, c) contributes c * x_i * y_j * z_k to output row r.
// The lifted column index is (i*n + j)*n + k, matching x (x) y (x) z.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "sparse/tensor3.hpp"

namespace atmor::sparse {

class SparseTensor4 {
public:
    explicit SparseTensor4(int n);
    SparseTensor4() = default;

    void add(int r, int i, int j, int k, double value);

    [[nodiscard]] int n() const { return n_; }
    [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
    [[nodiscard]] bool empty() const { return entries_.empty(); }

    struct Entry {
        int row;
        int i;
        int j;
        int k;
        double value;
    };
    [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

    /// Trilinear apply.
    [[nodiscard]] la::Vec apply(const la::Vec& x, const la::Vec& y, const la::Vec& z) const;
    [[nodiscard]] la::ZVec apply(const la::ZVec& x, const la::ZVec& y, const la::ZVec& z) const;

    /// Matrix view times a lifted vector w (length n^3, w[(i*n+j)*n+k]).
    [[nodiscard]] la::ZVec apply_lifted(const la::ZVec& w) const;
    [[nodiscard]] la::Vec apply_lifted(const la::Vec& w) const;

    /// Jacobian of x -> T(x,x,x): T(.,x,x) + T(x,.,x) + T(x,x,.).
    [[nodiscard]] la::Matrix jacobian(const la::Vec& x) const;

    /// Single contraction at x0 summed over the three slots; this is the
    /// quadratic tensor that appears when shifting the equilibrium:
    /// T(x0+d)^3 -> [T(x0,.,.) + T(.,x0,.) + T(.,.,x0)](d,d) + ...
    [[nodiscard]] SparseTensor3 contract_once(const la::Vec& x0) const;

    /// Double contraction at x0 (the linear term of the shift expansion).
    [[nodiscard]] la::Matrix contract_twice(const la::Vec& x0) const;

    void scale(double alpha);

private:
    int n_ = 0;
    std::vector<Entry> entries_;
};

}  // namespace atmor::sparse
