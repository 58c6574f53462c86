// Kronecker-product utilities and the vec/unvec conventions used throughout
// the library.
//
// Conventions (fixed here, tested in test_kronecker.cpp):
//   * vec() stacks columns:      vec(M)[c*rows + r] = M(r, c)
//   * (x (x) y)[i*ny + j] = x_i y_j, which equals vec(y x^T)
//   * (M (x) N) vec(X) = vec(N X M^T)
//   * A (+) B = A (x) I + I (x) B, so (A (+) B) vec(X) = vec(B X + X A^T)
//     for X with rows(B) rows and rows(A) columns ("A outer, B inner")
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace atmor::tensor {

/// Dense Kronecker product (small matrices / tests; the solvers never form
/// Kronecker matrices explicitly).
la::Matrix kron(const la::Matrix& a, const la::Matrix& b);

/// Dense Kronecker sum A (+) B = A (x) I + I (x) B.
la::Matrix kron_sum(const la::Matrix& a, const la::Matrix& b);

/// Kronecker product of vectors: out[i*ny + j] = x_i y_j.
la::Vec kron(const la::Vec& x, const la::Vec& y);
la::ZVec kron(const la::ZVec& x, const la::ZVec& y);

/// Triple Kronecker product of vectors.
la::Vec kron3(const la::Vec& x, const la::Vec& y, const la::Vec& z);

/// Column-stacking vec and its inverse.
la::Vec vec_of(const la::Matrix& m);
la::ZVec vec_of(const la::ZMatrix& m);
la::Matrix unvec(const la::Vec& w, int rows, int cols);
la::ZMatrix unvec(const la::ZVec& w, int rows, int cols);

}  // namespace atmor::tensor
