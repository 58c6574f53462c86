// Dense LU factorisation with partial pivoting, real and complex.
//
// The factor object is reusable across many right-hand sides, which is how
// the transient integrator (modified Newton) and resolvent evaluations use
// it: factor once per (matrix, shift), solve thousands of times.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace atmor::la {

/// LU factorisation P*A = L*U with partial pivoting.
template <class T>
class LuFactorization {
public:
    /// Factor a square matrix. Throws util::InternalError on exact singularity.
    explicit LuFactorization(DenseMatrix<T> a);

    /// Solve A x = b into caller storage: x is resized to dim() and keeps
    /// its capacity, so a warmed x allocates nothing. b must hold dim()
    /// entries and must not be x.
    void solve_into(const std::vector<T>& b, std::vector<T>& x) const;

    /// Solve A x = b; allocating wrapper over solve_into.
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const;

    /// Solve A X = B column-wise.
    [[nodiscard]] DenseMatrix<T> solve(const DenseMatrix<T>& b) const;

    /// Determinant (product of U diagonal with pivot sign).
    [[nodiscard]] T determinant() const;

    /// Estimate of the smallest |U_ii| / largest |U_ii| (cheap conditioning probe).
    [[nodiscard]] double pivot_ratio() const;

    [[nodiscard]] int dim() const { return lu_.rows(); }

private:
    DenseMatrix<T> lu_;      // packed L (unit diagonal) and U
    std::vector<int> perm_;  // row permutation
    int sign_ = 1;
};

using Lu = LuFactorization<double>;
using ZLu = LuFactorization<Complex>;

/// One-shot convenience: solve A x = b.
Vec solve(const Matrix& a, const Vec& b);
ZVec solve(const ZMatrix& a, const ZVec& b);

/// One-shot inverse (tests / small matrices only).
Matrix inverse(const Matrix& a);
ZMatrix inverse(const ZMatrix& a);

}  // namespace atmor::la
