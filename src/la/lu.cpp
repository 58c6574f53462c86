#include "la/lu.hpp"

#include <cmath>

#include "la/simd.hpp"
#include "util/check.hpp"

namespace {

/// xi[0..k) -= m * xj[0..k) on the elementwise simd kernels. Negating the
/// multiplier and adding is bit-identical to the subtract form (IEEE negation
/// is exact), so the blocked-solve == single-solve pins hold in every tier.
template <class T>
inline void row_sub(T* xi, T m, const T* xj, int k) {
    if constexpr (std::is_same_v<T, double>)
        atmor::la::simd::axpy(-m, xj, xi, static_cast<std::size_t>(k));
    else
        atmor::la::simd::zaxpy(-m, xj, xi, static_cast<std::size_t>(k));
}

}  // namespace

namespace atmor::la {

template <class T>
LuFactorization<T>::LuFactorization(DenseMatrix<T> a) : lu_(std::move(a)) {
    ATMOR_REQUIRE(lu_.square(), "LU requires a square matrix, got " << lu_.rows() << "x"
                                                                    << lu_.cols());
    const int n = lu_.rows();
    perm_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm_[static_cast<std::size_t>(i)] = i;

    for (int k = 0; k < n; ++k) {
        // Partial pivoting: pick the largest magnitude entry in column k.
        int piv = k;
        double best = std::abs(lu_(k, k));
        for (int i = k + 1; i < n; ++i) {
            const double mag = std::abs(lu_(i, k));
            if (mag > best) {
                best = mag;
                piv = i;
            }
        }
        ATMOR_CHECK(best > 0.0, "singular matrix in LU at column " << k);
        if (piv != k) {
            for (int j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
            std::swap(perm_[static_cast<std::size_t>(k)], perm_[static_cast<std::size_t>(piv)]);
            sign_ = -sign_;
        }
        const T pivot = lu_(k, k);
        for (int i = k + 1; i < n; ++i) {
            const T m = lu_(i, k) / pivot;
            lu_(i, k) = m;
            if (m == T(0)) continue;
            const T* rk = lu_.row_ptr(k);
            T* ri = lu_.row_ptr(i);
            for (int j = k + 1; j < n; ++j) ri[j] -= m * rk[j];
        }
    }
}

template <class T>
void LuFactorization<T>::solve_into(const std::vector<T>& b, std::vector<T>& x) const {
    const int n = dim();
    ATMOR_REQUIRE(static_cast<int>(b.size()) == n, "rhs size mismatch");
    ATMOR_REQUIRE(&b != &x, "LU solve_into: b and x must be distinct vectors");
    x.resize(static_cast<std::size_t>(n));
    // Apply permutation.
    for (int i = 0; i < n; ++i)
        x[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])];
    // Forward substitution (unit lower).
    for (int i = 1; i < n; ++i) {
        const T* ri = lu_.row_ptr(i);
        T acc = x[static_cast<std::size_t>(i)];
        for (int j = 0; j < i; ++j) acc -= ri[j] * x[static_cast<std::size_t>(j)];
        x[static_cast<std::size_t>(i)] = acc;
    }
    // Backward substitution.
    for (int i = n - 1; i >= 0; --i) {
        const T* ri = lu_.row_ptr(i);
        T acc = x[static_cast<std::size_t>(i)];
        for (int j = i + 1; j < n; ++j) acc -= ri[j] * x[static_cast<std::size_t>(j)];
        x[static_cast<std::size_t>(i)] = acc / ri[i];
    }
}

template <class T>
std::vector<T> LuFactorization<T>::solve(const std::vector<T>& b) const {
    std::vector<T> x;
    solve_into(b, x);
    return x;
}

template <class T>
DenseMatrix<T> LuFactorization<T>::solve(const DenseMatrix<T>& b) const {
    ATMOR_REQUIRE(b.rows() == dim(), "rhs rows mismatch");
    const int n = dim();
    const int k = b.cols();
    // Blocked substitution: one pass over the packed factors serves all k
    // right-hand sides, with k-wide contiguous row updates. Column c matches
    // solve(b.col(c)) bit for bit (same per-column operation order).
    DenseMatrix<T> x(n, k);
    for (int i = 0; i < n; ++i) {
        const T* src = b.row_ptr(perm_[static_cast<std::size_t>(i)]);
        T* dst = x.row_ptr(i);
        for (int c = 0; c < k; ++c) dst[c] = src[c];
    }
    // Forward substitution (unit lower).
    for (int i = 1; i < n; ++i) {
        const T* ri = lu_.row_ptr(i);
        T* xi = x.row_ptr(i);
        for (int j = 0; j < i; ++j) row_sub(xi, ri[j], x.row_ptr(j), k);
    }
    // Backward substitution.
    for (int i = n - 1; i >= 0; --i) {
        const T* ri = lu_.row_ptr(i);
        T* xi = x.row_ptr(i);
        for (int j = i + 1; j < n; ++j) row_sub(xi, ri[j], x.row_ptr(j), k);
        const T d = ri[i];
        for (int c = 0; c < k; ++c) xi[c] /= d;
    }
    return x;
}

template <class T>
T LuFactorization<T>::determinant() const {
    T det = T(sign_);
    for (int i = 0; i < dim(); ++i) det *= lu_(i, i);
    return det;
}

template <class T>
double LuFactorization<T>::pivot_ratio() const {
    double lo = std::abs(lu_(0, 0)), hi = lo;
    for (int i = 1; i < dim(); ++i) {
        const double d = std::abs(lu_(i, i));
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    return hi == 0.0 ? 0.0 : lo / hi;
}

template class LuFactorization<double>;
template class LuFactorization<Complex>;

Vec solve(const Matrix& a, const Vec& b) { return Lu(a).solve(b); }
ZVec solve(const ZMatrix& a, const ZVec& b) { return ZLu(a).solve(b); }

Matrix inverse(const Matrix& a) { return Lu(a).solve(Matrix::identity(a.rows())); }
ZMatrix inverse(const ZMatrix& a) { return ZLu(a).solve(ZMatrix::identity(a.rows())); }

}  // namespace atmor::la
