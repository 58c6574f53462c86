// Dense row-major matrix type used throughout atmor.
//
// The library targets circuit-sized problems (n up to a few hundred states,
// with Kronecker-structured operators standing in for the n^2/n^3 lifted
// spaces), so a simple cache-aware row-major implementation is sufficient —
// the design goal is correctness and clarity, not BLAS-level throughput.
#pragma once

#include <algorithm>
#include <complex>
#include <initializer_list>
#include <type_traits>
#include <vector>

#include "la/simd.hpp"
#include "util/check.hpp"

namespace atmor::la {

using Complex = std::complex<double>;

/// Dense row-major matrix over T (double or std::complex<double>).
template <class T>
class DenseMatrix {
public:
    DenseMatrix() = default;

    /// rows x cols matrix, zero-initialised.
    DenseMatrix(int rows, int cols) : rows_(rows), cols_(cols), data_(checked_size(rows, cols)) {}

    /// Build from nested initializer list (row major); rows must be equal length.
    DenseMatrix(std::initializer_list<std::initializer_list<T>> rows) {
        rows_ = static_cast<int>(rows.size());
        cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
        data_.reserve(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_));
        for (const auto& r : rows) {
            ATMOR_REQUIRE(static_cast<int>(r.size()) == cols_, "ragged initializer list");
            data_.insert(data_.end(), r.begin(), r.end());
        }
    }

    static DenseMatrix zeros(int rows, int cols) { return DenseMatrix(rows, cols); }

    static DenseMatrix identity(int n) {
        DenseMatrix m(n, n);
        for (int i = 0; i < n; ++i) m(i, i) = T(1);
        return m;
    }

    [[nodiscard]] int rows() const { return rows_; }
    [[nodiscard]] int cols() const { return cols_; }
    [[nodiscard]] bool empty() const { return data_.empty(); }
    [[nodiscard]] bool square() const { return rows_ == cols_; }

    T& operator()(int i, int j) {
        return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(j)];
    }
    const T& operator()(int i, int j) const {
        return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(j)];
    }

    /// Bounds-checked access (used by tests and non-hot paths).
    T& at(int i, int j) {
        ATMOR_REQUIRE(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                      "index (" << i << "," << j << ") out of " << rows_ << "x" << cols_);
        return (*this)(i, j);
    }
    const T& at(int i, int j) const {
        ATMOR_REQUIRE(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                      "index (" << i << "," << j << ") out of " << rows_ << "x" << cols_);
        return (*this)(i, j);
    }

    T* data() { return data_.data(); }
    const T* data() const { return data_.data(); }

    /// Pointer to the start of row i.
    T* row_ptr(int i) { return data_.data() + static_cast<std::size_t>(i) * cols_; }
    const T* row_ptr(int i) const { return data_.data() + static_cast<std::size_t>(i) * cols_; }

    /// Column j as a vector (strided copy).
    [[nodiscard]] std::vector<T> col(int j) const {
        std::vector<T> out(static_cast<std::size_t>(rows_));
        for (int i = 0; i < rows_; ++i) out[static_cast<std::size_t>(i)] = (*this)(i, j);
        return out;
    }

    /// Row i as a vector (contiguous copy).
    [[nodiscard]] std::vector<T> row(int i) const {
        return std::vector<T>(row_ptr(i), row_ptr(i) + cols_);
    }

    void set_col(int j, const std::vector<T>& v) {
        ATMOR_REQUIRE(static_cast<int>(v.size()) == rows_, "column length mismatch");
        for (int i = 0; i < rows_; ++i) (*this)(i, j) = v[static_cast<std::size_t>(i)];
    }

    DenseMatrix& operator+=(const DenseMatrix& other) {
        require_same_shape(other);
        for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += other.data_[k];
        return *this;
    }
    DenseMatrix& operator-=(const DenseMatrix& other) {
        require_same_shape(other);
        for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= other.data_[k];
        return *this;
    }
    DenseMatrix& operator*=(T alpha) {
        for (auto& v : data_) v *= alpha;
        return *this;
    }

    friend DenseMatrix operator+(DenseMatrix a, const DenseMatrix& b) { return a += b; }
    friend DenseMatrix operator-(DenseMatrix a, const DenseMatrix& b) { return a -= b; }
    friend DenseMatrix operator*(DenseMatrix a, T alpha) { return a *= alpha; }
    friend DenseMatrix operator*(T alpha, DenseMatrix a) { return a *= alpha; }

private:
    static std::size_t checked_size(int rows, int cols) {
        ATMOR_REQUIRE(rows >= 0 && cols >= 0, "negative dimension");
        return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    }
    void require_same_shape(const DenseMatrix& other) const {
        ATMOR_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                      "shape mismatch: " << rows_ << "x" << cols_ << " vs " << other.rows_ << "x"
                                         << other.cols_);
    }

    int rows_ = 0;
    int cols_ = 0;
    std::vector<T> data_;
};

using Matrix = DenseMatrix<double>;
using ZMatrix = DenseMatrix<Complex>;
using Vec = std::vector<double>;
using ZVec = std::vector<Complex>;

// ---------------------------------------------------------------------------
// Matrix products. One GEMM (src/la/matrix.cpp) serves every dense product:
// each output element C(i, j) receives its products A(i, k) B(k, j) in
// ascending k, one elementwise la/simd axpy/zaxpy row update per (i, k), so
// a product is bit-identical whether it runs serially or split across the
// pool, and in every kernel tier. Zero entries of A are skipped (they add
// nothing but signed zeros). Row reductions (dot) are reassociated and
// tolerance-pinned.
// ---------------------------------------------------------------------------

/// ci[0..m) += aik * bk[0..m) on the simd kernel layer.
template <class T>
inline void row_update(T* ci, T aik, const T* bk, int m) {
    if constexpr (std::is_same_v<T, double>)
        simd::axpy(aik, bk, ci, static_cast<std::size_t>(m));
    else
        simd::zaxpy(aik, bk, ci, static_cast<std::size_t>(m));
}

/// C = A B over row-major storage: A is n x kd, B kd x m, C n x m and
/// overwritten; C must not overlap A or B. The work is tiled over column
/// panels and, once n * kd * m is large enough for the pool's width, split
/// across util::ThreadPool::global() by row blocks and column panels (nested
/// calls from pool tasks run inline). Since C starts at +0, an all-zero row
/// of B is skipped too: for finite A it would add only signed zeros.
void matmul_into(const double* a, const double* b, double* c, int n, int kd, int m);
void matmul_into(const Complex* a, const Complex* b, Complex* c, int n, int kd, int m);

/// C += A B with matmul_into's shapes, tiling and split; C's prior contents
/// are the starting accumulators (so only the zero entries of A are skipped).
void matmul_acc(const Complex* a, const Complex* b, Complex* c, int n, int kd, int m);

template <class T>
DenseMatrix<T> matmul(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
    ATMOR_REQUIRE(a.cols() == b.rows(), "matmul: inner dimensions " << a.cols() << " vs "
                                                                    << b.rows());
    DenseMatrix<T> c(a.rows(), b.cols());
    matmul_into(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
    return c;
}

/// y = A * x.
template <class T>
std::vector<T> matvec(const DenseMatrix<T>& a, const std::vector<T>& x) {
    ATMOR_REQUIRE(a.cols() == static_cast<int>(x.size()), "matvec: dimension mismatch");
    std::vector<T> y(static_cast<std::size_t>(a.rows()), T(0));
    for (int i = 0; i < a.rows(); ++i) {
        const T* ai = a.row_ptr(i);
        if constexpr (std::is_same_v<T, double>) {
            y[static_cast<std::size_t>(i)] =
                simd::dot(ai, x.data(), static_cast<std::size_t>(a.cols()));
        } else {
            T acc = T(0);
            for (int j = 0; j < a.cols(); ++j) acc += ai[j] * x[static_cast<std::size_t>(j)];
            y[static_cast<std::size_t>(i)] = acc;
        }
    }
    return y;
}

/// y = A^T * x (A^H for complex is `adjoint_matvec`).
template <class T>
std::vector<T> matvec_transposed(const DenseMatrix<T>& a, const std::vector<T>& x) {
    ATMOR_REQUIRE(a.rows() == static_cast<int>(x.size()), "matvec_transposed: dimension mismatch");
    std::vector<T> y(static_cast<std::size_t>(a.cols()), T(0));
    for (int i = 0; i < a.rows(); ++i) {
        const T* ai = a.row_ptr(i);
        const T xi = x[static_cast<std::size_t>(i)];
        if (xi == T(0)) continue;
        row_update(y.data(), xi, ai, a.cols());
    }
    return y;
}

/// y = A x with real A and complex x.
inline ZVec matvec_rc(const Matrix& a, const ZVec& x) {
    ATMOR_REQUIRE(a.cols() == static_cast<int>(x.size()), "matvec_rc: dimension mismatch");
    ZVec y(static_cast<std::size_t>(a.rows()), Complex(0));
    for (int i = 0; i < a.rows(); ++i) {
        const double* ai = a.row_ptr(i);
        Complex acc(0);
        for (int j = 0; j < a.cols(); ++j) acc += ai[j] * x[static_cast<std::size_t>(j)];
        y[static_cast<std::size_t>(i)] = acc;
    }
    return y;
}

template <class T>
DenseMatrix<T> transpose(const DenseMatrix<T>& a) {
    DenseMatrix<T> t(a.cols(), a.rows());
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
    return t;
}

inline ZMatrix adjoint(const ZMatrix& a) {
    ZMatrix t(a.cols(), a.rows());
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) t(j, i) = std::conj(a(i, j));
    return t;
}

inline ZMatrix conjugate(const ZMatrix& a) {
    ZMatrix c(a.rows(), a.cols());
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) c(i, j) = std::conj(a(i, j));
    return c;
}

// ---------------------------------------------------------------------------
// Real <-> complex conversions.
// ---------------------------------------------------------------------------

inline ZMatrix complexify(const Matrix& a) {
    ZMatrix z(a.rows(), a.cols());
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) z(i, j) = Complex(a(i, j), 0.0);
    return z;
}

inline Matrix real_part(const ZMatrix& z) {
    Matrix a(z.rows(), z.cols());
    for (int i = 0; i < z.rows(); ++i)
        for (int j = 0; j < z.cols(); ++j) a(i, j) = z(i, j).real();
    return a;
}

inline Matrix imag_part(const ZMatrix& z) {
    Matrix a(z.rows(), z.cols());
    for (int i = 0; i < z.rows(); ++i)
        for (int j = 0; j < z.cols(); ++j) a(i, j) = z(i, j).imag();
    return a;
}

inline ZVec complexify(const Vec& v) {
    ZVec z(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) z[i] = Complex(v[i], 0.0);
    return z;
}

inline Vec real_part(const ZVec& z) {
    Vec v(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) v[i] = z[i].real();
    return v;
}

inline Vec imag_part(const ZVec& z) {
    Vec v(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) v[i] = z[i].imag();
    return v;
}

// ---------------------------------------------------------------------------
// Norms.
// ---------------------------------------------------------------------------

template <class T>
double frobenius_norm(const DenseMatrix<T>& a) {
    double s = 0.0;
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) s += std::norm(Complex(a(i, j)));
    return std::sqrt(s);
}

template <class T>
double max_abs(const DenseMatrix<T>& a) {
    double m = 0.0;
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) m = std::max(m, std::abs(a(i, j)));
    return m;
}

/// Horizontal concatenation [a b].
template <class T>
DenseMatrix<T> hcat(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
    ATMOR_REQUIRE(a.rows() == b.rows(), "hcat: row mismatch");
    DenseMatrix<T> c(a.rows(), a.cols() + b.cols());
    for (int i = 0; i < a.rows(); ++i) {
        for (int j = 0; j < a.cols(); ++j) c(i, j) = a(i, j);
        for (int j = 0; j < b.cols(); ++j) c(i, a.cols() + j) = b(i, j);
    }
    return c;
}

/// Contiguous sub-matrix copy: rows [r0, r0+nr), cols [c0, c0+nc).
template <class T>
DenseMatrix<T> submatrix(const DenseMatrix<T>& a, int r0, int c0, int nr, int nc) {
    ATMOR_REQUIRE(r0 >= 0 && c0 >= 0 && r0 + nr <= a.rows() && c0 + nc <= a.cols(),
                  "submatrix out of range");
    DenseMatrix<T> s(nr, nc);
    for (int i = 0; i < nr; ++i)
        for (int j = 0; j < nc; ++j) s(i, j) = a(r0 + i, c0 + j);
    return s;
}

}  // namespace atmor::la
