#include "la/qr.hpp"

#include <algorithm>
#include <cmath>

#include "la/simd.hpp"
#include "util/check.hpp"

namespace atmor::la {

namespace {

/// Compute a Householder reflector for x (length len): returns beta and
/// overwrites x with v (v[0] = 1 implicitly stored from index 1).
/// After application, H x = (norm, 0, ..., 0) with H = I - beta v v^T.
double make_householder(double* x, int len) {
    if (len <= 1) return 0.0;
    double sigma = 0.0;
    for (int i = 1; i < len; ++i) sigma += x[i] * x[i];
    if (sigma == 0.0) {
        return 0.0;  // already in e1 direction
    }
    const double alpha = x[0];
    const double mu = std::sqrt(alpha * alpha + sigma);
    double v0 = (alpha <= 0.0) ? alpha - mu : -sigma / (alpha + mu);
    const double beta = 2.0 * v0 * v0 / (sigma + v0 * v0);
    // Normalise so v[0] = 1.
    for (int i = 1; i < len; ++i) x[i] /= v0;
    x[0] = mu;  // H x = +||x|| e1 with this construction, so R_kk = mu > 0
    return beta;
}

/// Apply the compact-WY block of panel [k0, k0+nb) -- reflectors V stored
/// below the diagonal of vmat's panel columns (unit diagonal implicit), T
/// upper triangular -- to columns [c0, c1) of c:
///
///   c <- c - V op(T) (V^T c),  op(T) = T^T when applying Q^T (factorization
///                              trailing update), T when applying Q (thin_q).
///
/// Both V^T c and the final rank-nb update walk c row by row, so every kernel
/// call runs over a contiguous (c1 - c0)-wide row: two GEMM-shaped sweeps
/// around a tiny nb x nb triangular solve-like recombination. vmat and c may
/// alias as long as the column ranges are disjoint.
void apply_compact_wy(const Matrix& vmat, int k0, int nb, const Matrix& t, bool transpose_t,
                      Matrix& c, int c0, int c1) {
    const int m = vmat.rows();
    const int nc = c1 - c0;
    if (nc <= 0 || nb <= 0) return;
    Matrix w(nb, nc);
    // W = V^T C (rows k0..m of C).
    for (int i = k0; i < m; ++i) {
        const double* ci = c.row_ptr(i) + c0;
        const int jmax = std::min(i - k0, nb - 1);
        for (int j = 0; j <= jmax; ++j) {
            const double vij = (i == k0 + j) ? 1.0 : vmat(i, k0 + j);
            if (vij != 0.0) simd::axpy(vij, ci, w.row_ptr(j), static_cast<std::size_t>(nc));
        }
    }
    // W <- op(T) W, exploiting T's upper-triangular shape in place.
    if (transpose_t) {
        // W_new(j) = sum_{l <= j} T(l, j) W(l): descending j keeps W(l) old.
        for (int j = nb - 1; j >= 0; --j) {
            simd::scale(t(j, j), w.row_ptr(j), static_cast<std::size_t>(nc));
            for (int l = 0; l < j; ++l)
                simd::axpy(t(l, j), w.row_ptr(l), w.row_ptr(j), static_cast<std::size_t>(nc));
        }
    } else {
        // W_new(r) = sum_{l >= r} T(r, l) W(l): ascending r keeps W(l) old.
        for (int r = 0; r < nb; ++r) {
            simd::scale(t(r, r), w.row_ptr(r), static_cast<std::size_t>(nc));
            for (int l = r + 1; l < nb; ++l)
                simd::axpy(t(r, l), w.row_ptr(l), w.row_ptr(r), static_cast<std::size_t>(nc));
        }
    }
    // C -= V W.
    for (int i = k0; i < m; ++i) {
        double* ci = c.row_ptr(i) + c0;
        const int jmax = std::min(i - k0, nb - 1);
        for (int j = 0; j <= jmax; ++j) {
            const double vij = (i == k0 + j) ? 1.0 : vmat(i, k0 + j);
            if (vij != 0.0) simd::axpy(-vij, w.row_ptr(j), ci, static_cast<std::size_t>(nc));
        }
    }
}

}  // namespace

QrFactorization::QrFactorization(Matrix a) : qr_(std::move(a)) {
    const int m = qr_.rows(), n = qr_.cols();
    ATMOR_REQUIRE(m >= n, "QR requires rows >= cols, got " << m << "x" << n);
    beta_.assign(static_cast<std::size_t>(n), 0.0);

    Vec col(static_cast<std::size_t>(m));
    for (int k0 = 0; k0 < n; k0 += kPanel) {
        const int k1 = std::min(n, k0 + kPanel);
        const int nb = k1 - k0;
        // Factor the panel column by column (level-2 work confined to nb
        // columns), applying each reflector eagerly within the panel only.
        // The rank-1 application runs as two row sweeps -- w = beta V^T C
        // then C -= v w^T -- so every kernel call is contiguous in the
        // row-major storage instead of striding down a column.
        Vec w(static_cast<std::size_t>(kPanel));
        for (int k = k0; k < k1; ++k) {
            const int len = m - k;
            for (int i = 0; i < len; ++i) col[static_cast<std::size_t>(i)] = qr_(k + i, k);
            const double beta = make_householder(col.data(), len);
            beta_[static_cast<std::size_t>(k)] = beta;
            // Store v (excluding implicit 1) below the diagonal, R entry on it.
            qr_(k, k) = col[0];
            for (int i = 1; i < len; ++i) qr_(k + i, k) = col[static_cast<std::size_t>(i)];
            const int ncp = k1 - (k + 1);
            if (beta == 0.0 || ncp <= 0) continue;
            std::fill(w.begin(), w.begin() + ncp, 0.0);
            simd::axpy(1.0, qr_.row_ptr(k) + k + 1, w.data(), static_cast<std::size_t>(ncp));
            for (int i = 1; i < len; ++i)
                simd::axpy(col[static_cast<std::size_t>(i)], qr_.row_ptr(k + i) + k + 1,
                           w.data(), static_cast<std::size_t>(ncp));
            simd::scale(beta, w.data(), static_cast<std::size_t>(ncp));
            simd::axpy(-1.0, w.data(), qr_.row_ptr(k) + k + 1, static_cast<std::size_t>(ncp));
            for (int i = 1; i < len; ++i)
                simd::axpy(-col[static_cast<std::size_t>(i)], w.data(),
                           qr_.row_ptr(k + i) + k + 1, static_cast<std::size_t>(ncp));
        }
        // Accumulate the panel's T factor; the trailing columns then see the
        // whole panel at once as C - V (T^T (V^T C)).
        t_.push_back(build_t(k0, nb));
        if (k1 < n) apply_compact_wy(qr_, k0, nb, t_.back(), /*transpose_t=*/true, qr_, k1, n);
    }
}

Matrix QrFactorization::build_t(int k0, int nb) const {
    // LAPACK larft forward recurrence: T(j,j) = beta_j and
    // T(0:j, j) = -beta_j T(0:j, 0:j) (V^T v_j). A zero beta leaves the whole
    // column zero, which drops that reflector from the block product.
    const int m = qr_.rows();
    Matrix t(nb, nb);
    Vec w(static_cast<std::size_t>(nb));
    for (int j = 0; j < nb; ++j) {
        const double bj = beta_[static_cast<std::size_t>(k0 + j)];
        t(j, j) = bj;
        if (bj == 0.0) continue;
        // w(l) = v_l^T v_j over the rows where v_j is nonzero (k0+j downward;
        // v_j's implicit unit entry pairs with V(k0+j, l)). Accumulated as a
        // row sweep -- each i contributes v_j(i) times a contiguous slice of
        // row i -- instead of j strided column dots.
        for (int l = 0; l < j; ++l) w[static_cast<std::size_t>(l)] = qr_(k0 + j, k0 + l);
        for (int i = k0 + j + 1; i < m; ++i)
            simd::axpy(qr_(i, k0 + j), qr_.row_ptr(i) + k0, w.data(),
                       static_cast<std::size_t>(j));
        for (int r = 0; r < j; ++r) {
            double s = 0.0;
            for (int l = r; l < j; ++l) s += t(r, l) * w[static_cast<std::size_t>(l)];
            t(r, j) = -bj * s;
        }
    }
    return t;
}

Matrix QrFactorization::thin_q() const {
    const int m = qr_.rows(), n = qr_.cols();
    // Start from the first n columns of I and apply the panel blocks in
    // reverse, each as Q <- (I - V T V^T) Q over the panel's row range.
    Matrix q(m, n);
    for (int j = 0; j < n; ++j) q(j, j) = 1.0;
    for (int p = static_cast<int>(t_.size()) - 1; p >= 0; --p) {
        const int k0 = p * kPanel;
        apply_compact_wy(qr_, k0, t_[static_cast<std::size_t>(p)].rows(),
                         t_[static_cast<std::size_t>(p)], /*transpose_t=*/false, q, 0, n);
    }
    return q;
}

Matrix QrFactorization::r() const {
    const int n = qr_.cols();
    Matrix r(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = i; j < n; ++j) r(i, j) = qr_(i, j);
    return r;
}

}  // namespace atmor::la
