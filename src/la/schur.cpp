#include "la/schur.hpp"

#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace atmor::la {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Householder reflector annihilating x[1..len) ; returns beta, writes v into
/// x (v[0] = 1 implicit), and the new leading entry into x0_out.
double small_householder(double* x, int len, double* x0_out) {
    double sigma = 0.0;
    for (int i = 1; i < len; ++i) sigma += x[i] * x[i];
    if (sigma == 0.0) {
        *x0_out = x[0];
        return 0.0;
    }
    const double alpha = x[0];
    const double mu = std::sqrt(alpha * alpha + sigma);
    const double v0 = (alpha <= 0.0) ? alpha - mu : -sigma / (alpha + mu);
    const double beta = 2.0 * v0 * v0 / (sigma + v0 * v0);
    for (int i = 1; i < len; ++i) x[i] /= v0;
    *x0_out = mu;
    return beta;
}

}  // namespace

HessenbergResult hessenberg_reduce(const Matrix& a) {
    ATMOR_REQUIRE(a.square(), "hessenberg_reduce: matrix must be square");
    const int n = a.rows();
    Matrix h = a;
    Matrix q = Matrix::identity(n);
    if (n <= 2) return {h, q};

    Vec v(static_cast<std::size_t>(n));
    for (int k = 0; k < n - 2; ++k) {
        const int len = n - k - 1;
        for (int i = 0; i < len; ++i) v[static_cast<std::size_t>(i)] = h(k + 1 + i, k);
        double head = 0.0;
        const double beta = small_householder(v.data(), len, &head);
        if (beta == 0.0) continue;
        v[0] = 1.0;

        // H <- P H  (rows k+1..n-1, all columns >= k).
        for (int j = k; j < n; ++j) {
            double w = 0.0;
            for (int i = 0; i < len; ++i) w += v[static_cast<std::size_t>(i)] * h(k + 1 + i, j);
            w *= beta;
            for (int i = 0; i < len; ++i) h(k + 1 + i, j) -= w * v[static_cast<std::size_t>(i)];
        }
        // H <- H P  (cols k+1..n-1, all rows).
        for (int i = 0; i < n; ++i) {
            double w = 0.0;
            for (int j = 0; j < len; ++j) w += h(i, k + 1 + j) * v[static_cast<std::size_t>(j)];
            w *= beta;
            for (int j = 0; j < len; ++j) h(i, k + 1 + j) -= w * v[static_cast<std::size_t>(j)];
        }
        // Q <- Q P.
        for (int i = 0; i < n; ++i) {
            double w = 0.0;
            for (int j = 0; j < len; ++j) w += q(i, k + 1 + j) * v[static_cast<std::size_t>(j)];
            w *= beta;
            for (int j = 0; j < len; ++j) q(i, k + 1 + j) -= w * v[static_cast<std::size_t>(j)];
        }
        h(k + 1, k) = head;
        for (int i = k + 2; i < n; ++i) h(i, k) = 0.0;
    }
    return {h, q};
}

namespace {

/// Apply the 3 (or 2) element Householder (v, beta) as a similarity transform
/// during the Francis bulge chase. k = pivot row, nr = reflector size.
void apply_bulge_reflector(Matrix& h, Matrix& q, const double* v, double beta, int k, int nr,
                           int l, int m) {
    const int n = h.rows();
    if (beta == 0.0) return;
    // Left: rows k..k+nr-1, columns max(l, k-1)..n-1.
    const int c0 = (k > l) ? k - 1 : l;
    for (int j = c0; j < n; ++j) {
        double w = 0.0;
        for (int i = 0; i < nr; ++i) w += v[i] * h(k + i, j);
        w *= beta;
        for (int i = 0; i < nr; ++i) h(k + i, j) -= w * v[i];
    }
    // Right: columns k..k+nr-1, rows 0..min(k+nr, m).
    const int r1 = std::min(k + nr, m);
    for (int i = 0; i <= r1; ++i) {
        double w = 0.0;
        for (int j = 0; j < nr; ++j) w += h(i, k + j) * v[j];
        w *= beta;
        for (int j = 0; j < nr; ++j) h(i, k + j) -= w * v[j];
    }
    // Accumulate Q <- Q P.
    for (int i = 0; i < n; ++i) {
        double w = 0.0;
        for (int j = 0; j < nr; ++j) w += q(i, k + j) * v[j];
        w *= beta;
        for (int j = 0; j < nr; ++j) q(i, k + j) -= w * v[j];
    }
}

/// Apply a Givens-style 2x2 rotation G = [[c, -s], [s, c]] as a similarity
/// transform on rows/cols (p, p+1) of T, accumulating into Q.
void apply_rotation(Matrix& t, Matrix& q, int p, double c, double s) {
    const int n = t.rows();
    for (int j = 0; j < n; ++j) {  // T <- G^T T
        const double a = t(p, j), b = t(p + 1, j);
        t(p, j) = c * a + s * b;
        t(p + 1, j) = -s * a + c * b;
    }
    for (int i = 0; i < n; ++i) {  // T <- T G
        const double a = t(i, p), b = t(i, p + 1);
        t(i, p) = c * a + s * b;
        t(i, p + 1) = -s * a + c * b;
    }
    for (int i = 0; i < n; ++i) {  // Q <- Q G
        const double a = q(i, p), b = q(i, p + 1);
        q(i, p) = c * a + s * b;
        q(i, p + 1) = -s * a + c * b;
    }
}

/// Split any 2x2 diagonal block with real eigenvalues into two 1x1 blocks.
void split_real_2x2_blocks(Matrix& t, Matrix& q) {
    const int n = t.rows();
    for (int p = 0; p + 1 < n; ++p) {
        if (t(p + 1, p) == 0.0) continue;
        const double a = t(p, p), b = t(p, p + 1), c = t(p + 1, p), d = t(p + 1, p + 1);
        const double half = 0.5 * (a - d);
        const double disc = half * half + b * c;
        if (disc < 0.0) {
            ++p;  // genuine complex pair: keep the block
            continue;
        }
        // Real eigenvalues: rotate so the block becomes upper triangular.
        const double sq = std::sqrt(disc);
        const double mid = 0.5 * (a + d);
        // Pick the eigenvalue that maximises |lambda - d| for a well-scaled vector.
        const double lam1 = mid + sq, lam2 = mid - sq;
        const double lam = (std::abs(lam1 - d) >= std::abs(lam2 - d)) ? lam1 : lam2;
        const double v0 = lam - d, v1 = c;
        const double nrm = std::hypot(v0, v1);
        if (nrm == 0.0) continue;
        apply_rotation(t, q, p, v0 / nrm, v1 / nrm);
        t(p + 1, p) = 0.0;
    }
}

}  // namespace

RealSchurResult real_schur(const Matrix& a) {
    ATMOR_REQUIRE(a.square(), "real_schur: matrix must be square");
    const int n = a.rows();
    auto [h, q] = hessenberg_reduce(a);
    if (n <= 1) return {h, q};

    int m = n - 1;      // active window end
    int iter = 0;       // iterations on the current window
    long total = 0;     // global safety counter
    const long total_limit = 60L * n + 200;

    while (m > 0) {
        ATMOR_CHECK(total++ < total_limit, "Francis QR failed to converge (n=" << n << ")");

        // Find the start l of the trailing unreduced window [l..m].
        int l = m;
        while (l > 0) {
            double s = std::abs(h(l - 1, l - 1)) + std::abs(h(l, l));
            if (s == 0.0) s = frobenius_norm(h);
            if (std::abs(h(l, l - 1)) <= kEps * s) {
                h(l, l - 1) = 0.0;
                break;
            }
            --l;
        }

        if (l == m) {  // 1x1 converged
            --m;
            iter = 0;
            continue;
        }
        if (l == m - 1) {  // 2x2 converged (classified/split later)
            m -= 2;
            iter = 0;
            continue;
        }

        ++iter;
        double shift_sum, shift_prod;
        if (iter % 11 == 0) {
            // Exceptional (Wilkinson ad-hoc) shift to break symmetry cycles.
            const double s = std::abs(h(m, m - 1)) + std::abs(h(m - 1, m - 2));
            shift_sum = 1.5 * s;
            shift_prod = s * s;
        } else {
            shift_sum = h(m - 1, m - 1) + h(m, m);
            shift_prod = h(m - 1, m - 1) * h(m, m) - h(m - 1, m) * h(m, m - 1);
        }

        // First column of (H - aI)(H - bI) restricted to the window.
        double x = h(l, l) * h(l, l) + h(l, l + 1) * h(l + 1, l) - shift_sum * h(l, l) +
                   shift_prod;
        double y = h(l + 1, l) * (h(l, l) + h(l + 1, l + 1) - shift_sum);
        double z = h(l + 2, l + 1) * h(l + 1, l);

        for (int k = l; k <= m - 2; ++k) {
            const int nr = (k + 2 <= m) ? 3 : 2;  // always 3 inside this loop
            double v[3] = {x, y, z};
            // Scale to avoid overflow in squaring.
            const double s = std::abs(x) + std::abs(y) + std::abs(z);
            if (s != 0.0) {
                v[0] /= s;
                v[1] /= s;
                v[2] /= s;
            }
            double head = 0.0;
            const double beta = small_householder(v, nr, &head);
            v[0] = 1.0;
            apply_bulge_reflector(h, q, v, beta, k, nr, l, m);
            if (k > l) {
                h(k, k - 1) = (s != 0.0) ? head * s : h(k, k - 1);
                for (int i = 1; i < nr; ++i) h(k + i, k - 1) = 0.0;
            }
            if (k < m - 2) {
                x = h(k + 1, k);
                y = h(k + 2, k);
                z = h(k + 3, k);
            }
        }
        // Final 2-element reflector to clear the last bulge entry H(m, m-2).
        {
            const int k = m - 1;
            double v[2] = {h(k, k - 1), h(k + 1, k - 1)};
            const double s = std::abs(v[0]) + std::abs(v[1]);
            if (s != 0.0) {
                v[0] /= s;
                v[1] /= s;
                double head = 0.0;
                const double beta = small_householder(v, 2, &head);
                v[0] = 1.0;
                apply_bulge_reflector(h, q, v, beta, k, 2, l, m);
                h(k, k - 1) = head * s;
                h(k + 1, k - 1) = 0.0;
            }
        }
    }

    // Clean below-subdiagonal dust and split real-eigenvalue 2x2 blocks.
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < i - 1; ++j) h(i, j) = 0.0;
    split_real_2x2_blocks(h, q);
    return {h, q};
}

ComplexSchur::ComplexSchur(const Matrix& a) {
    auto [t, q] = real_schur(a);
    const int n = t.rows();
    t_ = complexify(t);
    z_ = complexify(q);

    // Turn each remaining 2x2 block (complex pair) into complex triangular
    // form with a 2x2 unitary similarity.
    for (int p = 0; p + 1 < n; ++p) {
        if (t(p + 1, p) == 0.0) continue;
        const double a11 = t(p, p), a12 = t(p, p + 1);
        const double a21 = t(p + 1, p), a22 = t(p + 1, p + 1);
        const double half = 0.5 * (a11 - a22);
        const double disc = half * half + a12 * a21;
        ATMOR_CHECK(disc < 0.0, "unsplit real 2x2 block in complex Schur");
        const Complex lambda(0.5 * (a11 + a22), std::sqrt(-disc));
        // Eigenvector v = [lambda - a22, a21]^T (a21 != 0 in an unreduced block).
        Complex v0 = lambda - a22;
        Complex v1 = a21;
        const double nrm = std::sqrt(std::norm(v0) + std::norm(v1));
        v0 /= nrm;
        v1 /= nrm;
        // Unitary U = [[v0, -conj(v1)], [v1, conj(v0)]].
        const Complex u00 = v0, u01 = -std::conj(v1);
        const Complex u10 = v1, u11 = std::conj(v0);

        // T <- U^H T (rows p, p+1).
        for (int j = 0; j < n; ++j) {
            const Complex x = t_(p, j), y = t_(p + 1, j);
            t_(p, j) = std::conj(u00) * x + std::conj(u10) * y;
            t_(p + 1, j) = std::conj(u01) * x + std::conj(u11) * y;
        }
        // T <- T U (cols p, p+1).
        for (int i = 0; i < n; ++i) {
            const Complex x = t_(i, p), y = t_(i, p + 1);
            t_(i, p) = x * u00 + y * u10;
            t_(i, p + 1) = x * u01 + y * u11;
        }
        // Z <- Z U.
        for (int i = 0; i < n; ++i) {
            const Complex x = z_(i, p), y = z_(i, p + 1);
            z_(i, p) = x * u00 + y * u10;
            z_(i, p + 1) = x * u01 + y * u11;
        }
        t_(p + 1, p) = Complex(0.0, 0.0);
        ++p;
    }
    zh_ = adjoint(z_);
    zbar_ = conjugate(z_);
    zt_ = transpose(z_);
}

ZVec ComplexSchur::eigenvalues() const {
    ZVec ev(static_cast<std::size_t>(dim()));
    for (int i = 0; i < dim(); ++i) ev[static_cast<std::size_t>(i)] = t_(i, i);
    return ev;
}

ZVec ComplexSchur::to_schur_basis(const ZVec& x) const {
    ATMOR_REQUIRE(static_cast<int>(x.size()) == dim(), "to_schur_basis: size mismatch");
    ZVec y(static_cast<std::size_t>(dim()), Complex(0));
    for (int i = 0; i < dim(); ++i) {
        const Complex* zhi = zh_.row_ptr(i);
        Complex acc(0);
        for (int k = 0; k < dim(); ++k) acc += zhi[k] * x[static_cast<std::size_t>(k)];
        y[static_cast<std::size_t>(i)] = acc;
    }
    return y;
}

ZVec ComplexSchur::from_schur_basis(const ZVec& x) const {
    ATMOR_REQUIRE(static_cast<int>(x.size()) == dim(), "from_schur_basis: size mismatch");
    return matvec(z_, x);
}

ZVec ComplexSchur::solve_shifted_triangular(Complex sigma, ZVec w) const {
    const int n = dim();
    ATMOR_REQUIRE(static_cast<int>(w.size()) == n, "solve_shifted_triangular: size mismatch");
    for (int i = n - 1; i >= 0; --i) {
        Complex acc = w[static_cast<std::size_t>(i)];
        for (int j = i + 1; j < n; ++j) acc += t_(i, j) * w[static_cast<std::size_t>(j)];
        // (sigma I - T) x = w  =>  (sigma - T_ii) x_i - sum_j T_ij x_j = w_i.
        const Complex d = sigma - t_(i, i);
        ATMOR_CHECK(std::abs(d) > 0.0, "shift sigma hits an eigenvalue");
        w[static_cast<std::size_t>(i)] = acc / d;
    }
    return w;
}

ZVec ComplexSchur::solve_shifted(Complex sigma, const ZVec& b) const {
    return from_schur_basis(solve_shifted_triangular(sigma, to_schur_basis(b)));
}

ZVec ComplexSchur::apply(const ZVec& x) const {
    ZVec y = to_schur_basis(x);
    const int n = dim();
    ZVec ty(static_cast<std::size_t>(n), Complex(0));
    for (int i = 0; i < n; ++i) {
        Complex acc(0);
        for (int j = i; j < n; ++j) acc += t_(i, j) * y[static_cast<std::size_t>(j)];
        ty[static_cast<std::size_t>(i)] = acc;
    }
    return from_schur_basis(ty);
}

ZVec eigenvalues(const Matrix& a) {
    auto [t, q] = real_schur(a);
    (void)q;
    const int n = t.rows();
    ZVec ev(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
        if (p + 1 < n && t(p + 1, p) != 0.0) {
            const double half = 0.5 * (t(p, p) - t(p + 1, p + 1));
            const double disc = half * half + t(p, p + 1) * t(p + 1, p);
            const double mid = 0.5 * (t(p, p) + t(p + 1, p + 1));
            ATMOR_CHECK(disc < 0.0, "unsplit real block in eigenvalues()");
            const double im = std::sqrt(-disc);
            ev[static_cast<std::size_t>(p)] = Complex(mid, im);
            ev[static_cast<std::size_t>(p + 1)] = Complex(mid, -im);
            ++p;
        } else {
            ev[static_cast<std::size_t>(p)] = Complex(t(p, p), 0.0);
        }
    }
    return ev;
}

double spectral_abscissa(const Matrix& a) {
    double m = -std::numeric_limits<double>::infinity();
    for (const auto& ev : eigenvalues(a)) m = std::max(m, ev.real());
    return m;
}

}  // namespace atmor::la
