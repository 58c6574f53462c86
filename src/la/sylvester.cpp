#include "la/sylvester.hpp"

#include <cmath>

#include "util/check.hpp"

namespace atmor::la {

void tri_sylvester_shifted(const ZMatrix& t1, const ZMatrix& t2, Complex sigma, Complex* yt) {
    const int m = t1.rows(), p = t2.rows();
    ATMOR_REQUIRE(t1.square() && t2.square(), "tri_sylvester_shifted: factors must be square");

    // Column j of Y (row j of yt) couples only to columns k > j through
    // (Y T2^T)_{:,j} = sum_k T2(j,k) y_k; solve descending.
    const std::size_t len = static_cast<std::size_t>(m);
    for (int j = p - 1; j >= 0; --j) {
        Complex* yj = yt + static_cast<std::size_t>(j) * len;
        const Complex* t2j = t2.row_ptr(j);
        // rhs_j = C_j + sum_{k > j} T2(j,k) y_k  (rows k > j already solved).
        for (int k = j + 1; k < p; ++k) {
            if (t2j[k] == Complex(0)) continue;
            simd::zaxpy(t2j[k], yt + static_cast<std::size_t>(k) * len, yj, len);
        }
        // ((sigma - T2(j,j)) I - T1) y_j = rhs_j : shifted triangular backsolve.
        const Complex shift = sigma - t2j[j];
        for (int i = m - 1; i >= 0; --i) {
            const Complex* t1i = t1.row_ptr(i);
            Complex acc = yj[i];
            for (int k = i + 1; k < m; ++k) acc += t1i[k] * yj[k];
            const Complex d = shift - t1i[i];
            ATMOR_CHECK(std::abs(d) > 0.0,
                        "tri_sylvester_shifted: singular pencil (sigma hits eigenvalue sum)");
            yj[i] = acc / d;
        }
    }
}

ZVec resolvent_kron_sum_solve(const ComplexSchur& schur_a, Complex sigma, const ZVec& vec_c) {
    const int n = schur_a.dim();
    ATMOR_REQUIRE(static_cast<long>(vec_c.size()) == static_cast<long>(n) * n,
                  "resolvent_kron_sum_solve: vec(C) must have n^2 entries");
    // sigma X - A X - X A^T = C, A = Z T Z^H  =>  with Y = Z^H X conj(Z):
    // sigma Y - T Y - Y T^T = Z^H C conj(Z), and X = Z Y Z^T. On the
    // transposed buffers: Y^T's right side is (Z^H C^T) conj(Z) and
    // X^T = (Z Y^T) Z^T.
    const std::size_t nn = vec_c.size();
    ZVec w(nn), y(nn);
    matmul_into(schur_a.zh().data(), vec_c.data(), w.data(), n, n, n);
    matmul_into(w.data(), schur_a.zbar().data(), y.data(), n, n, n);
    tri_sylvester_shifted(schur_a.t(), schur_a.t(), sigma, y.data());
    matmul_into(schur_a.z().data(), y.data(), w.data(), n, n, n);
    matmul_into(w.data(), schur_a.zt().data(), y.data(), n, n, n);
    return y;
}

}  // namespace atmor::la
