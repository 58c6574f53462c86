// Real Schur decomposition (Hessenberg reduction + Francis double-shift QR)
// and its complex upper-triangular refinement.
//
// This is the structural backbone of the associated-transform method
// (paper Sec. 2.3): once G1 = Z T Z^H with T upper triangular, every shifted
// resolvent (sigma*I - G1)^{-1} is a triangular backsolve, and every
// Kronecker-sum resolvent (sigma*I - G1 (+) G1)^{-1} is a triangular
// Sylvester solve -- no n^2-sized factorisation is ever formed.
#pragma once

#include "la/matrix.hpp"

namespace atmor::la {

/// Result of the Hessenberg reduction A = Q H Q^T (H upper Hessenberg).
struct HessenbergResult {
    Matrix h;
    Matrix q;
};

/// Reduce a square matrix to upper Hessenberg form by Householder similarity.
HessenbergResult hessenberg_reduce(const Matrix& a);

/// Real Schur form A = Q T Q^T with T quasi-upper-triangular
/// (1x1 real blocks and 2x2 blocks carrying complex conjugate pairs;
///  2x2 blocks with real eigenvalues are split).
struct RealSchurResult {
    Matrix t;
    Matrix q;
};

RealSchurResult real_schur(const Matrix& a);

/// Complex Schur form A = Z T Z^H with T strictly upper triangular.
///
/// Holds the factors and provides the shifted solves the structured
/// Kronecker solvers are built from.
class ComplexSchur {
public:
    /// Factor a real square matrix.
    explicit ComplexSchur(const Matrix& a);

    [[nodiscard]] int dim() const { return t_.rows(); }
    [[nodiscard]] const ZMatrix& t() const { return t_; }
    [[nodiscard]] const ZMatrix& z() const { return z_; }
    /// Z^H, conj(Z) and Z^T, formed once here for the basis changes of the
    /// structured Kronecker solvers.
    [[nodiscard]] const ZMatrix& zh() const { return zh_; }
    [[nodiscard]] const ZMatrix& zbar() const { return zbar_; }
    [[nodiscard]] const ZMatrix& zt() const { return zt_; }

    /// Eigenvalues (diagonal of T).
    [[nodiscard]] ZVec eigenvalues() const;

    /// Solve (sigma*I - A) x = b through the Schur factors.
    /// Throws util::InternalError if sigma is (numerically) an eigenvalue.
    [[nodiscard]] ZVec solve_shifted(Complex sigma, const ZVec& b) const;

    /// Solve (sigma*I - T) y = w with T upper triangular (no basis change).
    [[nodiscard]] ZVec solve_shifted_triangular(Complex sigma, ZVec w) const;

    /// y = Z^H x  (into Schur coordinates).
    [[nodiscard]] ZVec to_schur_basis(const ZVec& x) const;
    /// y = Z x  (back to original coordinates).
    [[nodiscard]] ZVec from_schur_basis(const ZVec& x) const;

    /// y = A x evaluated through the factors (Z T Z^H x).
    [[nodiscard]] ZVec apply(const ZVec& x) const;

private:
    ZMatrix t_;
    ZMatrix z_;
    ZMatrix zh_;
    ZMatrix zbar_;
    ZMatrix zt_;
};

/// Eigenvalues of a real square matrix via the real Schur form.
ZVec eigenvalues(const Matrix& a);

/// Spectral abscissa max_i Re(lambda_i); < 0 means Hurwitz-stable.
double spectral_abscissa(const Matrix& a);

}  // namespace atmor::la
