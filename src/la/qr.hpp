// Blocked Householder QR factorisation (real, compact-WY form) and thin-Q
// extraction: the within-panel step of la::BasisBuilder::flush().
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace atmor::la {

/// Householder QR of an m x n matrix (m >= n): A = Q R.
///
/// The factorisation is blocked: columns are processed in panels of kPanel
/// reflectors, each panel's product H_k0 ... H_k1-1 = I - V T V^T held in
/// compact-WY form (unit-lower V below the diagonal, small upper-triangular
/// T). Trailing updates and thin-Q assembly apply whole panels as two
/// GEMM-shaped sweeps on the la/simd kernels instead of one reflector at a
/// time.
class QrFactorization {
public:
    explicit QrFactorization(Matrix a);

    /// Thin Q (m x n) with orthonormal columns.
    [[nodiscard]] Matrix thin_q() const;

    /// Upper-triangular R (n x n).
    [[nodiscard]] Matrix r() const;

    /// Compact-WY panel width.
    static constexpr int kPanel = 32;

private:
    /// T factor of the panel starting at column k0 (LAPACK larft recurrence).
    [[nodiscard]] Matrix build_t(int k0, int nb) const;

    Matrix qr_;              // Householder vectors below diagonal, R on/above
    Vec beta_;               // Householder scalars
    std::vector<Matrix> t_;  // per-panel compact-WY T factors
};

}  // namespace atmor::la
