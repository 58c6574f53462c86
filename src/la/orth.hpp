// Incremental orthonormal basis construction with deflation.
//
// The MOR front-ends feed moment vectors (from H1, the associated H2(s),
// H3(s), possibly at several expansion points) into a BasisBuilder; linearly
// dependent directions are deflated, which is how the "13th-order ROM from
// 6+3+2 matched moments" counts of the paper arise.
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace atmor::la {

/// Grows an orthonormal set of columns with deflation of near-dependent
/// directions.
///
/// Vectors are staged with stage()/stage_complex() and orthonormalised by
/// flush(), the one orthogonalizer. A flushed panel drops its zero and
/// non-finite candidates, is projected against the existing basis by two
/// blocked classical Gram-Schmidt sweeps (GEMM-shaped on the la/simd
/// kernels), then orthonormalised within itself by blocked Householder QR;
/// a column is deflated when its R diagonal (its orthogonal residual) falls
/// under deflation_tol * ||candidate||. The ATMOR_SCALAR_KERNELS escape
/// hatch swaps the kernels underneath, never the algorithm.
class BasisBuilder {
public:
    /// @param dim ambient dimension
    /// @param deflation_tol a candidate is rejected when its orthogonal
    ///        residual falls below deflation_tol * ||candidate||.
    explicit BasisBuilder(int dim, double deflation_tol = 1e-10);

    /// Queue one vector for the next flush().
    void stage(const Vec& v);

    /// Queue the real part and, when it is not numerically zero, the
    /// imaginary part of a complex vector for the next flush() (used for
    /// non-real expansion points; the projector must stay real).
    void stage_complex(const ZVec& v);

    /// Orthonormalise every staged vector against the basis and within the
    /// panel; append the survivors. Returns how many columns were added.
    int flush();

    [[nodiscard]] int dim() const { return dim_; }
    [[nodiscard]] int size() const { return static_cast<int>(basis_.size()); }
    [[nodiscard]] int staged() const { return static_cast<int>(staged_.size()); }

    /// Basis as a dim x size matrix with orthonormal columns. Requires every
    /// staged vector to have been flushed.
    [[nodiscard]] Matrix matrix() const;

private:
    int flush_chunk(std::vector<Vec> panel, std::vector<double> orig);

    int dim_;
    double tol_;
    std::vector<Vec> basis_;
    std::vector<Vec> staged_;
};

/// Orthonormalise the columns of m (rank-revealing); returns dim x r matrix.
Matrix orthonormalize_columns(const Matrix& m, double deflation_tol = 1e-10);

}  // namespace atmor::la
