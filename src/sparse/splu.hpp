// Sparse LU factorisation P A = L U with partial pivoting.
//
// Left-looking column algorithm in the style of CSparse (cs_lu): each column
// is a sparse triangular solve against the L computed so far, with the
// nonzero pattern discovered by a depth-first reach over L's column graph.
// This is the workhorse behind la::SparseLuBackend: the shifted resolvents
// (sI - G1)^{-1} and the implicit-integrator Jacobians factor in O(nnz +
// fill) instead of the O(n^3) of dense LU.
//
// The matrix is pre-permuted symmetrically by fill_reducing_order(), which
// reads the pattern of A + A^T only and picks by predicted fill:
//  * Reverse Cuthill-McKee first. Lifted circuit systems order their states
//    [voltages; diode states], which strings local couplings across an O(n)
//    bandwidth; RCM recovers the interleaved O(1)-bandwidth ordering under
//    which MNA ladders and trees factor fill-free.
//  * An elimination-tree pass counts RCM's predicted Cholesky fill of
//    A + A^T in O(nnz(L)). Only when it exceeds the pattern's own lower
//    triangle is an approximate-minimum-degree order computed on the
//    quotient graph, and it is kept only when it predicts strictly less
//    fill. 2-D meshes take it: on the 72x72 power grid (n = 5192) RCM
//    predicts 251,996 entries in L against 85,330, and nnz(L+U) at a
//    complex shift falls from 514,700 to 181,044.
// Fill-free patterns (ladders, trees, dense blocks) therefore keep exactly
// the RCM permutation and bit-identical factors. splu() and splu_shifted()
// order and factor in one call; ordering the 72x72 mesh costs about a tenth
// of one complex factorization of it.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "sparse/csr.hpp"

namespace atmor::sparse {

/// Sparse compressed-sparse-column triplet of a square matrix.
template <class T>
struct Csc {
    int n = 0;
    std::vector<int> col_ptr;  ///< size n + 1
    std::vector<int> row_idx;  ///< size nnz
    std::vector<T> values;     ///< size nnz
};

/// CSC assembly of (shift*I - A) from a real CSR matrix. The diagonal entry
/// is always present (it carries the shift), so the factorisation of shifted
/// resolvents never loses a structurally required pivot.
Csc<double> shifted_csc(const CsrMatrix& a, double shift);
Csc<la::Complex> shifted_csc(const CsrMatrix& a, la::Complex shift);

/// Plain CSC view of A itself.
Csc<double> csc_of(const CsrMatrix& a);

// Symmetric orders of a square sparsity pattern in compressed form: ptr
// holds n + 1 offsets into idx. They read only the pattern of A + A^T with
// the diagonal dropped, so the CSR arrays of A and the CSC arrays of A or of
// (shift*I - A) give the same order. Each returns q with q[new] = old.

/// Reverse Cuthill-McKee. Each component is rooted at its unvisited node of
/// least degree (lowest index on ties).
std::vector<int> rcm_order(int n, const std::vector<int>& ptr, const std::vector<int>& idx);

/// Approximate minimum degree on the quotient graph (Amestoy, Davis and
/// Duff, SIAM J. Matrix Anal. Appl. 17(4), 1996), postordered.
std::vector<int> amd_order(int n, const std::vector<int>& ptr, const std::vector<int>& idx);

/// The order SparseLu factors under: rcm_order(), unless its predicted fill
/// exceeds the pattern's own entries and amd_order() predicts strictly less.
std::vector<int> fill_reducing_order(int n, const std::vector<int>& ptr,
                                     const std::vector<int>& idx);

/// LU factorisation with partial pivoting over T in {double, complex}.
/// The matrix is pre-permuted symmetrically by a given order before the
/// factorisation; solve() maps right-hand sides through the permutation.
template <class T>
class SparseLu {
public:
    /// Factor from CSC under the symmetric order q (q[new] = old), normally
    /// fill_reducing_order() of a's pattern. Throws util::InternalError on
    /// exact singularity.
    SparseLu(const Csc<T>& a, const std::vector<int>& q);

    /// Solve A x = b into caller storage: x is resized to dim() and keeps
    /// its capacity, so a warmed x allocates nothing. The substitution runs
    /// in output index order, as the blocked solve does, so no pivot-space
    /// buffer and no final permute pass are needed. b must hold dim()
    /// entries and must not be x.
    void solve_into(const std::vector<T>& b, std::vector<T>& x) const;

    /// Solve A x = b; allocating wrapper over solve_into.
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const;

    /// Blocked multi-RHS solve A X = B (B is n x k). One pass over the L and
    /// U factors serves all k columns: each factor entry is loaded once and
    /// applied across a contiguous k-wide row of X, amortising the index
    /// traversal that dominates single-RHS sparse backsolves. Column c of the
    /// result is bit-for-bit identical to solve(B.col(c)).
    [[nodiscard]] la::DenseMatrix<T> solve(const la::DenseMatrix<T>& b) const;

    [[nodiscard]] int dim() const { return n_; }

    /// Fill-in diagnostics: nonzeros of L + U.
    [[nodiscard]] long factor_nnz() const {
        return static_cast<long>(lx_.size() + ux_.size());
    }

    /// min |pivot| / max |pivot| -- cheap conditioning probe, mirroring
    /// la::LuFactorization::pivot_ratio().
    [[nodiscard]] double pivot_ratio() const;

private:
    void factor(const Csc<T>& a);

    int n_ = 0;
    // L: unit lower triangular, diagonal stored first in each column.
    std::vector<int> lp_, li_;
    std::vector<T> lx_;
    // U: upper triangular, diagonal stored last in each column.
    std::vector<int> up_, ui_;
    std::vector<T> ux_;
    std::vector<int> pinv_;  ///< pinv_[permuted row] = pivot position
    std::vector<int> q_;     ///< fill-reducing order, q_[new] = old
    /// Solve row maps: both solves keep their working storage in OUTPUT
    /// index order, so pivot-space row k lives at storage row q_[k] and is
    /// seeded from b row src_[k] = q_[pinv^-1[k]]. This folds the final
    /// un-permute into the substitution indexing -- one pass and one buffer
    /// fewer than permute-solve-permute.
    std::vector<int> src_;
};

using SpLu = SparseLu<double>;
using ZSpLu = SparseLu<la::Complex>;

/// Convenience: factor A itself under fill_reducing_order().
SpLu splu(const CsrMatrix& a);
/// Convenience: factor (shift*I - A) under fill_reducing_order().
SpLu splu_shifted(const CsrMatrix& a, double shift);
ZSpLu splu_shifted(const CsrMatrix& a, la::Complex shift);

}  // namespace atmor::sparse
