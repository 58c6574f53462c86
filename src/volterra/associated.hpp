// Associated transforms of the high-order Volterra transfer functions --
// the paper's central contribution (Sec. 2.2-2.3).
//
// The association of variables A_n collapses H_n(s1,...,sn) to a single-s
// function H_n(s) whose inverse Laplace transform is h_n(t,...,t). Theorems
// 1 and 2 of the paper give, for the QLDAE (2):
//
//   A2(H2)(s) = (sI - G1)^{-1} ( G2 (sI - G1 (+) G1)^{-1} b~ + d0 )   (eq. 17)
//        with b~ = sym(b_i (x) b_j), d0 = sym(D1_i b_j),
//   A3(H3)(s) = (sI - G1)^{-1} ( G2 H~3(s) + D1^2 b + G3 (sI - (+)^3 G1)^{-1} b(x)3 )
//        with H~3(s) = (I (x) c~2)(sI - G1 (+) Gt2)^{-1}(b (x) b~2)
//                    + (c~2 (x) I)(sI - Gt2 (+) G1)^{-1}(b~2 (x) b),
//
// where Gt2 = [[G1, G2], [0, G1 (+) G1]], b~2 = [d0; b~], c~2 = [I 0] is the
// (n + n^2)-order realisation of A2(H2). Gt2 is block upper triangular, so
// the lower n^3 block of the G1 (+) Gt2 resolvent is the (+)^3 G1 resolvent
// applied to b (x) b~: one G1 (+) Gt2 chain per input assignment feeds both
// the G2 and the G3 term, and b(x)3 is the weighted sum of those lower
// blocks. All resolvents are evaluated through the structured solvers
// (tensor::), so nothing of size n^2 or larger is ever factorised densely.
//
// This class provides the moment sequences of the associated transfer
// functions about arbitrary complex expansion points -- the inputs to the
// proposed MOR (core::AtMor). The zeroth moment at s is the transfer
// function's value there.
#pragma once

#include <memory>
#include <vector>

#include "la/matrix.hpp"
#include "la/schur.hpp"
#include "la/solver_backend.hpp"
#include "tensor/structured.hpp"
#include "volterra/qldae.hpp"

namespace atmor::volterra {

class AssociatedTransform {
public:
    /// @param backend solver used for every n-dimensional resolvent
    ///        (sI - G1)^{-1}. Defaults to sparse LU for sparse-first systems
    ///        and Schur for dense ones (la::make_resolvent_backend). The
    ///        n^2/n^3 Kronecker-structured solvers always need the Schur
    ///        factors and build them lazily, only when A2(H2)/A3(H3) moments
    ///        are actually requested -- a k1-only reduction of a sparse
    ///        system never performs a dense n x n factorisation.
    explicit AssociatedTransform(Qldae sys,
                                 std::shared_ptr<la::SolverBackend> backend = nullptr);

    /// Moment sequences about sigma0: the j-th element is the j-th Taylor
    /// coefficient of the associated transfer function in (s - sigma0).
    /// H1 is n x m, A2(H2) n x m^2 (column i*m + j for the ordered input
    /// pair) and A3(H3) n x m^3 (column (i*m + j)*m + k).
    [[nodiscard]] std::vector<la::ZMatrix> h1_moments(int count, la::Complex sigma0) const;
    [[nodiscard]] std::vector<la::ZMatrix> a2h2_moments(int count, la::Complex sigma0) const;
    [[nodiscard]] std::vector<la::ZMatrix> a3h3_moments(int count, la::Complex sigma0) const;

    [[nodiscard]] const Qldae& system() const { return sys_; }
    /// Schur factors of G1, built on first use (dense O(n^3) work).
    [[nodiscard]] const std::shared_ptr<const la::ComplexSchur>& schur_g1() const;
    /// The resolvent solver backend (shared; exposes cache statistics).
    [[nodiscard]] const std::shared_ptr<la::SolverBackend>& backend() const {
        return backend_;
    }

    /// b~2^{(ij)} = [sym D1 b ; sym b_i (x) b_j] of the eq.-17 realisation.
    [[nodiscard]] la::ZVec btilde2(int i, int j) const;
    /// d0^{(ij)} = (D1_i b_j + D1_j b_i)/2 = h2^{(ij)}(0+, 0+) (the paper's D1 b).
    [[nodiscard]] la::ZVec d0(int i, int j) const;

    /// The structured solvers (exposed for the MOR layer and diagnostics);
    /// built lazily together with the Schur factors.
    [[nodiscard]] const std::shared_ptr<tensor::KronSum2Solver>& kron_sum2() const;
    [[nodiscard]] const std::shared_ptr<tensor::BlockTriangularSolver>& gtilde2() const;

private:
    /// sym(b_i (x) b_j) lifted vector (length n^2).
    [[nodiscard]] la::ZVec sym_lift(int i, int j) const;

    /// Rows [first, first + count) of every column of X in C^{(n+n^2) x n},
    /// from vec(X): rows 0..n are the (I (x) c~2) slice, rows n..n+n^2 the
    /// (+)^3 G1 block.
    [[nodiscard]] la::ZVec column_rows(const la::ZVec& u, int first, int count) const;
    /// (c~2 (x) I) slice after commutation (read directly, no copy of u).
    [[nodiscard]] la::ZVec slice_m2(const la::ZVec& u) const;

    /// Build the Schur factors + Kronecker solvers on demand.
    void ensure_schur() const;

    /// Lazily built G1 (+) Gt2 solver.
    const std::shared_ptr<tensor::ShiftedSolver>& m1_solver() const;

    /// Inner moment sequences g_c (n-vectors per column) of the bracketed
    /// part of A2(H2)/A3(H3), composed with the leading resolvent series.
    [[nodiscard]] std::vector<la::ZMatrix> compose_with_leading_resolvent(
        const std::vector<la::ZMatrix>& inner, la::Complex sigma0) const;

    Qldae sys_;
    std::shared_ptr<la::SolverBackend> backend_;
    /// Guards the lazy construction of the Schur factors and the structured
    /// solvers below, so moment generation can fan out across threads (the
    /// multipoint loop in core::reduce_associated). Once built, the solvers
    /// are immutable and solved against without locking.
    mutable std::mutex lazy_mutex_;
    mutable std::shared_ptr<const la::ComplexSchur> schur_;
    mutable std::shared_ptr<tensor::KronSum2Solver> ks2_;
    mutable std::shared_ptr<tensor::BlockTriangularSolver> gt2_;
    mutable std::shared_ptr<tensor::ShiftedSolver> m1_;  // G1 (+) Gt2
};

}  // namespace atmor::volterra
