// The Kronecker-sum resolvent (Bartels-Stewart) built on the complex Schur
// form.
//
// The central primitive is `resolvent_kron_sum_solve`, which evaluates
//     (sigma*I - A (+) A)^{-1} vec(C)  as the matrix equation
//     sigma*X - A X - X A^T = C
// in O(n^3) through the Schur factors of A -- this is exactly how the paper
// (Sec. 2.3) proposes to make the n^2-dimensional blocks of the associated
// realisation (eq. 17) tractable.
//
// Layout: vec() stacks columns, so a vec(X) buffer read row-major is X^T --
// row j of the buffer is column j of X. The solvers work on that layout in
// place: every column recurrence runs over contiguous rows.
#pragma once

#include "la/matrix.hpp"
#include "la/schur.hpp"

namespace atmor::la {

/// Solve sigma*Y - T1 Y - Y T2^T = C in place, where T1 (m x m) and T2
/// (p x p) are upper triangular and Y, C are m x p. `yt` holds vec(C) on
/// entry and vec(Y) on return: p rows of length m, row j = column j. Rows
/// are solved in descending order; each is a shifted triangular solve with
/// T1. Throws util::InternalError on a singular pencil (sigma equal to
/// T1(i,i) + T2(j,j)).
void tri_sylvester_shifted(const ZMatrix& t1, const ZMatrix& t2, Complex sigma, Complex* yt);

/// vec(X) = (sigma*I - A (+) A)^{-1} vec(C), i.e. sigma*X - A X - X A^T = C,
/// given the complex Schur form of A; vec_c has n^2 entries.
ZVec resolvent_kron_sum_solve(const ComplexSchur& schur_a, Complex sigma, const ZVec& vec_c);

}  // namespace atmor::la
