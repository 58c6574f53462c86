#include "volterra/associated.hpp"

#include <algorithm>
#include <array>
#include <map>

#include "la/vector_ops.hpp"
#include "tensor/kronecker.hpp"
#include "util/check.hpp"

namespace atmor::volterra {

using la::Complex;
using la::ZMatrix;
using la::ZVec;

namespace {

/// Assignment (a | {b, c}) of inputs to the H1 (x) H2 factor structure of H3,
/// deduplicated over the unordered pair {b, c} with multiplicity weights.
struct Assignment {
    int a;
    int b;
    int c;  // b <= c
    double weight;
};

std::vector<Assignment> dedup_assignments(int i, int j, int k) {
    std::map<std::tuple<int, int, int>, double> acc;
    const std::array<std::array<int, 3>, 3> raw = {{{i, j, k}, {j, i, k}, {k, i, j}}};
    for (const auto& r : raw) {
        const int b = std::min(r[1], r[2]);
        const int c = std::max(r[1], r[2]);
        acc[{r[0], b, c}] += 1.0;
    }
    std::vector<Assignment> out;
    out.reserve(acc.size());
    for (const auto& [key, w] : acc)
        out.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key), w});
    return out;
}

/// All 6 permutations of a triple.
std::array<std::array<int, 3>, 6> permutations3(int i, int j, int k) {
    return {{{i, j, k}, {i, k, j}, {j, i, k}, {j, k, i}, {k, i, j}, {k, j, i}}};
}

}  // namespace

AssociatedTransform::AssociatedTransform(Qldae sys, std::shared_ptr<la::SolverBackend> backend)
    : sys_(std::move(sys)), backend_(std::move(backend)) {
    if (!backend_) backend_ = la::make_resolvent_backend(sys_.g1_op());
}

void AssociatedTransform::ensure_schur() const {
    std::lock_guard<std::mutex> lock(lazy_mutex_);
    if (schur_) return;
    // Reuse the backend's factors when it is Schur-based (dense default), so
    // the O(n^3) decomposition happens exactly once per system.
    if (auto* sb = dynamic_cast<la::SchurBackend*>(backend_.get()))
        schur_ = sb->schur_for(sys_.g1_op());
    else
        schur_ = std::make_shared<const la::ComplexSchur>(sys_.g1());
    ks2_ = std::make_shared<tensor::KronSum2Solver>(schur_);
    // Gt2 = [[G1, G2], [0, G1 (+) G1]] (eq. 17); the coupling block is G2's
    // matrix view. A quadratic-free system still gets a valid (zero) coupling.
    sparse::SparseTensor3 coupling = sys_.has_quadratic()
                                         ? sys_.g2()
                                         : sparse::SparseTensor3(sys_.order(), sys_.order(),
                                                                 sys_.order());
    gt2_ = std::make_shared<tensor::BlockTriangularSolver>(schur_, std::move(coupling), ks2_);
}

const std::shared_ptr<const la::ComplexSchur>& AssociatedTransform::schur_g1() const {
    ensure_schur();
    return schur_;
}

const std::shared_ptr<tensor::KronSum2Solver>& AssociatedTransform::kron_sum2() const {
    ensure_schur();
    return ks2_;
}

const std::shared_ptr<tensor::BlockTriangularSolver>& AssociatedTransform::gtilde2() const {
    ensure_schur();
    return gt2_;
}

const std::shared_ptr<tensor::ShiftedSolver>& AssociatedTransform::m1_solver() const {
    ensure_schur();
    std::lock_guard<std::mutex> lock(lazy_mutex_);
    if (!m1_) m1_ = std::make_shared<tensor::KronSumLeftSolver>(schur_, gt2_);
    return m1_;
}

ZVec AssociatedTransform::sym_lift(int i, int j) const {
    const la::Vec bi = sys_.b_col(i);
    const la::Vec bj = sys_.b_col(j);
    la::Vec w = tensor::kron(bi, bj);
    la::axpy(1.0, tensor::kron(bj, bi), w);
    la::scale(0.5, w);
    return la::complexify(w);
}

ZVec AssociatedTransform::d0(int i, int j) const {
    ZVec v(static_cast<std::size_t>(sys_.order()), Complex(0));
    if (!sys_.has_bilinear()) return v;
    la::Vec w = sys_.apply_d1(i, sys_.b_col(j));
    la::axpy(1.0, sys_.apply_d1(j, sys_.b_col(i)), w);
    la::scale(0.5, w);
    return la::complexify(w);
}

ZVec AssociatedTransform::btilde2(int i, int j) const {
    const ZVec head = d0(i, j);
    const ZVec tail = sym_lift(i, j);
    ZVec out;
    out.reserve(head.size() + tail.size());
    out.insert(out.end(), head.begin(), head.end());
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

ZVec AssociatedTransform::column_rows(const ZVec& u, int first, int count) const {
    // Column i of X in C^{p x n} sits at u[i*p]: keep its rows
    // [first, first + count), columns one after another.
    const std::size_t n = static_cast<std::size_t>(sys_.order());
    const std::size_t p = n + n * n;
    const std::size_t len = static_cast<std::size_t>(count);
    ZVec out(n * len);
    for (std::size_t i = 0; i < n; ++i)
        std::copy_n(u.begin() + static_cast<std::ptrdiff_t>(i * p) + first, len,
                    out.begin() + static_cast<std::ptrdiff_t>(i * len));
    return out;
}

ZVec AssociatedTransform::slice_m2(const ZVec& u) const {
    // (c~2 (x) I_n) applied to the commuted vector: entry [alpha*n + i] of the
    // commuted layout equals u[i*p + alpha], alpha < n.
    const int n = sys_.order();
    const int p = n + n * n;
    ZVec out(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    for (int alpha = 0; alpha < n; ++alpha)
        for (int i = 0; i < n; ++i)
            out[static_cast<std::size_t>(alpha) * n + static_cast<std::size_t>(i)] =
                u[static_cast<std::size_t>(i) * p + static_cast<std::size_t>(alpha)];
    return out;
}

// ---------------------------------------------------------------------------
// Moments
// ---------------------------------------------------------------------------

std::vector<ZMatrix> AssociatedTransform::h1_moments(int count, Complex sigma0) const {
    ATMOR_REQUIRE(count >= 0, "h1_moments: negative count");
    const int n = sys_.order(), m = sys_.inputs();
    std::vector<ZMatrix> out;
    out.reserve(static_cast<std::size_t>(count));
    // The whole m-column B block rides the resolvent chain together: one
    // factor pass per moment order instead of m.
    ZMatrix cur(n, m);
    for (int i = 0; i < m; ++i) cur.set_col(i, la::complexify(sys_.b_col(i)));
    for (int j = 0; j < count; ++j) {
        cur = backend_->solve_shifted(sys_.g1_op(), sigma0, cur);
        ZMatrix mj = cur;
        if (j % 2 == 1) mj *= Complex(-1);
        out.push_back(std::move(mj));
    }
    return out;
}

std::vector<ZMatrix> AssociatedTransform::compose_with_leading_resolvent(
    const std::vector<ZMatrix>& inner, Complex sigma0) const {
    // Given g(s) = sum_c inner[c] (s-sigma0)^c, return the Taylor coefficients
    // of (sI - G1)^{-1} g(s): m_j = sum_{c<=j} (-1)^{j-c} R^{j-c+1} inner[c].
    const int count = static_cast<int>(inner.size());
    const int n = sys_.order();
    const int cols = count > 0 ? inner[0].cols() : 0;
    std::vector<ZMatrix> out(static_cast<std::size_t>(count), ZMatrix(n, cols));
    for (int c = 0; c < count; ++c) {
        // All columns of inner_c ride the resolvent chain as one block.
        ZMatrix cur = inner[static_cast<std::size_t>(c)];
        for (int j = c; j < count; ++j) {
            cur = backend_->solve_shifted(sys_.g1_op(), sigma0, cur);  // R^{j-c+1} inner_c
            const Complex sign = ((j - c) % 2 == 1) ? Complex(-1) : Complex(1);
            ZMatrix& oj = out[static_cast<std::size_t>(j)];
            for (int r = 0; r < n; ++r) {
                const Complex* cr = cur.row_ptr(r);
                Complex* orow = oj.row_ptr(r);
                for (int col = 0; col < cols; ++col) orow[col] += sign * cr[col];
            }
        }
    }
    return out;
}

std::vector<ZMatrix> AssociatedTransform::a2h2_moments(int count, Complex sigma0) const {
    ATMOR_REQUIRE(count >= 0, "a2h2_moments: negative count");
    const int n = sys_.order(), m = sys_.inputs();
    std::vector<ZMatrix> inner(static_cast<std::size_t>(count), ZMatrix(n, m * m));
    if (count == 0 || (!sys_.has_quadratic() && !sys_.has_bilinear()))
        return std::vector<ZMatrix>(static_cast<std::size_t>(count), ZMatrix(n, m * m));

    for (int i = 0; i < m; ++i) {
        for (int j = i; j < m; ++j) {
            // c = 0 constant part.
            const ZVec dd = d0(i, j);
            auto add_col = [&](int c, const ZVec& v) {
                inner[static_cast<std::size_t>(c)].set_col(i * m + j, v);
                if (i != j) inner[static_cast<std::size_t>(c)].set_col(j * m + i, v);
            };
            if (!sys_.has_quadratic()) {
                add_col(0, dd);
                continue;
            }
            ZVec w = sym_lift(i, j);
            for (int c = 0; c < count; ++c) {
                w = kron_sum2()->solve(sigma0, w);
                ZVec g = sys_.g2().apply_lifted(w);
                if (c % 2 == 1) la::scale(Complex(-1), g);
                if (c == 0) la::axpy(Complex(1), dd, g);
                // accumulate into existing (zero) column
                ZVec cur = inner[static_cast<std::size_t>(c)].col(i * m + j);
                la::axpy(Complex(1), g, cur);
                add_col(c, cur);
            }
        }
    }
    return compose_with_leading_resolvent(inner, sigma0);
}

std::vector<ZMatrix> AssociatedTransform::a3h3_moments(int count, Complex sigma0) const {
    ATMOR_REQUIRE(count >= 0, "a3h3_moments: negative count");
    const int n = sys_.order(), m = sys_.inputs();
    std::vector<ZMatrix> inner(static_cast<std::size_t>(count), ZMatrix(n, m * m * m));
    const bool g2_part = sys_.has_quadratic();
    const bool d1_part = sys_.has_bilinear();
    const bool g3_part = sys_.has_cubic();
    if (count == 0 || (!g2_part && !d1_part && !g3_part))
        return std::vector<ZMatrix>(static_cast<std::size_t>(count), ZMatrix(n, m * m * m));

    for (int i = 0; i < m; ++i) {
        for (int j = i; j < m; ++j) {
            for (int k = j; k < m; ++k) {
                std::vector<ZVec> cols(static_cast<std::size_t>(count),
                                       ZVec(static_cast<std::size_t>(n), Complex(0)));
                // The weights w sum b_a (x) sym(b_b (x) b_c) to sym(b_i (x) b_j (x) b_k),
                // so the chains' lower blocks also carry the G3 term.
                for (const auto& as : dedup_assignments(i, j, k)) {
                    const Complex w(as.weight / 3.0, 0.0);
                    if (d1_part)
                        la::axpy(w, sys_.apply_d1(as.a, d0(as.b, as.c)), cols[0]);
                    if (!g2_part && !g3_part) continue;
                    ZVec u = tensor::kron(la::complexify(sys_.b_col(as.a)), btilde2(as.b, as.c));
                    for (int c = 0; c < count; ++c) {
                        u = m1_solver()->solve(sigma0, u);
                        const Complex sign = (c % 2 == 1) ? Complex(-1) : Complex(1);
                        ZVec& col = cols[static_cast<std::size_t>(c)];
                        if (g2_part) {
                            const ZVec top = column_rows(u, 0, n);
                            la::axpy(w * sign, sys_.g2().apply_lifted(top), col);
                            la::axpy(w * sign, sys_.g2().apply_lifted(slice_m2(u)), col);
                        }
                        if (g3_part) {
                            const ZVec low = column_rows(u, n, n * n);
                            la::axpy(w * sign, sys_.g3().apply_lifted(low), col);
                        }
                    }
                }
                for (int c = 0; c < count; ++c)
                    for (const auto& perm : permutations3(i, j, k))
                        inner[static_cast<std::size_t>(c)].set_col(
                            (perm[0] * m + perm[1]) * m + perm[2],
                            cols[static_cast<std::size_t>(c)]);
            }
        }
    }
    return compose_with_leading_resolvent(inner, sigma0);
}

}  // namespace atmor::volterra
