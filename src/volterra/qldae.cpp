#include "volterra/qldae.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "la/simd.hpp"
#include "la/vector_ops.hpp"
#include "util/check.hpp"

namespace atmor::volterra {

namespace {

/// Columns of the packed matrix of a degree-`degree` form in q variables,
/// C(q + degree - 1, degree), or 0 when the q x columns matrix would hold
/// more than `budget` coefficients (or more columns than an int indexes).
/// q * C(q + k - 1, k) grows one degree at a time, and each step is checked
/// against the budget by division before the product is formed, so nothing
/// overflows whatever q and budget a loaded artifact declares.
std::size_t packed_width(std::size_t q, std::size_t degree, std::size_t budget) {
    std::size_t size = q;
    for (std::size_t k = 1; k <= degree; ++k) {
        const std::size_t grow = q + k - 1;
        if (size > budget * k / grow) return 0;
        size = size * grow / k;  // exact: q * C(q + k - 1, k)
    }
    const std::size_t cols = size / q;
    return cols <= static_cast<std::size_t>(std::numeric_limits<int>::max()) ? cols : 0;
}

/// Column of the monomial x_a x_b (a <= b) in the packed G2: the pairs of
/// {0, ..., q-1} in lexicographic order.
std::size_t pair_index(std::size_t q, std::size_t a, std::size_t b) {
    return a * q - a * (a + 1) / 2 + b;
}

/// Column of x_a x_b x_c (a <= b <= c) in the packed G3: the triples that
/// start below a (all triples less those over {a, ..., q-1}), then the pair
/// (b, c) over {a, ..., q-1}.
std::size_t triple_index(std::size_t q, std::size_t a, std::size_t b, std::size_t c) {
    const auto triples_over = [](std::size_t m) { return m * (m + 1) * (m + 2) / 6; };
    return triples_over(q) - triples_over(q - a) + pair_index(q - a, b - a, c - a);
}

/// Row r of m times x, on the same kernel as CsrMatrix::matvec.
double row_dot(const sparse::CsrMatrix& m, int r, const double* x) {
    const auto k0 = static_cast<std::size_t>(m.row_ptr()[static_cast<std::size_t>(r)]);
    const auto k1 = static_cast<std::size_t>(m.row_ptr()[static_cast<std::size_t>(r) + 1]);
    return la::simd::spmv_row(m.values().data() + k0, m.col_idx().data() + k0, k1 - k0, x);
}

/// y += m x for a dense row-major m on the la::simd::gemv kernel.
void gemv(const la::Matrix& m, const double* x, double* y) {
    const auto cols = static_cast<std::size_t>(m.cols());
    la::simd::gemv(static_cast<std::size_t>(m.rows()), cols, m.data(), cols, x, y);
}

}  // namespace

Qldae::Qldae(la::Matrix g1, sparse::SparseTensor3 g2, la::Matrix b, la::Matrix c)
    : Qldae(std::move(g1), std::move(g2), sparse::SparseTensor4(), std::vector<la::Matrix>{},
            std::move(b), std::move(c)) {}

Qldae::Qldae(la::Matrix g1, sparse::SparseTensor3 g2, sparse::SparseTensor4 g3,
             std::vector<la::Matrix> d1, la::Matrix b, la::Matrix c)
    : g2_(std::move(g2)),
      g3_(std::move(g3)),
      has_bilinear_(!d1.empty()),
      d1_dense_(std::move(d1)) {
    g1_dense_ = std::make_shared<const la::Matrix>(std::move(g1));
    g1_op_ = std::make_shared<const la::DenseOperator>(g1_dense_);
    b_dense_ = std::make_shared<const la::Matrix>(std::move(b));
    c_dense_ = std::make_shared<const la::Matrix>(std::move(c));
    inputs_ = b_dense_->cols();
    outputs_ = c_dense_->rows();
    validate();
    pack_tensors();
}

Qldae::Qldae(sparse::CsrMatrix g1, sparse::SparseTensor3 g2, sparse::SparseTensor4 g3,
             std::vector<sparse::CsrMatrix> d1, sparse::CsrMatrix b, sparse::CsrMatrix c)
    : g2_(std::move(g2)),
      g3_(std::move(g3)),
      has_bilinear_(!d1.empty()),
      d1_csr_(std::move(d1)) {
    g1_csr_ = std::make_shared<const sparse::CsrMatrix>(std::move(g1));
    g1_op_ = std::make_shared<const la::SparseOperator>(g1_csr_);
    b_csr_ = std::make_shared<const sparse::CsrMatrix>(std::move(b));
    c_csr_ = std::make_shared<const sparse::CsrMatrix>(std::move(c));
    inputs_ = b_csr_->cols();
    outputs_ = c_csr_->rows();
    validate();
}

void Qldae::validate() const {
    const int n = g1_op_->rows();
    ATMOR_REQUIRE(g1_op_->square(), "Qldae: G1 must be square");
    ATMOR_REQUIRE(n > 0, "Qldae: empty system");
    if (!g2_.empty() || g2_.rows() > 0) {
        ATMOR_REQUIRE(g2_.rows() == n && g2_.n1() == n && g2_.n2() == n,
                      "Qldae: G2 must be n x n x n");
    }
    if (!g3_.empty() || g3_.n() > 0) {
        ATMOR_REQUIRE(g3_.n() == n, "Qldae: G3 must be n x n x n x n");
    }
    const int b_rows = is_sparse() ? b_csr_->rows() : b_dense_->rows();
    const int c_cols = is_sparse() ? c_csr_->cols() : c_dense_->cols();
    ATMOR_REQUIRE(b_rows == n, "Qldae: B rows must equal n");
    ATMOR_REQUIRE(inputs_ >= 1, "Qldae: at least one input required");
    ATMOR_REQUIRE(c_cols == n, "Qldae: C cols must equal n");
    ATMOR_REQUIRE(outputs_ >= 1, "Qldae: at least one output required");
    if (has_bilinear_) {
        const std::size_t count = is_sparse() ? d1_csr_.size() : d1_dense_.size();
        ATMOR_REQUIRE(static_cast<int>(count) == inputs_,
                      "Qldae: need one D1 matrix per input, got " << count << " for "
                                                                  << inputs_ << " inputs");
        if (is_sparse()) {
            for (const auto& d : d1_csr_)
                ATMOR_REQUIRE(d.rows() == n && d.cols() == n, "Qldae: D1 must be n x n");
        } else {
            for (const auto& d : d1_dense_)
                ATMOR_REQUIRE(d.rows() == n && d.cols() == n, "Qldae: D1 must be n x n");
        }
    }
}

void Qldae::pack_tensors() {
    // Duplicate entries and every slot order of one monomial sum into its
    // one packed coefficient.
    const auto q = static_cast<std::size_t>(order());
    const std::size_t pairs = packed_width(q, 2, 2 * g2_.entry_count());
    std::size_t triples = packed_width(q, 3, 2 * g3_.entry_count());
    // Both blocks share one matrix, whose column count must fit an int too.
    if (triples > static_cast<std::size_t>(std::numeric_limits<int>::max()) - pairs) triples = 0;
    g2_packed_ = pairs > 0;
    g3_packed_ = triples > 0;
    if (pairs + triples == 0) return;
    packed_ = la::Matrix(order(), static_cast<int>(pairs + triples));
    if (g2_packed_) {
        for (const auto& e : g2_.entries()) {
            const auto [a, b] = std::minmax(e.i, e.j);
            packed_.row_ptr(e.row)[pair_index(q, static_cast<std::size_t>(a),
                                              static_cast<std::size_t>(b))] += e.value;
        }
    }
    if (g3_packed_) {
        for (const auto& e : g3_.entries()) {
            std::array<int, 3> s{e.i, e.j, e.k};
            std::sort(s.begin(), s.end());
            packed_.row_ptr(e.row)[pairs + triple_index(q, static_cast<std::size_t>(s[0]),
                                                        static_cast<std::size_t>(s[1]),
                                                        static_cast<std::size_t>(s[2]))] +=
                e.value;
        }
    }
}

std::size_t Qldae::packed_coefficients() const {
    return static_cast<std::size_t>(packed_.rows()) * static_cast<std::size_t>(packed_.cols());
}

// ---------------------------------------------------------------------------
// Dense mirrors (lazy).
// ---------------------------------------------------------------------------

// Each lazy mirror materialises at most once under dense_mutex_; afterwards
// the returned references are immutable, so concurrent readers (the parallel
// sweep and fan-out layers) are safe.

const la::Matrix& Qldae::g1() const {
    std::lock_guard<std::mutex> lock(*dense_mutex_);
    if (!g1_dense_) g1_dense_ = std::make_shared<const la::Matrix>(g1_csr_->to_dense());
    return *g1_dense_;
}

const la::Matrix& Qldae::b() const {
    std::lock_guard<std::mutex> lock(*dense_mutex_);
    if (!b_dense_) b_dense_ = std::make_shared<const la::Matrix>(b_csr_->to_dense());
    return *b_dense_;
}

const la::Matrix& Qldae::c() const {
    std::lock_guard<std::mutex> lock(*dense_mutex_);
    if (!c_dense_) c_dense_ = std::make_shared<const la::Matrix>(c_csr_->to_dense());
    return *c_dense_;
}

const la::Matrix& Qldae::d1(int input) const {
    ATMOR_REQUIRE(input >= 0 && input < inputs(), "Qldae::d1: input index out of range");
    static const la::Matrix empty;
    if (!has_bilinear_) {
        return empty;  // caller checks has_bilinear() or handles 0x0
    }
    std::lock_guard<std::mutex> lock(*dense_mutex_);
    if (d1_dense_.empty()) d1_dense_.resize(static_cast<std::size_t>(inputs_));
    la::Matrix& slot = d1_dense_[static_cast<std::size_t>(input)];
    if (slot.rows() == 0 && is_sparse())
        slot = d1_csr_[static_cast<std::size_t>(input)].to_dense();
    return slot;
}

// ---------------------------------------------------------------------------
// Operator applications.
// ---------------------------------------------------------------------------

la::Vec Qldae::apply_d1(int input, const la::Vec& x) const {
    ATMOR_REQUIRE(input >= 0 && input < inputs(), "Qldae::apply_d1: input index out of range");
    if (!has_bilinear_) return la::Vec(static_cast<std::size_t>(order()), 0.0);
    if (is_sparse()) return d1_csr_[static_cast<std::size_t>(input)].matvec(x);
    return la::matvec(d1_dense_[static_cast<std::size_t>(input)], x);
}

la::ZVec Qldae::apply_d1(int input, const la::ZVec& x) const {
    ATMOR_REQUIRE(input >= 0 && input < inputs(), "Qldae::apply_d1: input index out of range");
    if (!has_bilinear_) return la::ZVec(static_cast<std::size_t>(order()), la::Complex(0));
    if (is_sparse()) return d1_csr_[static_cast<std::size_t>(input)].matvec(x);
    return la::matvec_rc(d1_dense_[static_cast<std::size_t>(input)], x);
}

la::Vec Qldae::apply_c(const la::Vec& x) const {
    if (is_sparse()) return c_csr_->matvec(x);
    return la::matvec(*c_dense_, x);
}

la::Vec Qldae::b_col(int input) const {
    ATMOR_REQUIRE(input >= 0 && input < inputs(), "Qldae::b_col: input index out of range");
    if (is_sparse()) return b_csr_->col(input);
    return b_dense_->col(input);
}

// ---------------------------------------------------------------------------
// rhs / Jacobian.
// ---------------------------------------------------------------------------

la::Vec Qldae::rhs(const la::Vec& x, const la::Vec& u) const {
    la::Vec f;
    la::Vec work;
    rhs_into(x, u, f, work);
    return f;
}

void Qldae::rhs_into(const la::Vec& x, const la::Vec& u, la::Vec& f, la::Vec& work) const {
    ATMOR_REQUIRE(static_cast<int>(x.size()) == order(), "Qldae::rhs: state size mismatch");
    ATMOR_REQUIRE(static_cast<int>(u.size()) == inputs(), "Qldae::rhs: input size mismatch");
    ATMOR_REQUIRE(&f != &x && &work != &x && &work != &f,
                  "Qldae::rhs_into: f, work and x must be distinct vectors");
    const int n = order();
    const auto un = static_cast<std::size_t>(n);
    const double* xd = x.data();
    if (is_sparse()) {
        f.resize(un);
        for (int r = 0; r < n; ++r) f[static_cast<std::size_t>(r)] = row_dot(*g1_csr_, r, xd);
    } else {
        f.assign(un, 0.0);
        gemv(*g1_dense_, xd, f.data());
    }

    // Packed tensors: every monomial in one pass, then one kernel call.
    if (!packed_.empty()) {
        work.resize(static_cast<std::size_t>(packed_.cols()));
        double* m = work.data();
        if (g2_packed_)
            for (std::size_t a = 0; a < un; ++a)
                for (std::size_t b = a; b < un; ++b) *m++ = xd[a] * xd[b];
        if (g3_packed_)
            for (std::size_t a = 0; a < un; ++a)
                for (std::size_t b = a; b < un; ++b) {
                    const double xab = xd[a] * xd[b];
                    for (std::size_t c = b; c < un; ++c) *m++ = xab * xd[c];
                }
        gemv(packed_, work.data(), f.data());
    }
    // Triplet tensors, each summed apart and then added (the order the
    // triplet path has always used, so unpacked systems keep their exact
    // rounding).
    if (has_quadratic() && !g2_packed_) {
        work.assign(un, 0.0);
        for (const auto& e : g2_.entries())
            work[static_cast<std::size_t>(e.row)] += e.value * xd[e.i] * xd[e.j];
        la::simd::axpy(1.0, work.data(), f.data(), un);
    }
    if (has_cubic() && !g3_packed_) {
        work.assign(un, 0.0);
        for (const auto& e : g3_.entries())
            work[static_cast<std::size_t>(e.row)] += e.value * xd[e.i] * xd[e.j] * xd[e.k];
        la::simd::axpy(1.0, work.data(), f.data(), un);
    }

    bool any_input = false;
    for (int i = 0; i < inputs(); ++i) {
        const double ui = u[static_cast<std::size_t>(i)];
        if (ui == 0.0) continue;
        any_input = true;
        if (!has_bilinear()) continue;
        const auto ii = static_cast<std::size_t>(i);
        if (is_sparse()) {
            for (int r = 0; r < n; ++r)
                f[static_cast<std::size_t>(r)] += ui * row_dot(d1_csr_[ii], r, xd);
        } else {
            work.assign(un, 0.0);
            gemv(d1_dense_[ii], xd, work.data());
            la::simd::axpy(ui, work.data(), f.data(), un);
        }
    }
    if (any_input) {
        if (is_sparse()) {
            const auto& rp = b_csr_->row_ptr();
            const auto& ci = b_csr_->col_idx();
            const auto& vals = b_csr_->values();
            for (int r = 0; r < n; ++r)
                for (int k = rp[static_cast<std::size_t>(r)];
                     k < rp[static_cast<std::size_t>(r) + 1]; ++k)
                    f[static_cast<std::size_t>(r)] +=
                        vals[static_cast<std::size_t>(k)] *
                        u[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
        } else {
            const la::Matrix& bm = *b_dense_;
            for (int i = 0; i < inputs(); ++i) {
                const double ui = u[static_cast<std::size_t>(i)];
                if (ui == 0.0) continue;
                for (int r = 0; r < n; ++r) f[static_cast<std::size_t>(r)] += bm(r, i) * ui;
            }
        }
    }
}

la::Matrix Qldae::jacobian(const la::Vec& x, const la::Vec& u) const {
    ATMOR_REQUIRE(static_cast<int>(x.size()) == order(), "Qldae::jacobian: state size mismatch");
    ATMOR_REQUIRE(static_cast<int>(u.size()) == inputs(), "Qldae::jacobian: input size mismatch");
    la::Matrix jac = g1();
    if (has_quadratic()) jac += g2_.jacobian(x);
    if (has_cubic()) jac += g3_.jacobian(x);
    if (has_bilinear()) {
        for (int i = 0; i < inputs(); ++i) {
            const double ui = u[static_cast<std::size_t>(i)];
            if (ui != 0.0) {
                la::Matrix d = d1(i);
                d *= ui;
                jac += d;
            }
        }
    }
    return jac;
}

sparse::CooBuilder Qldae::jacobian_coo(const la::Vec& x, const la::Vec& u, double scale) const {
    ATMOR_REQUIRE(static_cast<int>(x.size()) == order(),
                  "Qldae::jacobian_coo: state size mismatch");
    ATMOR_REQUIRE(static_cast<int>(u.size()) == inputs(),
                  "Qldae::jacobian_coo: input size mismatch");
    const int n = order();
    sparse::CooBuilder coo(n, n);
    auto stamp_csr = [&](const sparse::CsrMatrix& m, double alpha) {
        const auto& rp = m.row_ptr();
        const auto& ci = m.col_idx();
        const auto& vals = m.values();
        for (int r = 0; r < m.rows(); ++r)
            for (int k = rp[static_cast<std::size_t>(r)];
                 k < rp[static_cast<std::size_t>(r) + 1]; ++k)
                coo.add(r, ci[static_cast<std::size_t>(k)],
                        alpha * vals[static_cast<std::size_t>(k)]);
    };
    auto stamp_dense = [&](const la::Matrix& m, double alpha) {
        for (int r = 0; r < m.rows(); ++r)
            for (int col = 0; col < m.cols(); ++col)
                if (m(r, col) != 0.0) coo.add(r, col, alpha * m(r, col));
    };
    if (is_sparse())
        stamp_csr(*g1_csr_, scale);
    else
        stamp_dense(*g1_dense_, scale);
    if (has_quadratic()) {
        for (const auto& e : g2_.entries()) {
            coo.add(e.row, e.i, scale * e.value * x[static_cast<std::size_t>(e.j)]);
            coo.add(e.row, e.j, scale * e.value * x[static_cast<std::size_t>(e.i)]);
        }
    }
    if (has_cubic()) {
        for (const auto& e : g3_.entries()) {
            const double xi = x[static_cast<std::size_t>(e.i)];
            const double xj = x[static_cast<std::size_t>(e.j)];
            const double xk = x[static_cast<std::size_t>(e.k)];
            coo.add(e.row, e.i, scale * e.value * xj * xk);
            coo.add(e.row, e.j, scale * e.value * xi * xk);
            coo.add(e.row, e.k, scale * e.value * xi * xj);
        }
    }
    if (has_bilinear()) {
        for (int i = 0; i < inputs(); ++i) {
            const double ui = u[static_cast<std::size_t>(i)];
            if (ui == 0.0) continue;
            if (is_sparse())
                stamp_csr(d1_csr_[static_cast<std::size_t>(i)], scale * ui);
            else
                stamp_dense(d1(i), scale * ui);
        }
    }
    return coo;
}

la::Matrix state_selector(int n, int state_index) {
    ATMOR_REQUIRE(state_index >= 0 && state_index < n, "state_selector: index out of range");
    la::Matrix c(1, n);
    c(0, state_index) = 1.0;
    return c;
}

}  // namespace atmor::volterra
