#include "la/solver_backend.hpp"

#include <functional>

#include "la/lu.hpp"
#include "la/schur.hpp"
#include "la/vector_ops.hpp"
#include "sparse/splu.hpp"
#include "util/check.hpp"

namespace atmor::la {

namespace {

/// Split an n x k complex block into its real/imaginary parts and recombine.
ZMatrix join_complex(const Matrix& re, const Matrix& im) {
    ZMatrix out(re.rows(), re.cols());
    for (int i = 0; i < re.rows(); ++i) {
        const double* r = re.row_ptr(i);
        const double* m = im.row_ptr(i);
        Complex* o = out.row_ptr(i);
        for (int j = 0; j < re.cols(); ++j) o[j] = Complex(r[j], m[j]);
    }
    return out;
}

/// Real-arithmetic factorisation of (s*I - A), s real. Complex right-hand
/// sides split into two real solves (4x fewer real multiplies than a complex
/// factorisation would spend).
template <class RealFactor>
class RealShiftFactorization final : public Factorization {
public:
    explicit RealShiftFactorization(RealFactor f) : f_(std::move(f)) {}
    [[nodiscard]] int dim() const override { return f_.dim(); }
    void solve_into(const Vec& b, Vec& x) const override { f_.solve_into(b, x); }
    [[nodiscard]] ZVec solve(const ZVec& b) const override {
        const Vec re = f_.solve(real_part(b));
        const Vec im = f_.solve(imag_part(b));
        ZVec out(b.size());
        for (std::size_t i = 0; i < b.size(); ++i) out[i] = Complex(re[i], im[i]);
        return out;
    }
    /// Blocked: one factor-pass per real/imaginary block.
    [[nodiscard]] Matrix solve(const Matrix& b) const override { return f_.solve(b); }
    [[nodiscard]] ZMatrix solve(const ZMatrix& b) const override {
        return join_complex(f_.solve(real_part(b)), f_.solve(imag_part(b)));
    }
    [[nodiscard]] double pivot_ratio() const override { return f_.pivot_ratio(); }

private:
    RealFactor f_;
};

template <class ComplexFactor>
class ComplexShiftFactorization final : public Factorization {
public:
    explicit ComplexShiftFactorization(ComplexFactor f) : f_(std::move(f)) {}
    [[nodiscard]] int dim() const override { return f_.dim(); }
    [[nodiscard]] ZVec solve(const ZVec& b) const override { return f_.solve(b); }
    void solve_into(const Vec&, Vec&) const override {
        ATMOR_CHECK(false, "Factorization: real solve requires a real shift");
    }
    [[nodiscard]] ZMatrix solve(const ZMatrix& b) const override { return f_.solve(b); }
    [[nodiscard]] Matrix solve(const Matrix&) const override {
        ATMOR_CHECK(false, "Factorization: real solve requires a real shift");
    }
    [[nodiscard]] double pivot_ratio() const override { return f_.pivot_ratio(); }

private:
    ComplexFactor f_;
};

class SchurFactorization final : public Factorization {
public:
    SchurFactorization(std::shared_ptr<const ComplexSchur> schur, Complex shift)
        : schur_(std::move(schur)), shift_(shift) {}
    [[nodiscard]] int dim() const override { return schur_->dim(); }
    [[nodiscard]] ZVec solve(const ZVec& b) const override {
        return schur_->solve_shifted(shift_, b);
    }
    void solve_into(const Vec& b, Vec& x) const override {
        ATMOR_CHECK(shift_.imag() == 0.0, "SchurFactorization: real solve needs real shift");
        ATMOR_REQUIRE(static_cast<int>(b.size()) == dim(), "SchurFactorization: size mismatch");
        ATMOR_REQUIRE(&b != &x, "SchurFactorization: b and x must be distinct vectors");
        const ZVec z = schur_->solve_shifted(shift_, complexify(b));
        x.resize(z.size());
        for (std::size_t i = 0; i < z.size(); ++i) x[i] = z[i].real();
    }
    // Block solves use the base column-wise default: the triangular backsolve
    // is already O(n^2) per column with no index traversal to amortise.
    [[nodiscard]] double pivot_ratio() const override {
        // Distance of the shift to the spectrum, normalised by the farthest
        // eigenvalue: the triangular backsolve's effective pivot ratio.
        const ZVec eigs = schur_->eigenvalues();
        double lo = 0.0, hi = 0.0;
        for (std::size_t i = 0; i < eigs.size(); ++i) {
            const double d = std::abs(shift_ - eigs[i]);
            if (i == 0) {
                lo = hi = d;
            } else {
                lo = std::min(lo, d);
                hi = std::max(hi, d);
            }
        }
        return hi > 0.0 ? lo / hi : 0.0;
    }

private:
    std::shared_ptr<const ComplexSchur> schur_;
    Complex shift_;
};

/// Dense materialisation of (s*I - A).
Matrix dense_shifted(const LinearOperator& a, double s) {
    Matrix m = a.to_dense();
    for (int i = 0; i < m.rows(); ++i)
        for (int j = 0; j < m.cols(); ++j) m(i, j) = -m(i, j);
    for (int i = 0; i < m.rows(); ++i) m(i, i) += s;
    return m;
}

ZMatrix dense_shifted(const LinearOperator& a, Complex s) {
    ZMatrix z = complexify(a.to_dense());
    for (int i = 0; i < z.rows(); ++i)
        for (int j = 0; j < z.cols(); ++j) z(i, j) = -z(i, j);
    for (int i = 0; i < z.rows(); ++i) z(i, i) += s;
    return z;
}

}  // namespace

Vec Factorization::solve(const Vec& b) const {
    Vec x;
    solve_into(b, x);
    return x;
}

ZMatrix Factorization::solve(const ZMatrix& b) const {
    ZMatrix x(b.rows(), b.cols());
    for (int j = 0; j < b.cols(); ++j) x.set_col(j, solve(b.col(j)));
    return x;
}

Matrix Factorization::solve(const Matrix& b) const {
    Matrix x(b.rows(), b.cols());
    for (int j = 0; j < b.cols(); ++j) x.set_col(j, solve(b.col(j)));
    return x;
}

std::size_t SolverBackend::KeyHash::operator()(const Key& k) const {
    std::size_t h = std::hash<std::uint64_t>()(k.id);
    h ^= std::hash<double>()(k.re) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= std::hash<double>()(k.im) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

SolverBackend::SolverBackend(std::size_t max_cached) : max_cached_(max_cached) {
    ATMOR_REQUIRE(max_cached >= 1, "SolverBackend: cache must hold at least one entry");
}

std::shared_ptr<const Factorization> SolverBackend::factorization(const LinearOperator& a,
                                                                  Complex shift) {
    ATMOR_REQUIRE(a.square(), "SolverBackend: operator must be square");
    const Key key{a.id(), shift.real(), shift.imag()};
    {
        std::shared_lock<std::shared_mutex> lock(cache_mutex_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            cache_hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    // Factor OUTSIDE the lock so distinct shifts factor concurrently. Two
    // threads racing on the same brand-new key both pay the factor cost; the
    // insert below hands the loser the winner's (identical-input) handle.
    auto f = factor(a, shift);
    factorizations_.fetch_add(1, std::memory_order_relaxed);
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    note_factor_dim(f->dim());
    std::unique_lock<std::shared_mutex> lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    if (cache_.size() >= max_cached_) {
        cache_.erase(insertion_order_.front());
        insertion_order_.pop_front();
    }
    cache_.emplace(key, f);
    insertion_order_.push_back(key);
    return f;
}

std::shared_ptr<const Factorization> SolverBackend::factorize(const LinearOperator& a,
                                                              Complex shift) {
    ATMOR_REQUIRE(a.square(), "SolverBackend: operator must be square");
    factorizations_.fetch_add(1, std::memory_order_relaxed);
    auto f = factor(a, shift);
    note_factor_dim(f->dim());
    return f;
}

void SolverBackend::note_factor_dim(int dim) {
    int cur = max_factor_dim_.load(std::memory_order_relaxed);
    while (dim > cur &&
           !max_factor_dim_.compare_exchange_weak(cur, dim, std::memory_order_relaxed)) {
    }
}

ZVec SolverBackend::solve_shifted(const LinearOperator& a, Complex shift, const ZVec& b) {
    solves_.fetch_add(1, std::memory_order_relaxed);
    return factorization(a, shift)->solve(b);
}

Vec SolverBackend::solve_shifted(const LinearOperator& a, double shift, const Vec& b) {
    solves_.fetch_add(1, std::memory_order_relaxed);
    return factorization(a, Complex(shift, 0.0))->solve(b);
}

ZMatrix SolverBackend::solve_shifted(const LinearOperator& a, Complex shift, const ZMatrix& b) {
    solves_.fetch_add(b.cols(), std::memory_order_relaxed);
    return factorization(a, shift)->solve(b);
}

Matrix SolverBackend::solve_shifted(const LinearOperator& a, double shift, const Matrix& b) {
    solves_.fetch_add(b.cols(), std::memory_order_relaxed);
    return factorization(a, Complex(shift, 0.0))->solve(b);
}

Vec SolverBackend::solve(const LinearOperator& a, const Vec& b) {
    // A x = b  <=>  (0*I - A) x = -b.
    Vec x = solve_shifted(a, 0.0, b);
    scale(-1.0, x);
    return x;
}

SolverStats SolverBackend::stats() const {
    SolverStats s;
    s.factorizations = factorizations_.load(std::memory_order_relaxed);
    s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    s.solves = solves_.load(std::memory_order_relaxed);
    s.max_factor_dim = max_factor_dim_.load(std::memory_order_relaxed);
    return s;
}

void SolverBackend::clear_cache() {
    std::unique_lock<std::shared_mutex> lock(cache_mutex_);
    cache_.clear();
    insertion_order_.clear();
}

std::size_t SolverBackend::cached_count() const {
    std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    return cache_.size();
}

std::shared_ptr<const Factorization> DenseLuBackend::factor(const LinearOperator& a,
                                                            Complex shift) {
    if (shift.imag() == 0.0) {
        return std::make_shared<RealShiftFactorization<Lu>>(Lu(dense_shifted(a, shift.real())));
    }
    return std::make_shared<ComplexShiftFactorization<ZLu>>(ZLu(dense_shifted(a, shift)));
}

std::shared_ptr<const Factorization> SparseLuBackend::factor(const LinearOperator& a,
                                                             Complex shift) {
    const sparse::CsrMatrix* csr = a.csr();
    sparse::CsrMatrix converted;
    if (csr == nullptr) {
        converted = sparse::CsrMatrix::from_dense(a.to_dense());
        csr = &converted;
    }
    if (shift.imag() == 0.0) {
        return std::make_shared<RealShiftFactorization<sparse::SpLu>>(
            sparse::splu_shifted(*csr, shift.real()));
    }
    return std::make_shared<ComplexShiftFactorization<sparse::ZSpLu>>(
        sparse::splu_shifted(*csr, shift));
}

std::shared_ptr<const ComplexSchur> SchurBackend::schur_for(const LinearOperator& a) {
    {
        std::lock_guard<std::mutex> lock(schur_mutex_);
        auto it = schur_.find(a.id());
        if (it != schur_.end()) return it->second;
    }
    // Decompose outside the lock (dense O(n^3)); first insertion wins.
    auto s = std::make_shared<const ComplexSchur>(a.to_dense());
    std::lock_guard<std::mutex> lock(schur_mutex_);
    auto it = schur_.find(a.id());
    if (it != schur_.end()) return it->second;
    schur_count_.fetch_add(1, std::memory_order_relaxed);
    if (schur_.size() >= max_cached()) {
        schur_.erase(schur_order_.front());
        schur_order_.pop_front();
    }
    schur_.emplace(a.id(), s);
    schur_order_.push_back(a.id());
    return s;
}

std::shared_ptr<const Factorization> SchurBackend::factor(const LinearOperator& a,
                                                          Complex shift) {
    return std::make_shared<SchurFactorization>(schur_for(a), shift);
}

double shift_pivot_ratio(SolverBackend& backend, const LinearOperator& a, Complex shift) {
    try {
        return backend.factorization(a, shift)->pivot_ratio();
    } catch (const util::InternalError&) {
        return 0.0;  // exact breakdown: same caller error as near-singular
    }
}

std::shared_ptr<SolverBackend> make_default_backend(const LinearOperator& a,
                                                    std::size_t max_cached) {
    if (a.is_sparse()) return std::make_shared<SparseLuBackend>(max_cached);
    return std::make_shared<DenseLuBackend>(max_cached);
}

std::shared_ptr<SolverBackend> make_resolvent_backend(const LinearOperator& a,
                                                      std::size_t max_cached) {
    if (a.is_sparse()) return std::make_shared<SparseLuBackend>(max_cached);
    return std::make_shared<SchurBackend>(max_cached);
}

}  // namespace atmor::la
