#include "mor/error_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/vector_ops.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "volterra/transfer.hpp"

namespace atmor::mor {

using la::Complex;
using la::ZMatrix;
using la::ZVec;
using volterra::map_output;

namespace {

/// Diagonal second-order forcing block at s1 = s2: column (i*m + j) is
/// volterra::h2_forcing of the first-order states X (n x m).
ZMatrix diagonal_forcing(const volterra::Qldae& sys, const ZMatrix& x1) {
    const int m = sys.inputs();
    ZMatrix g(sys.order(), m * m);
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < m; ++j)
            g.set_col(i * m + j, volterra::h2_forcing(sys, x1.col(i), x1.col(j), i, j));
    return g;
}

}  // namespace

ErrorEstimator::ErrorEstimator(volterra::Qldae full, std::shared_ptr<la::SolverBackend> backend,
                               bool second_order)
    : full_(std::move(full)), backend_(std::move(backend)), second_order_(second_order) {
    if (!backend_) backend_ = la::make_resolvent_backend(full_.g1_op());
    double b_sq = 0.0;
    for (int i = 0; i < full_.inputs(); ++i)
        for (double v : full_.b_col(i)) b_sq += v * v;
    ATMOR_CHECK(b_sq > 0.0, "ErrorEstimator: zero input matrix B");
}

ZMatrix ErrorEstimator::residual(const rom::ReducedModel& m, Complex s) const {
    ATMOR_REQUIRE(m.v.rows() == full_.order(),
                  "ErrorEstimator: model basis has " << m.v.rows() << " rows, system order is "
                                                     << full_.order());
    const int n = full_.order(), q = m.order, mcols = full_.inputs();
    // Reduced response xhat(s) = (sI - Ghat1)^{-1} Bhat: a q x q dense solve.
    ZMatrix bhat(q, mcols);
    for (int i = 0; i < mcols; ++i) bhat.set_col(i, la::complexify(m.rom.b_col(i)));
    const ZMatrix xhat = rom_backend_.solve_shifted(m.rom.g1_op(), s, bhat);
    // Full-order residual R(s) = B - (sI - G1) V xhat: matvecs only.
    ZMatrix r(n, mcols);
    for (int i = 0; i < mcols; ++i) {
        const ZVec x = la::matvec_rc(m.v, xhat.col(i));
        ZVec ri = la::complexify(full_.b_col(i));
        la::axpy(-s, x, ri);
        la::axpy(Complex(1.0), full_.apply_g1(x), ri);
        r.set_col(i, ri);
    }
    return r;
}

double ErrorEstimator::reference_norm(Complex s) const {
    const auto key = std::make_pair(s.real(), s.imag());
    {
        std::lock_guard<std::mutex> lock(ref_mutex_);
        auto it = ref_norms_.find(key);
        if (it != ref_norms_.end()) return it->second;
    }
    const int n = full_.order(), mcols = full_.inputs();
    ZMatrix b(n, mcols);
    for (int i = 0; i < mcols; ++i) b.set_col(i, la::complexify(full_.b_col(i)));
    const double ref =
        la::frobenius_norm(map_output(full_.c(), backend_->solve_shifted(full_.g1_op(), s, b)));
    std::lock_guard<std::mutex> lock(ref_mutex_);
    ref_norms_.emplace(key, ref);
    return ref;
}

double ErrorEstimator::h1_error(const rom::ReducedModel& m, Complex s) const {
    const ZMatrix r = residual(m, s);
    const ZMatrix err =
        map_output(full_.c(), backend_->solve_shifted(full_.g1_op(), s, r));
    const double ref = reference_norm(s);
    const double abs_err = la::frobenius_norm(err);
    return ref > 0.0 ? abs_err / ref : abs_err;
}

double ErrorEstimator::h2_error(const rom::ReducedModel& m, Complex s) const {
    if (!full_.has_quadratic() && !full_.has_bilinear()) return 0.0;
    const int q = m.order, mcols = full_.inputs();
    // Reduced diagonal kernel: xhat2(s) = (2sI - Ghat1)^{-1} ghat(xhat1(s)).
    ZMatrix bhat(q, mcols);
    for (int i = 0; i < mcols; ++i) bhat.set_col(i, la::complexify(m.rom.b_col(i)));
    const ZMatrix xhat1 = rom_backend_.solve_shifted(m.rom.g1_op(), s, bhat);
    const ZMatrix xhat2 = rom_backend_.solve_shifted(m.rom.g1_op(), 2.0 * s,
                                                     diagonal_forcing(m.rom, xhat1));

    // The exact full-order C H2(s,s), memoised (it is model-independent),
    // against the reduced output.
    const auto key = std::make_pair(s.real(), s.imag());
    ZMatrix y2_full;
    bool have = false;
    {
        std::lock_guard<std::mutex> lock(ref_mutex_);
        auto it = full_y2_.find(key);
        if (it != full_y2_.end()) {
            y2_full = it->second;
            have = true;
        }
    }
    if (!have) {
        const int n = full_.order();
        ZMatrix b(n, mcols);
        for (int i = 0; i < mcols; ++i) b.set_col(i, la::complexify(full_.b_col(i)));
        const ZMatrix x1 = backend_->solve_shifted(full_.g1_op(), s, b);
        const ZMatrix x2 =
            backend_->solve_shifted(full_.g1_op(), 2.0 * s, diagonal_forcing(full_, x1));
        y2_full = map_output(full_.c(), x2);
        std::lock_guard<std::mutex> lock(ref_mutex_);
        full_y2_.emplace(key, y2_full);
    }
    const ZMatrix y2_rom = map_output(m.rom.c(), xhat2);
    const double ref = la::frobenius_norm(y2_full);
    const double err = la::frobenius_norm(y2_full - y2_rom);
    return ref > 0.0 ? err / ref : err;
}

double ErrorEstimator::estimate(const rom::ReducedModel& m, Complex s) const {
    double e = h1_error(m, s);
    if (second_order_) e = std::max(e, h2_error(m, s));
    return e;
}

double ErrorEstimator::true_h1_error(const rom::ReducedModel& m, Complex s) const {
    const int n = full_.order(), mcols = full_.inputs();
    ZMatrix b(n, mcols);
    for (int i = 0; i < mcols; ++i) b.set_col(i, la::complexify(full_.b_col(i)));
    const ZMatrix y_full =
        map_output(full_.c(), backend_->solve_shifted(full_.g1_op(), s, b));
    ZMatrix bhat(m.order, mcols);
    for (int i = 0; i < mcols; ++i) bhat.set_col(i, la::complexify(m.rom.b_col(i)));
    const ZMatrix y_rom = map_output(
        m.rom.c(), rom_backend_.solve_shifted(m.rom.g1_op(), s, bhat));
    const double ref = la::frobenius_norm(y_full);
    const double err = la::frobenius_norm(y_full - y_rom);
    return ref > 0.0 ? err / ref : err;
}

BandError ErrorEstimator::band_error(const rom::ReducedModel& m,
                                     const std::vector<Complex>& grid) const {
    ATMOR_REQUIRE(!grid.empty(), "ErrorEstimator::band_error: empty grid");
    // Fan out across grid points; each worker replays the shared factor
    // cache. The fold below runs serially in index order, so max/rms (and
    // the argmax the greedy loop refines at) are thread-count independent.
    const std::vector<std::pair<double, double>> errs =
        util::ThreadPool::global().parallel_map<std::pair<double, double>>(
            0, static_cast<long>(grid.size()), [&](long g) {
                const Complex s = grid[static_cast<std::size_t>(g)];
                return std::make_pair(h1_error(m, s),
                                      second_order_ ? h2_error(m, s) : 0.0);
            });
    BandError out;
    double sum_sq = 0.0;
    for (std::size_t g = 0; g < errs.size(); ++g) {
        const double e = std::max(errs[g].first, errs[g].second);
        if (e > out.max_rel) {
            out.max_rel = e;
            out.worst_index = static_cast<int>(g);
            out.worst_h1 = errs[g].first;
            out.worst_h2 = errs[g].second;
        }
        sum_sq += e * e;
    }
    out.rms_rel = std::sqrt(sum_sq / static_cast<double>(errs.size()));
    return out;
}

std::vector<Complex> ErrorEstimator::jomega_grid(double omega_min, double omega_max, int points) {
    ATMOR_REQUIRE(points >= 1, "jomega_grid: need at least one point");
    ATMOR_REQUIRE(omega_max >= omega_min, "jomega_grid: omega_max < omega_min");
    std::vector<Complex> grid;
    grid.reserve(static_cast<std::size_t>(points));
    if (points == 1) {
        grid.emplace_back(0.0, 0.5 * (omega_min + omega_max));
        return grid;
    }
    const double step = (omega_max - omega_min) / static_cast<double>(points - 1);
    for (int g = 0; g < points; ++g) grid.emplace_back(0.0, omega_min + step * g);
    return grid;
}

}  // namespace atmor::mor
