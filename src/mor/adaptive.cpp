#include "mor/adaptive.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "util/check.hpp"
#include "util/key_format.hpp"
#include "util/timer.hpp"
#include "volterra/associated.hpp"

namespace atmor::mor {

using la::Complex;

namespace {

/// The first expansion point. Later insertions land at
/// kInsertReal + j * (worst-error grid frequency).
constexpr Complex kInitialPoint{1.0, 0.0};
/// Real part (damping) of inserted points, keeping them clear of the
/// imaginary-axis spectrum of exactly-lifted systems.
constexpr double kInsertReal = 1.0;
/// Basis deflation threshold of every re-reduction (core::AtMorOptions).
constexpr double kDeflationTol = 1e-8;

}  // namespace

std::string AdaptiveOptions::key() const {
    using util::key_num;
    // FAITHFUL: every option that can change the resulting model appears
    // here. The backend pointer is necessarily excluded (a runtime object
    // has no stable spelling); callers supplying a non-default backend that
    // changes solve semantics must tag their composed key themselves.
    std::string s = "adaptive(tol=" + key_num(tol) + ",band=[" + key_num(omega_min) + "," +
                    key_num(omega_max) + "]x" + key_num(band_grid) + ",k=(" +
                    key_num(point_order.k1) + "," + key_num(point_order.k2) + "," +
                    key_num(point_order.k3) + "),max_pts=" + key_num(max_points) + ",trim=" +
                    (trim_orders ? "1" : "0") + ")";
    return s;
}

std::vector<Complex> band_grid(const AdaptiveOptions& opt) {
    return ErrorEstimator::jomega_grid(opt.omega_min, opt.omega_max, opt.band_grid);
}

std::vector<Complex> uniform_points(const AdaptiveOptions& opt, int count) {
    ATMOR_REQUIRE(count >= 1, "uniform_points: need at least one point");
    std::vector<Complex> pts;
    pts.reserve(static_cast<std::size_t>(count));
    if (count == 1) {
        pts.emplace_back(kInsertReal, 0.5 * (opt.omega_min + opt.omega_max));
        return pts;
    }
    const double step = (opt.omega_max - opt.omega_min) / static_cast<double>(count - 1);
    for (int p = 0; p < count; ++p) pts.emplace_back(kInsertReal, opt.omega_min + step * p);
    return pts;
}

namespace {

void validate(const AdaptiveOptions& opt) {
    ATMOR_REQUIRE(opt.tol > 0.0, "reduce_adaptive: need tol > 0");
    ATMOR_REQUIRE(opt.max_points >= 1, "reduce_adaptive: need max_points >= 1");
    ATMOR_REQUIRE(opt.band_grid >= 2, "reduce_adaptive: need band_grid >= 2");
    ATMOR_REQUIRE(opt.omega_max > opt.omega_min && opt.omega_min >= 0.0,
                  "reduce_adaptive: need 0 <= omega_min < omega_max");
    ATMOR_REQUIRE(opt.point_order.k1 >= 1 && opt.point_order.k2 >= 0 && opt.point_order.k3 >= 0,
                  "reduce_adaptive: invalid starting point_order");
}

}  // namespace

AdaptiveResult reduce_adaptive(const volterra::Qldae& sys, const AdaptiveOptions& opt) {
    validate(opt);
    util::Timer timer;
    // The default backend is sized so a full run's factorisations stay
    // cached end to end: every grid shift (plus its double for the
    // second-order estimate) and every expansion point.
    std::shared_ptr<la::SolverBackend> backend =
        opt.backend ? opt.backend
                    : la::make_resolvent_backend(
                          sys.g1_op(), 2 * static_cast<std::size_t>(opt.band_grid) +
                                           static_cast<std::size_t>(opt.max_points) + 16);
    // One transform (shared Schur/Kronecker factors) and one estimator for
    // the whole run: every re-reduction and re-estimate replays the cache.
    const volterra::AssociatedTransform at(sys, backend);
    // Second-order estimation rides along whenever the reduction carries
    // A2(H2)/A3(H3) directions, so trimming answers to the nonlinear error
    // too (an H1-only estimate would trim every k2/k3 to zero).
    const bool second_order = opt.point_order.k2 > 0 || opt.point_order.k3 > 0;
    const ErrorEstimator estimator(sys, backend, second_order);
    const std::vector<Complex> grid = band_grid(opt);
    const double grid_spacing =
        (opt.omega_max - opt.omega_min) / static_cast<double>(opt.band_grid - 1);
    const int max_ref = 2 * opt.max_points;

    std::vector<Complex> points{kInitialPoint};
    std::vector<rom::PointOrder> orders{opt.point_order};

    const auto reduce_with = [&](const std::vector<Complex>& pts,
                                 const std::vector<rom::PointOrder>& ords) {
        core::AtMorOptions mor;
        mor.expansion_points = pts;
        mor.per_point_orders = ords;
        mor.deflation_tol = kDeflationTol;
        return core::reduce_associated(at, mor);
    };

    std::vector<double> history;
    int refinements = 0;
    int trimmed = 0;
    core::MorResult model = reduce_with(points, orders);
    BandError band = estimator.band_error(model, grid);
    history.push_back(band.max_rel);

    // -- Greedy refinement: insert where the estimate is worst. -------------
    while (band.max_rel > opt.tol && refinements < max_ref) {
        const double omega_worst = grid[static_cast<std::size_t>(band.worst_index)].imag();
        double nearest_dist = std::numeric_limits<double>::infinity();
        std::size_t nearest = 0;
        for (std::size_t p = 0; p < points.size(); ++p) {
            const double d = std::abs(points[p].imag() - omega_worst);
            if (d < nearest_dist) {
                nearest_dist = d;
                nearest = p;
            }
        }
        if (nearest_dist > 0.5 * grid_spacing &&
            static_cast<int>(points.size()) < opt.max_points) {
            points.emplace_back(kInsertReal, omega_worst);
            orders.push_back(opt.point_order);
        } else if (band.worst_h2 > band.worst_h1 && second_order) {
            // A point already covers that frequency (or the budget is
            // spent) and the second-order kernel is the bottleneck there:
            // enrich the nearest point's A2(H2) order.
            orders[nearest].k2 += 1;
        } else {
            orders[nearest].k1 += 1;
        }
        ++refinements;
        model = reduce_with(points, orders);
        band = estimator.band_error(model, grid);
        history.push_back(band.max_rel);
    }
    const bool converged = band.max_rel <= opt.tol;

    // -- Per-point order trimming: cheapest certified model. ----------------
    if (converged && opt.trim_orders) {
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t p = 0; p < points.size(); ++p) {
                for (int field = 0; field < 3; ++field) {  // k3, then k2, then k1
                    while (true) {
                        rom::PointOrder trial = orders[p];
                        int& k = field == 0 ? trial.k3 : field == 1 ? trial.k2 : trial.k1;
                        const int k_floor = field == 2 ? 1 : 0;
                        if (k <= k_floor) break;
                        --k;
                        std::vector<rom::PointOrder> trial_orders = orders;
                        trial_orders[p] = trial;
                        core::MorResult trimmed_model = reduce_with(points, trial_orders);
                        const BandError trimmed_band = estimator.band_error(trimmed_model, grid);
                        if (trimmed_band.max_rel > opt.tol) break;
                        orders = std::move(trial_orders);
                        model = std::move(trimmed_model);
                        band = trimmed_band;
                        ++trimmed;
                        changed = true;
                    }
                }
            }
        }
        history.push_back(band.max_rel);
    }

    model.provenance.method = "adaptive";
    model.provenance.tol = opt.tol;
    model.provenance.band_min = opt.omega_min;
    model.provenance.band_max = opt.omega_max;
    model.provenance.estimated_error = band.max_rel;
    model.build_seconds = timer.seconds();  // the whole certified run
    return AdaptiveResult{std::move(model), std::move(history), refinements, trimmed, converged};
}

}  // namespace atmor::mor

namespace atmor::core {

mor::AdaptiveResult reduce_adaptive(const volterra::Qldae& sys, const mor::AdaptiveOptions& opt) {
    return mor::reduce_adaptive(sys, opt);
}

}  // namespace atmor::core
