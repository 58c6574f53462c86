// Adaptive multi-point expansion with a-posteriori error control.
//
// The paper's Remark 3 observes that multipoint expansion of the associated
// transfer functions is "particularly straightforward" -- but it leaves WHERE
// to expand, and at what order, to the user. This subsystem closes that loop:
// a greedy refinement drives the expansion-point set from the a-posteriori
// ErrorEstimator until a user tolerance over a target frequency band is met.
//
//   1. Reduce with the current point set (shared AssociatedTransform, shared
//      cached SolverBackend -- already-seen points replay their factors).
//   2. Estimate the relative output-H1 error over the band grid.
//   3. Below tol -> optionally TRIM per-point orders (k3, then k2, then k1)
//      while the estimate stays below tol, and stop.
//   4. Otherwise insert a new expansion point at the worst-error frequency
//      (or enrich the nearest existing point's k1 when one already sits
//      there), and repeat until the point budget is spent.
//
// Every stage fans out on the work-stealing ThreadPool (moment chains across
// points inside reduce_associated, estimates across grid frequencies) and
// folds results in deterministic index order, so an adaptive run is
// bit-reproducible under any ATMOR_NUM_THREADS.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/atmor.hpp"
#include "la/matrix.hpp"
#include "la/solver_backend.hpp"
#include "mor/error_estimator.hpp"
#include "volterra/qldae.hpp"

namespace atmor::mor {

struct AdaptiveOptions {
    // -- Accuracy target. ---------------------------------------------------
    /// Target band [omega_min, omega_max] rad/s; errors are estimated on a
    /// `band_grid`-point uniform jw grid over it.
    double omega_min = 0.25;
    double omega_max = 4.0;
    int band_grid = 25;
    /// Stop when the estimated max relative output-H1 error over the band
    /// falls below tol.
    double tol = 1e-3;

    // -- Refinement budget. -------------------------------------------------
    /// Expansion-point budget (insertions stop here; enrichment may still
    /// continue up to 2 * max_points greedy iterations in total).
    int max_points = 6;

    // -- Per-point reduction orders. ----------------------------------------
    /// Moment counts every point starts from (trimming lowers them per
    /// point afterwards; enrichment raises k1).
    rom::PointOrder point_order{4, 2, 0};
    /// Trim per-point orders after the tolerance is met (k3 -> k2 -> k1,
    /// greedily, re-estimating each trial).
    bool trim_orders = true;

    /// Shared resolvent backend (moment chains + estimator). nullptr builds
    /// one sized for band_grid + max_points cached factorisations.
    std::shared_ptr<la::SolverBackend> backend;

    /// Stable accuracy-tagged key fragment for rom::Registry: two runs that
    /// differ in tolerance (or band, budget, orders) get DISTINCT keys, so
    /// artifacts at different accuracy coexist. Compose as
    /// `circuit.key() + "|" + opt.key()`.
    [[nodiscard]] std::string key() const;
};

struct AdaptiveResult {
    /// The reduced model; provenance records the chosen points, per-point
    /// orders, tol, band and the certified estimated error.
    core::MorResult model;
    /// Estimated max relative band error after each greedy iteration
    /// (error_history.front() = initial point set, .back() = final).
    std::vector<double> error_history;
    int refinements = 0;  ///< greedy iterations performed (insert + enrich)
    int trimmed = 0;      ///< per-point order decrements accepted
    bool converged = false;  ///< estimated error <= tol within the budget
};

/// The adaptive reduction (the core::reduce_adaptive front-end forwards
/// here; both spellings are the same function).
AdaptiveResult reduce_adaptive(const volterra::Qldae& sys, const AdaptiveOptions& opt);

/// The band grid the options describe (shared with tests/benches).
std::vector<la::Complex> band_grid(const AdaptiveOptions& opt);

/// Fixed comparison grid: `count` points at 1 + j * omega (the real part
/// reduce_adaptive inserts at) with omega uniform over the band -- the
/// hand-picked baseline the adaptive loop is benchmarked against.
std::vector<la::Complex> uniform_points(const AdaptiveOptions& opt, int count);

}  // namespace atmor::mor
