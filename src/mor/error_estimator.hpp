// A-posteriori error estimation for reduced transfer functions.
//
// For a Galerkin ROM (Ghat = V^T G V, Bhat = V^T B, Chat = C V) the reduced
// linear response xhat(s) = (s I - Ghat1)^{-1} Bhat leaves the FULL-order
// residual
//
//     R(s) = B - (s I - G1) V xhat(s)                       (n x m, matvecs only)
//
// and the exact output error of H1 satisfies
//
//     C (sI - G1)^{-1} B - Chat (sI - Ghat1)^{-1} Bhat = C (sI - G1)^{-1} R(s),
//
// so one cached resolvent application per grid frequency turns the residual
// into the true linear output error. The estimate is that corrected error,
//
//     eta(s) = ||C (sI-G1)^{-1} R(s)||_F / ||C (sI-G1)^{-1} B||_F,
//
// the exact relative output-H1 error. It costs one full-order factorisation
// per DISTINCT grid frequency, built through the shared SolverBackend cache,
// so a greedy loop re-estimating the same band every iteration pays the
// factorisations once and backsolves ever after.
//
// Band sweeps fan out across grid points on the work-stealing ThreadPool and
// fold max/rms in strictly increasing index order, so estimates are
// bit-reproducible under any thread count.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "la/matrix.hpp"
#include "la/solver_backend.hpp"
#include "rom/reduced_model.hpp"
#include "volterra/qldae.hpp"

namespace atmor::mor {

/// Band-error summary over a frequency grid.
struct BandError {
    double max_rel = 0.0;  ///< max over the grid of the relative estimate (H-inf flavour)
    double rms_rel = 0.0;  ///< root-mean-square over the grid (H2 flavour)
    int worst_index = 0;   ///< grid index attaining max_rel (greedy insertion target)
    /// Component estimates at worst_index: which of the linear / second-
    /// order kernels is the bottleneck decides whether the greedy loop
    /// enriches k1 or k2 there.
    double worst_h1 = 0.0;
    double worst_h2 = 0.0;
};

class ErrorEstimator {
public:
    /// @param full the full-order system the ROMs approximate.
    /// @param backend resolvent solver; the caller should pass the backend
    ///        shared with moment generation so the greedy loop's estimator
    ///        replays the same factorisation cache. nullptr selects
    ///        la::make_resolvent_backend.
    /// @param second_order also estimate the DIAGONAL second-order kernel
    ///        error ||C H2(s,s) - Chat H2hat(s,s)|| via the harmonic-probing
    ///        formula (first-order resolvents at s and 2s only, all cached);
    ///        without it an estimate-driven trim would silently discard every
    ///        A2(H2) basis direction, since they are invisible to H1.
    /// A system whose input matrix B is zero is a util::InternalError.
    explicit ErrorEstimator(volterra::Qldae full,
                            std::shared_ptr<la::SolverBackend> backend = nullptr,
                            bool second_order = false);

    /// Relative output-H1 error estimate at a single frequency.
    [[nodiscard]] double h1_error(const rom::ReducedModel& m, la::Complex s) const;

    /// Relative diagonal second-order output error estimate at (s, s), both
    /// kernels evaluated through cached resolvents (exact). Zero for systems
    /// without quadratic/bilinear terms.
    [[nodiscard]] double h2_error(const rom::ReducedModel& m, la::Complex s) const;

    /// The per-frequency estimate band_error folds: h1_error, combined with
    /// h2_error (max of the two) when second-order estimation is on.
    [[nodiscard]] double estimate(const rom::ReducedModel& m, la::Complex s) const;

    /// Estimate over a grid (parallel across points, deterministic fold).
    [[nodiscard]] BandError band_error(const rom::ReducedModel& m,
                                       const std::vector<la::Complex>& grid) const;

    /// TRUE relative output-H1 error at s, by direct full-vs-reduced
    /// evaluation (full-order solve; for tests and benches -- the quantity
    /// the estimates must track).
    [[nodiscard]] double true_h1_error(const rom::ReducedModel& m, la::Complex s) const;

    [[nodiscard]] const std::shared_ptr<la::SolverBackend>& backend() const { return backend_; }

    /// jw grid: `points` frequencies uniform over [omega_min, omega_max].
    static std::vector<la::Complex> jomega_grid(double omega_min, double omega_max, int points);

private:
    /// Full-order residual block R(s) = B - (sI - G1) V xhat(s).
    [[nodiscard]] la::ZMatrix residual(const rom::ReducedModel& m, la::Complex s) const;

    /// ||C (sI - G1)^{-1} B||_F at s, computed once per distinct frequency
    /// and memoised (the reference scale of the corrected estimate).
    [[nodiscard]] double reference_norm(la::Complex s) const;

    volterra::Qldae full_;
    std::shared_ptr<la::SolverBackend> backend_;
    bool second_order_;

    /// Dense solver for the q x q reduced responses. Keyed on (ROM operator,
    /// shift), so one greedy iteration's band sweep factors each shift once;
    /// FIFO-bounded, so superseded ROMs age out as the loop refines.
    mutable la::DenseLuBackend rom_backend_{64};

    mutable std::mutex ref_mutex_;
    mutable std::map<std::pair<double, double>, double> ref_norms_;
    /// Memoised full-order diagonal second-order outputs C H2(s,s): model-
    /// independent, so every greedy iteration after the first reads them
    /// back instead of re-solving (tiny l x m^2 blocks, grid-bounded count).
    mutable std::map<std::pair<double, double>, la::ZMatrix> full_y2_;
};

}  // namespace atmor::mor
