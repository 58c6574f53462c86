// Greedy parameter-space sampling for parametric ROM families.
//
// The offline problem: cover a parameter box with as few member ROMs as
// possible so that EVERY training point has a member whose a-posteriori
// cross error (mor::ErrorEstimator of the training point's full-order
// system, evaluated on the member's reduced model) is below the family
// tolerance. The loop mirrors mor::reduce_adaptive one level up -- the same
// greedy worst-first insertion, applied to parameter points instead of
// expansion frequencies:
//
//   1. Build a member at the box center, by a per-point reduce_adaptive so
//      every member is itself certified over the frequency band.
//   2. For every training-grid point, take the best (smallest) certified
//      cross error over the current members.
//   3. While the worst training point exceeds tol and the member budget
//      remains, build a new member AT that point and update the table (only
//      the new member's column needs estimating). Member points are never
//      picked again, so every member sits at a distinct point.
//
// The result carries the full coverage table (the best member and its
// certified error per training cell), which is what makes online serving
// certificate lookups O(cells) instead of full-order solves.
//
// Cross errors between parameter points require the member basis to apply to
// the training point's full system: points whose full order differs (e.g. a
// structural axis like NLTL line length) get an infinite cross error, so the
// greedy loop automatically places at least one member per structural
// configuration. The estimator certifies the output error of pushing the
// member's reduced response through the TRAINING point's C; parameters that
// reshape the output map itself add a (usually tiny) uncertified term.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mor/adaptive.hpp"
#include "pmor/param_space.hpp"
#include "rom/family.hpp"

namespace atmor::pmor {

/// How the training candidates (= the coverage table's cells) sample the box.
enum class TrainingSampling {
    /// ParamSpace::grid(training_grid_per_dim): per_dim^d cells. The right
    /// default through ~3 axes; past that the candidate count (and the
    /// estimator sweep per member insertion) explodes exponentially.
    factorial_grid,
    /// ParamSpace::sparse_grid at level 2: the Smolyak union of nested
    /// midpoint-refinement increments, covering every axis to the 5-point
    /// 1-D hierarchy. Candidate count grows polynomially with dims, which is
    /// what lets 4-6 axis designs converge without a factorial training
    /// budget (bench_scenarios records the counts side by side).
    sparse_grid,
};

struct FamilyBuildOptions {
    /// Certified cross-error target over the training grid (and the
    /// certificate bound served online). Must be >= adaptive.tol: a member
    /// cannot certify a neighbour tighter than it certifies itself.
    double tol = 1e-3;
    /// Member budget (the parameter-space analogue of AdaptiveOptions::
    /// max_points).
    int max_members = 8;
    /// Candidate sampling scheme.
    TrainingSampling sampling = TrainingSampling::factorial_grid;
    /// Training-grid resolution per axis (factorial_grid only; validated
    /// only there).
    int training_grid_per_dim = 5;
    /// Bound on simultaneously resident per-candidate estimators. Each one
    /// holds its training point's full-order system plus a band's worth of
    /// cached factorisations, so keeping all of them alive scales peak
    /// memory with the training-grid size; past the bound the oldest
    /// candidate's estimator is dropped (FIFO) and rebuilt on next touch
    /// (identical values -- only the factorisation work repeats). 0 keeps
    /// every estimator resident.
    int max_resident_estimators = 64;
    /// Per-member reduction: reduce_adaptive over this band/tolerance at
    /// each sampled point. adaptive.tol must be set explicitly and be
    /// <= tol (validated): the cross certificates inherit the band from
    /// here, and a member that cannot certify its own point under the
    /// family tolerance can never cover a neighbour.
    mor::AdaptiveOptions adaptive;
};

struct FamilyBuildStats {
    int members_built = 0;     ///< reduce_adaptive invocations
    int candidates = 0;        ///< training-grid size
    long cross_estimates = 0;  ///< member x candidate band-error sweeps
    double build_seconds = 0.0;
};

struct FamilyBuildResult {
    rom::Family family;
    FamilyBuildStats stats;
    /// Worst uncovered training error after each member insertion
    /// (front() = initial members, back() = final).
    std::vector<double> error_history;
};

/// Stable key for the member ROM at point p; the builder writes it into the
/// member's provenance source. Pass it as rom::ParametricOptions::fallback_key
/// (with the same adaptive options) to key the serving layer's on-demand
/// builds the same way, so they share one registry entry per point across
/// query tolerances.
std::string member_key(const FamilyDesign& design, const mor::AdaptiveOptions& adaptive,
                       const Point& p);

class FamilyBuilder {
public:
    /// Validates the design (non-empty space with at least one axis, build
    /// and key callbacks present) and the options; a zero-axis ParamSpace is
    /// a typed PreconditionError here, not a silent empty family.
    FamilyBuilder(FamilyDesign design, FamilyBuildOptions opt);

    /// Run the greedy sampling to convergence or budget exhaustion.
    [[nodiscard]] FamilyBuildResult build();

private:
    FamilyDesign design_;
    FamilyBuildOptions opt_;
};

}  // namespace atmor::pmor
