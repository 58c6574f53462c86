#include "pmor/family_builder.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <utility>

#include "mor/error_estimator.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace atmor::pmor {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Smolyak level of TrainingSampling::sparse_grid: every axis is covered to
/// the 5-point nested 1-D hierarchy while the total level budget across axes
/// stays 2.
constexpr int kSparseGridLevel = 2;

void validate(const FamilyDesign& design, const FamilyBuildOptions& opt) {
    ATMOR_REQUIRE(!design.family_id.empty(), "FamilyBuilder: empty family_id");
    ATMOR_REQUIRE(!design.space.empty(),
                  "FamilyBuilder: zero-axis ParamSpace (family '"
                      << design.family_id
                      << "'): a parametric family needs at least one parameter axis");
    ATMOR_REQUIRE(static_cast<bool>(design.build_system),
                  "FamilyBuilder: design has no build_system callback");
    ATMOR_REQUIRE(static_cast<bool>(design.system_key),
                  "FamilyBuilder: design has no system_key callback");
    ATMOR_REQUIRE(opt.tol > 0.0, "FamilyBuilder: need tol > 0");
    ATMOR_REQUIRE(opt.adaptive.tol <= opt.tol,
                  "FamilyBuilder: member tolerance " << opt.adaptive.tol
                                                     << " looser than family tol " << opt.tol);
    ATMOR_REQUIRE(opt.max_members >= 1, "FamilyBuilder: need max_members >= 1");
    if (opt.sampling == TrainingSampling::factorial_grid)
        ATMOR_REQUIRE(opt.training_grid_per_dim >= 2,
                      "FamilyBuilder: need training_grid_per_dim >= 2");
}

}  // namespace

std::string member_key(const FamilyDesign& design, const mor::AdaptiveOptions& adaptive,
                       const Point& p) {
    return design.family_id + ":" + design.system_key(p) + "|" + adaptive.key();
}

FamilyBuilder::FamilyBuilder(FamilyDesign design, FamilyBuildOptions opt)
    : design_(std::move(design)), opt_(std::move(opt)) {
    validate(design_, opt_);
}

FamilyBuildResult FamilyBuilder::build() {
    util::Timer timer;
    FamilyBuildResult result;
    FamilyBuildStats& stats = result.stats;

    const std::vector<Point> candidates =
        opt_.sampling == TrainingSampling::sparse_grid
            ? design_.space.sparse_grid(kSparseGridLevel)
            : design_.space.grid(opt_.training_grid_per_dim);
    stats.candidates = static_cast<int>(candidates.size());
    const std::vector<la::Complex> band = mor::band_grid(opt_.adaptive);
    const bool second_order =
        opt_.adaptive.point_order.k2 > 0 || opt_.adaptive.point_order.k3 > 0;

    // One full-order system + estimator per training point, materialized
    // LAZILY and bounded by max_resident_estimators: each estimator's
    // backend keeps its candidate's band factorisations resident (member
    // k's sweep against candidate c re-solves nothing member k-1 factored),
    // but a full-order factorisation cache per training point cannot be
    // held for arbitrarily fine grids, so the oldest column is recycled
    // past the bound and simply re-factors on its next touch.
    std::vector<std::unique_ptr<mor::ErrorEstimator>> estimators(candidates.size());
    std::vector<int> candidate_order(candidates.size(), -1);
    std::deque<std::size_t> resident;
    const auto estimator_for = [&](std::size_t c) -> mor::ErrorEstimator& {
        if (!estimators[c]) {
            volterra::Qldae sys = design_.build_system(candidates[c]);
            candidate_order[c] = sys.order();
            // Sized so the candidate's whole band (plus doubled shifts for
            // the second-order estimate) stays cached across every member
            // evaluated against it.
            auto backend = la::make_resolvent_backend(
                sys.g1_op(), 2 * static_cast<std::size_t>(opt_.adaptive.band_grid) + 8);
            estimators[c] = std::make_unique<mor::ErrorEstimator>(
                std::move(sys), std::move(backend), second_order);
            resident.push_back(c);
            if (opt_.max_resident_estimators > 0 &&
                resident.size() > static_cast<std::size_t>(opt_.max_resident_estimators)) {
                estimators[resident.front()].reset();
                resident.pop_front();
            }
        }
        return *estimators[c];
    };

    const auto build_member = [&](const Point& p) {
        mor::AdaptiveResult r = mor::reduce_adaptive(design_.build_system(p), opt_.adaptive);
        r.model.provenance.source = member_key(design_, opt_.adaptive, p);
        ++stats.members_built;
        return rom::FamilyMember{p, 0.0, 0.0, std::move(r.model)};
    };

    const auto cross_error = [&](const rom::FamilyMember& m, std::size_t c) {
        mor::ErrorEstimator& estimator = estimator_for(c);
        // The member basis only applies to same-order systems; a structural
        // axis (different full order) can never be covered cross-point.
        if (m.model.v.rows() != candidate_order[c]) return kInf;
        ++stats.cross_estimates;
        return estimator.band_error(m.model, band).max_rel;
    };

    rom::Family family;
    family.family_id = design_.family_id;
    family.space = design_.space;
    family.tol = opt_.tol;
    // Informational only (serving reads the cells' explicit coords); a
    // sparse-grid family has no single per-axis resolution, recorded as 0.
    family.training_grid_per_dim =
        opt_.sampling == TrainingSampling::factorial_grid ? opt_.training_grid_per_dim : 0;

    // Per-candidate best member errors, updated incrementally: a new member
    // only adds its own column of estimates.
    std::vector<double> best_err(candidates.size(), kInf);
    std::vector<int> best_member(candidates.size(), -1);

    const auto add_member = [&](const Point& p) {
        family.members.push_back(build_member(p));
        const int m = static_cast<int>(family.members.size()) - 1;
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            const double e = cross_error(family.members.back(), c);
            if (e < best_err[c]) {
                best_err[c] = e;
                best_member[c] = m;
            }
        }
    };

    const auto is_member_point = [&](const Point& p) {
        for (const rom::FamilyMember& m : family.members)
            if (m.coords == p) return true;
        return false;
    };

    const auto worst_uncovered = [&]() {
        // Deterministic argmax (lowest index wins ties); member points are
        // excluded -- rebuilding one cannot improve its own error, so a
        // member point above tol means ITS adaptive reduction missed tol,
        // not that the family needs another sample there.
        std::size_t worst = candidates.size();
        double worst_err = opt_.tol;
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            if (best_err[c] > worst_err && !is_member_point(candidates[c])) {
                worst_err = best_err[c];
                worst = c;
            }
        }
        return worst;
    };

    // -- Seed member at the box center. -------------------------------------
    add_member(design_.space.center());
    const auto max_err = [&] { return *std::max_element(best_err.begin(), best_err.end()); };
    result.error_history.push_back(max_err());

    // -- Greedy insertion at the worst-certified training point. ------------
    while (max_err() > opt_.tol &&
           static_cast<int>(family.members.size()) < opt_.max_members) {
        const std::size_t worst = worst_uncovered();
        if (worst == candidates.size()) break;  // every uncovered point is a member already
        add_member(candidates[worst]);
        result.error_history.push_back(max_err());
    }

    // -- Coverage table + per-member certificates. --------------------------
    family.max_training_error = max_err();
    family.converged = family.max_training_error <= opt_.tol;
    family.cells.reserve(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        rom::CoverageCell cell;
        cell.coords = candidates[c];
        cell.best = best_member[c];
        cell.best_error = best_err[c];
        family.cells.push_back(std::move(cell));
        if (best_member[c] >= 0 && best_err[c] <= opt_.tol) {
            rom::FamilyMember& m = family.members[static_cast<std::size_t>(best_member[c])];
            m.certified_error = std::max(m.certified_error, best_err[c]);
            m.coverage_radius =
                std::max(m.coverage_radius, design_.space.distance(m.coords, candidates[c]));
        }
    }

    result.family = std::move(family);
    stats.build_seconds = timer.seconds();
    return result;
}

}  // namespace atmor::pmor
