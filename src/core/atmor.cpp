#include "core/atmor.hpp"

#include <algorithm>

#include "core/projection.hpp"
#include "la/orth.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace atmor::core {

namespace {

/// Moment counts for expansion point p: the per-point override when given,
/// else the uniform k1/k2/k3.
rom::PointOrder order_for(const AtMorOptions& opt, std::size_t p) {
    if (!opt.per_point_orders.empty()) return opt.per_point_orders[p];
    return rom::PointOrder{opt.k1, opt.k2, opt.k3};
}

}  // namespace

MorResult reduce_associated(const volterra::AssociatedTransform& at, const AtMorOptions& opt) {
    ATMOR_REQUIRE(!opt.expansion_points.empty(),
                  "reduce_associated: need at least one expansion point");
    ATMOR_REQUIRE(opt.per_point_orders.empty() ||
                      opt.per_point_orders.size() == opt.expansion_points.size(),
                  "reduce_associated: per_point_orders must be empty or have one entry per "
                  "expansion point ("
                      << opt.per_point_orders.size() << " orders for "
                      << opt.expansion_points.size() << " points)");
    for (std::size_t p = 0; p < opt.expansion_points.size(); ++p) {
        const rom::PointOrder po = order_for(opt, p);
        ATMOR_REQUIRE(po.k1 >= 1, "reduce_associated: need k1 >= 1 at every expansion point");
        ATMOR_REQUIRE(po.k2 >= 0 && po.k3 >= 0, "reduce_associated: negative moment count");
    }
    const volterra::Qldae& sys = at.system();

    // Guard against (near-)singular expansion points. Exactly-lifted
    // quadratic systems (e.g. e^{40v} diodes) have a rank-deficient G1 whose
    // zero eigenvalues make the customary sigma0 = 0 expansion ill-posed --
    // use a nonzero sigma0 for such systems (see circuits/exp_system.hpp).
    // The sweep needs the dense Schur factors; A2/A3 moment chains build them
    // anyway, but a k1-only reduction of a large sparse system must not pay
    // an O(n^3) factorisation here, so it defers to the solver backend's
    // singularity detection at (sigma0 I - G1) factor time.
    bool needs_kron_solvers = false;
    bool needs_kron_sum3 = false;
    for (std::size_t p = 0; p < opt.expansion_points.size(); ++p) {
        const rom::PointOrder po = order_for(opt, p);
        needs_kron_solvers = needs_kron_solvers || po.k2 > 0 || po.k3 > 0;
        needs_kron_sum3 = needs_kron_sum3 || po.k3 > 0;
    }
    if (needs_kron_solvers || sys.order() <= kEigenGuardMaxOrder) {
        const la::ZVec eigs = at.schur_g1()->eigenvalues();
        double scale = 1.0;
        for (const auto& ev : eigs) scale = std::max(scale, std::abs(ev));
        for (const la::Complex s0 : opt.expansion_points) {
            for (const auto& ev : eigs) {
                ATMOR_REQUIRE(std::abs(s0 - ev) > 1e-10 * scale,
                              "reduce_associated: expansion point "
                                  << s0 << " coincides with an eigenvalue of G1 (" << ev
                                  << "); pick a shifted expansion point");
                // Kronecker-sum resolvents are singular at eigenvalue pair sums.
                if (needs_kron_solvers) {
                    for (const auto& ev2 : eigs) {
                        ATMOR_REQUIRE(std::abs(s0 - ev - ev2) > 1e-12 * scale,
                                      "reduce_associated: expansion point "
                                          << s0 << " hits an eigenvalue pair sum of G1 (+) G1 ("
                                          << ev + ev2 << "); pick a shifted expansion point");
                    }
                }
            }
            // The A3(H3) chains solve with (+)^3 G1 and G1 (+) Gt2, which are
            // also singular at eigenvalue triple sums. This check is O(n^3),
            // beside the O(n^4) solves it protects.
            if (!needs_kron_sum3) continue;
            const std::size_t n = eigs.size();
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = i; j < n; ++j)
                    for (std::size_t k = j; k < n; ++k) {
                        const la::Complex sum = eigs[i] + eigs[j] + eigs[k];
                        ATMOR_REQUIRE(std::abs(s0 - sum) > 1e-12 * scale,
                                      "reduce_associated: expansion point "
                                          << s0 << " hits an eigenvalue triple sum of (+)^3 G1 ("
                                          << sum << "); pick a shifted expansion point");
                    }
        }
    } else {
        // Large sparse k1-only path: no eigenvalue sweep, but each expansion
        // point's factorisation is probed for near-singularity (this also
        // warms the backend cache the moment chains will replay). The probes
        // ARE the per-point factor work, so they fan out across the pool.
        const long npts = static_cast<long>(opt.expansion_points.size());
        const std::vector<double> ratios = util::ThreadPool::global().parallel_map<double>(
            0, npts, [&](long p) {
                return la::shift_pivot_ratio(
                    *at.backend(), sys.g1_op(),
                    opt.expansion_points[static_cast<std::size_t>(p)]);
            });
        for (long p = 0; p < npts; ++p) {
            ATMOR_REQUIRE(ratios[static_cast<std::size_t>(p)] > 1e-12,
                          "reduce_associated: expansion point "
                              << opt.expansion_points[static_cast<std::size_t>(p)]
                              << " is numerically too close to the spectrum of G1 "
                              "(pivot ratio " << ratios[static_cast<std::size_t>(p)]
                              << "); pick a shifted expansion point");
        }
    }
    util::Timer timer;

    la::BasisBuilder basis(sys.order(), opt.deflation_tol);
    int raw = 0;
    // Markov parameters (s = infinity expansion): plain powers G1^j b. The
    // iterates don't depend on the basis, so each input's chain is staged as
    // one panel and flushed through the blocked orthogonalisation.
    if (opt.markov_moments > 0) {
        for (int input = 0; input < sys.inputs(); ++input) {
            la::Vec v = sys.b_col(input);
            for (int j = 0; j < opt.markov_moments; ++j) {
                basis.stage(v);
                ++raw;
                v = sys.apply_g1(v);
            }
            basis.flush();
        }
    }
    // Moment generation fans out across expansion points (Remark 3: the
    // points are independent). Each worker runs the full per-point chain --
    // its own factorisation plus blocked moment solves -- against the shared
    // thread-safe backend. The basis is then assembled SERIALLY in point
    // order below, so the reduced model is identical to a serial run.
    struct PointMoments {
        std::vector<la::ZMatrix> h1, a2h2, a3h3;
    };
    const long npoints = static_cast<long>(opt.expansion_points.size());
    const std::vector<PointMoments> moments =
        util::ThreadPool::global().parallel_map<PointMoments>(0, npoints, [&](long p) {
            const la::Complex sigma0 = opt.expansion_points[static_cast<std::size_t>(p)];
            const rom::PointOrder po = order_for(opt, static_cast<std::size_t>(p));
            PointMoments mm;
            mm.h1 = at.h1_moments(po.k1, sigma0);
            if (po.k2 > 0) mm.a2h2 = at.a2h2_moments(po.k2, sigma0);
            if (po.k3 > 0) mm.a3h3 = at.a3h3_moments(po.k3, sigma0);
            return mm;
        });

    // Each moment matrix is one panel: its columns are staged together and
    // flushed through the blocked CGS2 + Householder orthogonalisation in
    // enumeration order, whatever order the parallel moment solves finished
    // in (the reduced model stays thread-count independent).
    for (const PointMoments& mm : moments) {
        for (const auto& mom : mm.h1) {
            for (int col = 0; col < mom.cols(); ++col) {
                basis.stage_complex(mom.col(col));
                ++raw;
            }
            basis.flush();
        }
        for (const auto& mom : mm.a2h2) {
            // Input pairs (i, j) and (j, i) share a column; add i <= j only.
            const int m = sys.inputs();
            for (int i = 0; i < m; ++i)
                for (int j = i; j < m; ++j) {
                    basis.stage_complex(mom.col(i * m + j));
                    ++raw;
                }
            basis.flush();
        }
        for (const auto& mom : mm.a3h3) {
            const int m = sys.inputs();
            for (int i = 0; i < m; ++i)
                for (int j = i; j < m; ++j)
                    for (int k = j; k < m; ++k) {
                        basis.stage_complex(mom.col((i * m + j) * m + k));
                        ++raw;
                    }
            basis.flush();
        }
    }
    ATMOR_CHECK(basis.size() >= 1, "reduce_associated: basis collapsed to zero vectors");

    const la::Matrix v = basis.matrix();
    MorResult result{galerkin_reduce(sys, v), v, 0.0, raw, v.cols(), {}};
    result.build_seconds = timer.seconds();
    // Provenance k1/k2/k3 are the per-point maxima when orders vary; the
    // exact per-point record rides in point_orders.
    rom::PointOrder kmax{0, 0, 0};
    for (std::size_t p = 0; p < opt.expansion_points.size(); ++p) {
        const rom::PointOrder po = order_for(opt, p);
        kmax.k1 = std::max(kmax.k1, po.k1);
        kmax.k2 = std::max(kmax.k2, po.k2);
        kmax.k3 = std::max(kmax.k3, po.k3);
    }
    result.provenance.method = needs_kron_solvers ? "atmor" : "linear";
    result.provenance.expansion_points = opt.expansion_points;
    result.provenance.k1 = kmax.k1;
    result.provenance.k2 = kmax.k2;
    result.provenance.k3 = kmax.k3;
    result.provenance.point_orders = opt.per_point_orders;
    result.provenance.full_order = sys.order();
    result.provenance.basis_hash = rom::basis_hash(v);
    return result;
}

MorResult reduce_associated(const volterra::Qldae& sys, const AtMorOptions& opt) {
    util::Timer timer;
    const volterra::AssociatedTransform at(sys, opt.backend);
    MorResult result = reduce_associated(at, opt);
    result.build_seconds = timer.seconds();  // include factorisation time
    return result;
}

MorResult reduce_linear(const volterra::Qldae& sys, int k1,
                        const std::vector<la::Complex>& expansion_points, double deflation_tol) {
    AtMorOptions opt;
    opt.k1 = k1;
    opt.k2 = 0;
    opt.k3 = 0;
    opt.expansion_points = expansion_points;
    opt.deflation_tol = deflation_tol;
    return reduce_associated(sys, opt);
}

}  // namespace atmor::core
