#include "ode/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "la/operator.hpp"
#include "la/simd.hpp"
#include "la/solver_backend.hpp"
#include "la/vector_ops.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace atmor::ode {

using la::Matrix;
using la::Vec;
using volterra::Qldae;

namespace {

/// Newton convergence: |r|_inf <= kNewtonTol * (1 + |xn|_inf) within
/// kNewtonMaxIter iterations per attempt.
constexpr double kNewtonTol = 1e-10;
constexpr int kNewtonMaxIter = 25;

/// Fixed steps covering [0, t_end] at step size at most dt. Every entry
/// point calls it before any work: a non-finite or non-positive t_end or dt,
/// a count past the range of long, or a record stride below 1 are the
/// caller's error.
long step_count(const TransientOptions& opt) {
    ATMOR_REQUIRE(std::isfinite(opt.t_end) && opt.t_end > 0.0 && std::isfinite(opt.dt) &&
                      opt.dt > 0.0,
                  "transient: need finite positive t_end and dt (t_end = "
                      << opt.t_end << ", dt = " << opt.dt << ")");
    const double steps = std::ceil(opt.t_end / opt.dt);
    ATMOR_REQUIRE(steps >= 1.0 && steps < static_cast<double>(std::numeric_limits<long>::max()),
                  "transient: t_end / dt = " << steps << " steps does not fit in a long");
    ATMOR_REQUIRE(opt.record_stride >= 1,
                  "transient: record_stride = " << opt.record_stride << ", need >= 1");
    return std::lround(steps);
}

/// Appends the output at t. A non-finite output means the integration broke
/// down (a diverging drive): an InternalError, never a NaN trace.
void record(TransientResult& res, const Qldae& sys, double t, const Vec& x) {
    Vec y = sys.output(x);
    for (const double v : y)
        ATMOR_CHECK(std::isfinite(v), "transient: non-finite output at t = " << t);
    res.t.push_back(t);
    res.y.push_back(std::move(y));
}

/// Newton residual r = xn - x + c*f0 + c*f1 and its and xn's infinity
/// norms in one pass. Each entry takes the operations of three la::axpy
/// passes in their order (never fused), and a NaN entry makes its norm NaN,
/// as la::norm_inf does, so a NaN iterate never converges.
std::pair<double, double> newton_residual(const Vec& xn, const Vec& x, const Vec& f0,
                                          const Vec& f1, double c, Vec& r) {
    double rnorm = 0.0;
    double xnorm = 0.0;
    for (std::size_t i = 0; i < xn.size(); ++i) {
        double ri = xn[i];
        ri += -1.0 * x[i];
        ri += c * f0[i];
        ri += c * f1[i];
        r[i] = ri;
        const double ar = std::abs(ri);
        const double ax = std::abs(xn[i]);
        rnorm = (std::isnan(ar) || ar > rnorm) ? ar : rnorm;
        xnorm = (std::isnan(ax) || ax > xnorm) ? ax : xnorm;
    }
    return {rnorm, xnorm};
}

/// The scaled Newton-system operator 0.5*h*J stamped at a linearisation
/// point; I - 0.5*h*J is then (shift*I - A) with shift = 1. Sparse systems
/// stamp the Jacobian as COO; dense systems materialise it.
std::shared_ptr<const la::LinearOperator> stamp_newton_operator(const Qldae& sys,
                                                                const Vec& x_lin,
                                                                const Vec& u_lin,
                                                                double h) {
    if (sys.is_sparse()) {
        return la::make_sparse_operator(
            sparse::CsrMatrix(sys.jacobian_coo(x_lin, u_lin, 0.5 * h)));
    }
    Matrix j = sys.jacobian(x_lin, u_lin);
    j *= 0.5 * h;
    return la::make_dense_operator(std::move(j));
}

/// The trapezoidal rule with a modified Newton corrector.
/// @param warm optional pre-built factorisation of I - 0.5*h*J shared
///        read-only with other scenarios of a batch; this run refactors
///        privately the moment convergence degrades.
TransientResult run_trapezoidal(const Qldae& sys, const InputFn& u, const TransientOptions& opt,
                                Vec x, std::shared_ptr<la::SolverBackend> backend = nullptr,
                                std::shared_ptr<const la::Factorization> warm = nullptr) {
    TransientResult res;
    const long nsteps = step_count(opt);
    const double h = opt.t_end / static_cast<double>(nsteps);
    record(res, sys, 0.0, x);

    // Newton matrix I - 0.5*h*J == (shift*I - A) with shift = 1 and
    // A = 0.5*h*J: exactly the shifted form the solver backend caches.
    // The factorisation is reused across Newton iterations and steps until
    // `refactor` is called.
    //
    // On a dense system, once the factorisation has served n substitutions
    // it is replaced by its explicit negated inverse (one blocked solve of
    // the identity, n substitutions' work), and every later correction is
    // one la::simd::gemv: n independent row folds instead of two dependent
    // triangular sweeps. The switch at most doubles the solve work already
    // spent on a factorisation, so refactor_every_step runs and short runs
    // of large models keep substituting; sparse systems always do. Newton
    // accepts a step only on the true residual, so the inverse moves traces
    // by rounding only.
    if (!backend) backend = opt.backend ? opt.backend : la::make_default_backend(sys.g1_op());
    std::shared_ptr<const la::Factorization> jac_fact = std::move(warm);
    const auto n = static_cast<std::size_t>(sys.order());
    Matrix neg_inverse;  // empty while jac_fact substitutes
    std::size_t substitutions = 0;
    auto refactor = [&](const Vec& x_lin, const Vec& u_lin) {
        const auto a_op = stamp_newton_operator(sys, x_lin, u_lin, h);
        // Uncached factorisation: the operator is freshly stamped, so its id
        // would never be looked up again and would only pollute the cache.
        jac_fact = backend->factorize(*a_op, la::Complex(1.0, 0.0));
        ++res.factorizations;
        neg_inverse = Matrix();
        substitutions = 0;
    };

    // One time grid t_s = h*s. The drive is sampled once per step, at t_{s+1},
    // and the converged f(x_{s+1}, u(t_{s+1})) is the next step's f0: a step
    // costs one rhs per Newton iteration. Iterate, rhs values, residual,
    // update and rhs scratch live across steps and Newton iterations, so a
    // step allocates only the drive sample u(t) returns (and its record).
    Vec xn(n), f0(n), f1(n), r(n), dx(n), work;
    Vec u1 = u(0.0);
    sys.rhs_into(x, u1, f0, work);
    const double c = -h * 0.5;
    for (long s = 0; s < nsteps; ++s) {
        const double t1 = h * static_cast<double>(s + 1);
        u1 = u(t1);

        // Predictor: forward Euler.
        xn = x;
        la::axpy(h, f0, xn);

        if (!jac_fact || opt.refactor_every_step) refactor(x, u1);
        bool converged = false;
        bool finite = true;
        constexpr int kAttempts = 2;
        for (int attempt = 0; attempt < kAttempts && !converged && finite; ++attempt) {
            for (int it = 0; it < kNewtonMaxIter; ++it) {
                sys.rhs_into(xn, u1, f1, work);
                ++res.newton_iterations;
                const auto [rnorm, xnorm] = newton_residual(xn, x, f0, f1, c, r);
                // inf <= tol * (1 + inf) holds: only a finite iterate converges.
                finite = std::isfinite(rnorm) && std::isfinite(xnorm);
                if (!finite) break;
                if (rnorm <= kNewtonTol * (1.0 + xnorm)) {
                    converged = true;
                    break;
                }
                if (neg_inverse.empty()) {
                    jac_fact->solve_into(r, dx);
                    la::axpy(-1.0, dx, xn);
                    if (!sys.is_sparse() && ++substitutions == n) {
                        neg_inverse = jac_fact->solve(Matrix::identity(sys.order()));
                        neg_inverse *= -1.0;
                    }
                } else {
                    la::simd::gemv(n, n, neg_inverse.data(), n, r.data(), xn.data());
                }
            }
            // Modified-Newton recovery: refresh the Jacobian at the current
            // iterate and retry once before giving up; the last attempt's
            // failure throws below, so it refactors nothing. f1 is always the
            // rhs at the final iterate, so the reuse below survives a retry.
            if (!converged && finite && attempt + 1 < kAttempts) refactor(xn, u1);
        }
        ATMOR_CHECK(converged, "implicit integrator: Newton "
                                   << (finite ? "failed" : "diverged to a non-finite iterate")
                                   << " at t = " << t1);
        std::swap(x, xn);
        std::swap(f0, f1);
        ++res.steps;
        if ((s + 1) % opt.record_stride == 0 || s + 1 == nsteps) record(res, sys, t1, x);
    }
    res.x_final = std::move(x);
    return res;
}

}  // namespace

double TransientResult::output(int r, int output_index) const {
    ATMOR_REQUIRE(r >= 0 && static_cast<std::size_t>(r) < y.size(),
                  "TransientResult::output: record " << r << " of " << y.size());
    const la::Vec& sample = y[static_cast<std::size_t>(r)];
    ATMOR_REQUIRE(output_index >= 0 && static_cast<std::size_t>(output_index) < sample.size(),
                  "TransientResult::output: output " << output_index << " of " << sample.size());
    return sample[static_cast<std::size_t>(output_index)];
}

TransientResult simulate(const Qldae& sys, const InputFn& input, const TransientOptions& opt,
                         const Vec& x0) {
    (void)step_count(opt);
    Vec x = x0.empty() ? Vec(static_cast<std::size_t>(sys.order()), 0.0) : x0;
    ATMOR_REQUIRE(static_cast<int>(x.size()) == sys.order(), "simulate: x0 size mismatch");
    ATMOR_REQUIRE(static_cast<int>(input(0.0).size()) == sys.inputs(),
                  "simulate: input arity mismatch");

    util::Timer timer;
    TransientResult res = run_trapezoidal(sys, input, opt, std::move(x));
    res.solve_seconds = timer.seconds();
    return res;
}

WarmStart make_warm_start(const Qldae& sys, const TransientOptions& opt, const la::Vec& u0,
                          const la::Vec& x0) {
    const long nsteps = step_count(opt);
    const Vec x = x0.empty() ? Vec(static_cast<std::size_t>(sys.order()), 0.0) : x0;
    ATMOR_REQUIRE(static_cast<int>(x.size()) == sys.order(), "make_warm_start: x0 size mismatch");
    const Vec u = u0.empty() ? Vec(static_cast<std::size_t>(sys.inputs()), 0.0) : u0;
    ATMOR_REQUIRE(static_cast<int>(u.size()) == sys.inputs(),
                  "make_warm_start: u0 size mismatch");

    WarmStart warm;
    warm.backend = opt.backend ? opt.backend : la::make_default_backend(sys.g1_op());
    const double h = opt.t_end / static_cast<double>(nsteps);
    const auto a_op = stamp_newton_operator(sys, x, u, h);
    warm.factorization = warm.backend->factorize(*a_op, la::Complex(1.0, 0.0));
    return warm;
}

std::vector<TransientResult> simulate_batch(const Qldae& sys, const std::vector<InputFn>& inputs,
                                            const TransientOptions& opt, const la::Vec& x0) {
    ATMOR_REQUIRE(!inputs.empty(), "simulate_batch: empty waveform batch");
    // One Jacobian factorisation, stamped at the shared initial state, serves
    // every scenario as its Newton warm start (see make_warm_start).
    return simulate_batch(sys, inputs, opt, make_warm_start(sys, opt, inputs[0](0.0), x0), x0);
}

std::vector<TransientResult> simulate_batch(const Qldae& sys, const std::vector<InputFn>& inputs,
                                            const TransientOptions& opt, const WarmStart& warm,
                                            const la::Vec& x0) {
    ATMOR_REQUIRE(!inputs.empty(), "simulate_batch: empty waveform batch");
    (void)step_count(opt);
    const Vec x = x0.empty() ? Vec(static_cast<std::size_t>(sys.order()), 0.0) : x0;
    ATMOR_REQUIRE(static_cast<int>(x.size()) == sys.order(), "simulate_batch: x0 size mismatch");
    for (const InputFn& u : inputs)
        ATMOR_REQUIRE(static_cast<int>(u(0.0).size()) == sys.inputs(),
                      "simulate_batch: input arity mismatch");

    // The warm handle is immutable, so the threads solve against it
    // concurrently without locking; scenarios whose waveforms drive the state
    // far from the linearisation point refactor privately inside
    // run_trapezoidal.
    std::shared_ptr<la::SolverBackend> backend =
        warm.backend ? warm.backend
                     : (opt.backend ? opt.backend : la::make_default_backend(sys.g1_op()));

    return util::ThreadPool::global().parallel_map<TransientResult>(
        0, static_cast<long>(inputs.size()), [&](long p) {
            const InputFn& u = inputs[static_cast<std::size_t>(p)];
            util::Timer timer;
            TransientResult res = run_trapezoidal(sys, u, opt, x, backend, warm.factorization);
            res.solve_seconds = timer.seconds();
            return res;
        });
}

double peak_relative_error(const TransientResult& reference, const TransientResult& test,
                           int output_index) {
    const auto trace = relative_error_trace(reference, test, output_index);
    double peak = 0.0;
    for (double e : trace) peak = std::max(peak, e);
    return peak;
}

std::vector<double> relative_error_trace(const TransientResult& reference,
                                         const TransientResult& test, int output_index) {
    const std::size_t records = reference.t.size();
    ATMOR_REQUIRE(test.t.size() == records,
                  "relative_error_trace: traces must share the time grid ("
                      << records << " vs " << test.t.size() << " records)");
    ATMOR_REQUIRE(reference.y.size() == records && test.y.size() == records,
                  "relative_error_trace: a trace holds " << reference.y.size() << " and "
                                                         << test.y.size() << " outputs for "
                                                         << records << " times");
    ATMOR_REQUIRE(output_index >= 0, "relative_error_trace: output index " << output_index);
    const auto k = static_cast<std::size_t>(output_index);
    for (std::size_t r = 0; r < records; ++r) {
        ATMOR_REQUIRE(reference.t[r] == test.t[r],
                      "relative_error_trace: traces must share the time grid (record "
                          << r << ": t = " << reference.t[r] << " vs " << test.t[r] << ")");
        ATMOR_REQUIRE(k < reference.y[r].size() && k < test.y[r].size(),
                      "relative_error_trace: output index " << output_index << " out of range "
                                                            << "at record " << r);
    }
    double scale = 0.0;
    for (std::size_t r = 0; r < records; ++r) scale = std::max(scale, std::abs(reference.y[r][k]));
    if (scale == 0.0) scale = 1.0;
    std::vector<double> out(records);
    for (std::size_t r = 0; r < records; ++r)
        out[r] = std::abs(reference.y[r][k] - test.y[r][k]) / scale;
    return out;
}

}  // namespace atmor::ode
