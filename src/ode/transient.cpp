#include "ode/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "la/operator.hpp"
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

/// Fixed steps covering [0, t_end] at step size at most dt. Every entry
/// point calls it before any work: a non-finite or non-positive t_end or dt,
/// or a count past the range of long, is the caller's error.
long step_count(const TransientOptions& opt) {
    ATMOR_REQUIRE(std::isfinite(opt.t_end) && opt.t_end > 0.0 && std::isfinite(opt.dt) &&
                      opt.dt > 0.0,
                  "transient: need finite positive t_end and dt (t_end = "
                      << opt.t_end << ", dt = " << opt.dt << ")");
    const double steps = std::ceil(opt.t_end / opt.dt);
    ATMOR_REQUIRE(steps >= 1.0 && steps < static_cast<double>(std::numeric_limits<long>::max()),
                  "transient: t_end / dt = " << steps << " steps does not fit in a long");
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

Vec rk4_step(const Qldae& sys, const InputFn& u, double t, double h, const Vec& x) {
    const Vec k1 = sys.rhs(x, u(t));
    Vec x2 = x;
    la::axpy(0.5 * h, k1, x2);
    const Vec k2 = sys.rhs(x2, u(t + 0.5 * h));
    Vec x3 = x;
    la::axpy(0.5 * h, k2, x3);
    const Vec k3 = sys.rhs(x3, u(t + 0.5 * h));
    Vec x4 = x;
    la::axpy(h, k3, x4);
    const Vec k4 = sys.rhs(x4, u(t + h));
    Vec out = x;
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] += (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    return out;
}

TransientResult run_rk4(const Qldae& sys, const InputFn& u, const TransientOptions& opt,
                        Vec x) {
    TransientResult res;
    const long nsteps = step_count(opt);
    const double h = opt.t_end / static_cast<double>(nsteps);
    record(res, sys, 0.0, x);
    for (long s = 0; s < nsteps; ++s) {
        x = rk4_step(sys, u, h * static_cast<double>(s), h, x);
        ++res.steps;
        // Recorded on the implicit methods' grid t_s = h*s, so their traces
        // compare sample for sample.
        if ((s + 1) % opt.record_stride == 0 || s + 1 == nsteps)
            record(res, sys, h * static_cast<double>(s + 1), x);
    }
    res.x_final = std::move(x);
    return res;
}

/// Newton residual r = xn - x + c0*f0 + c1*f1 and its and xn's infinity
/// norms in one pass. Each entry takes the operations of three la::axpy
/// passes in their order (never fused), and a NaN entry makes its norm NaN,
/// as la::norm_inf does, so a NaN iterate never converges.
std::pair<double, double> newton_residual(const Vec& xn, const Vec& x, const Vec& f0,
                                          const Vec& f1, double c0, double c1, Vec& r) {
    double rnorm = 0.0;
    double xnorm = 0.0;
    for (std::size_t i = 0; i < xn.size(); ++i) {
        double ri = xn[i];
        ri += -1.0 * x[i];
        ri += c0 * f0[i];
        ri += c1 * f1[i];
        r[i] = ri;
        const double ar = std::abs(ri);
        const double ax = std::abs(xn[i]);
        rnorm = (std::isnan(ar) || ar > rnorm) ? ar : rnorm;
        xnorm = (std::isnan(ax) || ax > xnorm) ? ax : xnorm;
    }
    return {rnorm, xnorm};
}

/// The scaled Newton-system operator theta*h*J stamped at a linearisation
/// point; I - theta*h*J is then (shift*I - A) with shift = 1. Sparse systems
/// stamp the Jacobian as COO; dense systems materialise it.
std::shared_ptr<const la::LinearOperator> stamp_newton_operator(const Qldae& sys,
                                                                const Vec& x_lin,
                                                                const Vec& u_lin,
                                                                double theta_h) {
    if (sys.is_sparse()) {
        return la::make_sparse_operator(
            sparse::CsrMatrix(sys.jacobian_coo(x_lin, u_lin, theta_h)));
    }
    Matrix j = sys.jacobian(x_lin, u_lin);
    j *= theta_h;
    return la::make_dense_operator(std::move(j));
}

/// Implicit one-step methods (trapezoidal / backward Euler) with a modified
/// Newton corrector. theta = 1/2 gives trapezoidal, theta = 1 backward Euler.
/// @param warm optional pre-built factorisation of I - theta*h*J shared
///        read-only with other scenarios of a batch; this run refactors
///        privately the moment convergence degrades.
TransientResult run_implicit(const Qldae& sys, const InputFn& u, const TransientOptions& opt,
                             Vec x, double theta,
                             std::shared_ptr<la::SolverBackend> backend = nullptr,
                             std::shared_ptr<const la::Factorization> warm = nullptr) {
    TransientResult res;
    const long nsteps = step_count(opt);
    const double h = opt.t_end / static_cast<double>(nsteps);
    record(res, sys, 0.0, x);

    // Newton matrix I - theta*h*J == (shift*I - A) with shift = 1 and
    // A = theta*h*J: exactly the shifted form the solver backend caches.
    // The factorisation is reused across Newton iterations and steps until
    // `refactor` is called.
    if (!backend) backend = opt.backend ? opt.backend : la::make_default_backend(sys.g1_op());
    std::shared_ptr<const la::Factorization> jac_fact = std::move(warm);
    auto refactor = [&](const Vec& x_lin, const Vec& u_lin) {
        const auto a_op = stamp_newton_operator(sys, x_lin, u_lin, theta * h);
        // Uncached factorisation: the operator is freshly stamped, so its id
        // would never be looked up again and would only pollute the cache.
        jac_fact = backend->factorize(*a_op, la::Complex(1.0, 0.0));
        ++res.factorizations;
    };

    // One time grid t_s = h*s. The drive is sampled once per step, at t_{s+1},
    // and the converged f(x_{s+1}, u(t_{s+1})) is the next step's f0: a step
    // costs one rhs per Newton iteration. Iterate, rhs values, residual,
    // update and rhs scratch live across steps and Newton iterations, so a
    // step allocates only the drive sample u(t) returns (and its record).
    const std::size_t n = x.size();
    Vec xn(n), f0(n), f1(n), r(n), dx(n), work;
    Vec u1 = u(0.0);
    sys.rhs_into(x, u1, f0, work);
    const double c0 = -h * (1.0 - theta);
    const double c1 = -h * theta;
    for (long s = 0; s < nsteps; ++s) {
        const double t1 = h * static_cast<double>(s + 1);
        u1 = u(t1);

        // Predictor: forward Euler.
        xn = x;
        la::axpy(h, f0, xn);

        if (!jac_fact || opt.refactor_every_step) refactor(x, u1);
        bool converged = false;
        bool finite = true;
        for (int attempt = 0; attempt < 2 && !converged && finite; ++attempt) {
            for (int it = 0; it < opt.newton_max_iter; ++it) {
                sys.rhs_into(xn, u1, f1, work);
                ++res.newton_iterations;
                const auto [rnorm, xnorm] = newton_residual(xn, x, f0, f1, c0, c1, r);
                // inf <= tol * (1 + inf) holds: only a finite iterate converges.
                finite = std::isfinite(rnorm) && std::isfinite(xnorm);
                if (!finite) break;
                if (rnorm <= opt.newton_tol * (1.0 + xnorm)) {
                    converged = true;
                    break;
                }
                jac_fact->solve_into(r, dx);
                la::axpy(-1.0, dx, xn);
            }
            // Modified-Newton recovery: refresh the Jacobian at the current
            // iterate and retry once before giving up. f1 is always the rhs
            // at the final iterate, so the reuse below survives a retry.
            if (!converged && finite) refactor(xn, u1);
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
    ATMOR_REQUIRE(opt.record_stride >= 1, "simulate: record_stride >= 1");
    Vec x = x0.empty() ? Vec(static_cast<std::size_t>(sys.order()), 0.0) : x0;
    ATMOR_REQUIRE(static_cast<int>(x.size()) == sys.order(), "simulate: x0 size mismatch");
    ATMOR_REQUIRE(static_cast<int>(input(0.0).size()) == sys.inputs(),
                  "simulate: input arity mismatch");

    util::Timer timer;
    TransientResult res;
    switch (opt.method) {
        case Method::rk4:
            res = run_rk4(sys, input, opt, std::move(x));
            break;
        case Method::trapezoidal:
            res = run_implicit(sys, input, opt, std::move(x), 0.5);
            break;
        case Method::backward_euler:
            res = run_implicit(sys, input, opt, std::move(x), 1.0);
            break;
    }
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
    const bool implicit =
        opt.method == Method::trapezoidal || opt.method == Method::backward_euler;
    if (!implicit) return warm;  // explicit methods have nothing to warm
    const double theta = opt.method == Method::backward_euler ? 1.0 : 0.5;
    const double h = opt.t_end / static_cast<double>(nsteps);
    const auto a_op = stamp_newton_operator(sys, x, u, theta * h);
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
    ATMOR_REQUIRE(opt.record_stride >= 1, "simulate_batch: record_stride >= 1");
    const Vec x = x0.empty() ? Vec(static_cast<std::size_t>(sys.order()), 0.0) : x0;
    ATMOR_REQUIRE(static_cast<int>(x.size()) == sys.order(), "simulate_batch: x0 size mismatch");
    for (const InputFn& u : inputs)
        ATMOR_REQUIRE(static_cast<int>(u(0.0).size()) == sys.inputs(),
                      "simulate_batch: input arity mismatch");

    const double theta = opt.method == Method::backward_euler ? 1.0 : 0.5;
    // The warm handle is immutable, so the threads solve against it
    // concurrently without locking; scenarios whose waveforms drive the state
    // far from the linearisation point refactor privately inside
    // run_implicit.
    std::shared_ptr<la::SolverBackend> backend =
        warm.backend ? warm.backend
                     : (opt.backend ? opt.backend : la::make_default_backend(sys.g1_op()));

    return util::ThreadPool::global().parallel_map<TransientResult>(
        0, static_cast<long>(inputs.size()), [&](long p) {
            const InputFn& u = inputs[static_cast<std::size_t>(p)];
            util::Timer timer;
            TransientResult res;
            switch (opt.method) {
                case Method::rk4:
                    res = run_rk4(sys, u, opt, x);
                    break;
                case Method::trapezoidal:
                case Method::backward_euler:
                    res = run_implicit(sys, u, opt, x, theta, backend, warm.factorization);
                    break;
            }
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
