// Transient simulation of QLDAE systems (full models and ROMs alike).
//
// The quadratised circuits carry e^{40 v} diode laws in their G2 rows, which
// makes the dynamics stiff; the default integrator is therefore an implicit
// trapezoidal rule with a modified Newton corrector (Jacobian frozen until
// convergence degrades -- factor once, backsolve thousands of times). RK4 is
// provided for non-stiff cases and cross-checks. Every method takes
// ceil(t_end / dt) fixed steps. Solve statistics feed the paper's Table 1
// "ODE solve" timing comparison.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "la/matrix.hpp"
#include "la/solver_backend.hpp"
#include "volterra/qldae.hpp"

namespace atmor::ode {

/// Input signal u(t) (length = system inputs).
using InputFn = std::function<la::Vec(double)>;

enum class Method { rk4, trapezoidal, backward_euler };

struct TransientOptions {
    double t_end = 1.0;
    double dt = 1e-3;                ///< fixed step
    Method method = Method::trapezoidal;
    int record_stride = 1;           ///< record every k-th step
    double newton_tol = 1e-10;
    int newton_max_iter = 25;
    /// Refactor the Newton Jacobian at every implicit step (standard
    /// SPICE-style Newton; the O(n^3)-per-step regime the paper's Table 1
    /// timings live in). Default reuses the factor until convergence
    /// degrades (modified Newton).
    bool refactor_every_step = false;
    /// Linear solver for the implicit Newton systems (I - theta*h*J) dx = r.
    /// nullptr selects the default: sparse LU for sparse-first systems,
    /// dense LU otherwise (la::make_default_backend). The Jacobian factors
    /// once per refactor and replays through the backend cache across Newton
    /// iterations and steps.
    std::shared_ptr<la::SolverBackend> backend;
};

struct TransientResult {
    std::vector<double> t;           ///< recorded times
    std::vector<la::Vec> y;          ///< recorded outputs (C x)
    la::Vec x_final;                 ///< state at t_end
    double solve_seconds = 0.0;      ///< wall time of the integration loop
    long steps = 0;
    long newton_iterations = 0;
    long factorizations = 0;

    /// Output sample (output_index) at record r. A record or output index
    /// outside the trace is a util::PreconditionError.
    [[nodiscard]] double output(int r, int output_index = 0) const;
};

/// Simulate the QLDAE from x(0) = x0 (zero if empty).
TransientResult simulate(const volterra::Qldae& sys, const InputFn& input,
                         const TransientOptions& opt, const la::Vec& x0 = {});

/// Reusable warm start for the implicit batch runner: the shared Newton
/// Jacobian factorisation plus the backend it came from. make_warm_start
/// stamps it once; every subsequent simulate_batch replay of the same
/// (system, step size, method) skips the stamp entirely -- the serving hot
/// loop (rom::ServeEngine) pays the factorisation exactly once per model.
/// Empty (null factorization) for the explicit methods.
struct WarmStart {
    std::shared_ptr<la::SolverBackend> backend;
    std::shared_ptr<const la::Factorization> factorization;
};

/// Stamp the implicit-method warm start at linearisation point (x0, u0)
/// (both default to zero). The handle is immutable and safe to share across
/// concurrent batches.
WarmStart make_warm_start(const volterra::Qldae& sys, const TransientOptions& opt,
                          const la::Vec& u0 = {}, const la::Vec& x0 = {});

/// Batched scenario runner: simulate many input waveforms of the SAME system
/// in parallel on the global thread pool. For the implicit methods, one
/// Newton Jacobian is stamped at (x0, inputs[0](0)) and its factorisation is
/// shared read-only across all scenarios/threads as their warm start; a
/// scenario whose Newton degrades refactors privately (modified-Newton
/// recovery), so outlier waveforms never perturb the others. Results land in
/// input order, and each trace is identical to the corresponding serial
/// simulate() call with the same warm start. An empty batch is a typed
/// PreconditionError (a silent empty result hides a caller bug).
std::vector<TransientResult> simulate_batch(const volterra::Qldae& sys,
                                            const std::vector<InputFn>& inputs,
                                            const TransientOptions& opt,
                                            const la::Vec& x0 = {});

/// Replay form: same contract, but the warm start is supplied by the caller
/// (from make_warm_start) instead of stamped per call. opt.dt/t_end/method
/// must match the options the warm start was stamped with for the factors to
/// be a useful starting Jacobian; correctness never depends on it (a scenario
/// whose Newton degrades refactors privately).
std::vector<TransientResult> simulate_batch(const volterra::Qldae& sys,
                                            const std::vector<InputFn>& inputs,
                                            const TransientOptions& opt, const WarmStart& warm,
                                            const la::Vec& x0 = {});

/// Peak relative error between two recorded output traces, normalised by the
/// peak magnitude of the reference (the error measure of the paper's figures).
double peak_relative_error(const TransientResult& reference, const TransientResult& test,
                           int output_index = 0);

/// Pointwise relative-error trace |y_ref - y_test| / max|y_ref|. The traces
/// must record the same times, value for value, and output_index must name
/// an output of every record of both; otherwise util::PreconditionError.
std::vector<double> relative_error_trace(const TransientResult& reference,
                                         const TransientResult& test, int output_index = 0);

}  // namespace atmor::ode
