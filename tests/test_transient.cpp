#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "circuits/nltl.hpp"
#include "circuits/rf_receiver.hpp"
#include "circuits/varistor.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "la/vector_ops.hpp"
#include "ode/transient.hpp"
#include "test_alloc_counter.hpp"
#include "test_qldae_helpers.hpp"
#include "util/thread_pool.hpp"

namespace atmor {
namespace {

using la::Matrix;
using la::Vec;
using ode::Method;
using ode::TransientOptions;
using volterra::Qldae;

/// dx/dt = -a x + u, y = x: closed form for step input u = 1 from x0 = 0.
Qldae scalar_decay(double a) {
    Matrix g1{{-a}};
    return Qldae(g1, sparse::SparseTensor3(1, 1, 1), Matrix{{1.0}}, Matrix{{1.0}});
}

class IntegratorKinds : public ::testing::TestWithParam<Method> {};

TEST_P(IntegratorKinds, LinearDecayMatchesClosedForm) {
    const Qldae sys = scalar_decay(2.0);
    TransientOptions opt;
    opt.t_end = 2.0;
    opt.dt = 1e-3;
    opt.method = GetParam();
    const auto res = ode::simulate(sys, [](double) { return Vec{1.0}; }, opt);
    // x(t) = (1 - e^{-2t})/2. Backward Euler is first order, the rest are
    // second order or better at this step size.
    const double exact = (1.0 - std::exp(-4.0)) / 2.0;
    const double tol = (GetParam() == Method::backward_euler) ? 2e-4 : 1e-6;
    EXPECT_NEAR(res.y.back()[0], exact, tol);
    EXPECT_GT(res.steps, 0);
}

TEST_P(IntegratorKinds, NonFiniteOrUnrepresentableHorizonIsRejected) {
    // A horizon the fixed-step count cannot represent is the caller's fault:
    // every entry point rejects it with a typed error before any step.
    const Qldae sys = scalar_decay(1.0);
    const ode::InputFn u = [](double) { return Vec{1.0}; };
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::pair<double, double> bad[] = {
        {inf, 1e-2}, {1.0, inf}, {nan, 1e-2}, {1.0, nan},
        {1e20, 1e-3},  // 1e23 steps: past the range of long
    };
    for (const auto& [t_end, dt] : bad) {
        TransientOptions opt;
        opt.t_end = t_end;
        opt.dt = dt;
        opt.method = GetParam();
        EXPECT_THROW(ode::simulate(sys, u, opt), util::PreconditionError)
            << "t_end = " << t_end << ", dt = " << dt;
        EXPECT_THROW(ode::simulate_batch(sys, {u}, opt), util::PreconditionError)
            << "t_end = " << t_end << ", dt = " << dt;
        EXPECT_THROW(ode::make_warm_start(sys, opt), util::PreconditionError)
            << "t_end = " << t_end << ", dt = " << dt;
    }
}

TEST_P(IntegratorKinds, DivergingDriveIsAnInternalError) {
    // x' = -x + x^2 + u blows up in finite time under a 1e3 step. A breakdown
    // is an InternalError naming t, never a trace of inf/NaN samples: Newton
    // converges only on a finite iterate, and no non-finite output is
    // recorded.
    sparse::SparseTensor3 g2(1, 1, 1);
    g2.add(0, 0, 0, 1.0);
    const Qldae sys(Matrix{{-1.0}}, std::move(g2), Matrix{{1.0}}, Matrix{{1.0}});
    const ode::InputFn u = [](double) { return Vec{1e3}; };
    TransientOptions opt;
    opt.t_end = 1.0;
    opt.dt = 1e-2;
    opt.method = GetParam();
    try {
        const auto res = ode::simulate(sys, u, opt);
        FAIL() << "returned " << res.y.size() << " samples, last " << res.y.back()[0];
    } catch (const util::InternalError& e) {
        EXPECT_NE(std::string(e.what()).find("at t = "), std::string::npos) << e.what();
    }
    EXPECT_THROW(ode::simulate_batch(sys, {u, u}, opt), util::InternalError);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IntegratorKinds,
                         ::testing::Values(Method::rk4, Method::trapezoidal,
                                           Method::backward_euler));

TEST(Transient, HarmonicOscillatorEnergyAccuracy) {
    // x'' = -x as a 2-state system; RK4 must track cos(t) closely.
    Matrix g1{{0.0, 1.0}, {-1.0, 0.0}};
    Matrix b(2, 1);
    const Qldae sys(g1, sparse::SparseTensor3(2, 2, 2), b, volterra::state_selector(2, 0));
    TransientOptions opt;
    opt.t_end = 2.0 * M_PI;
    opt.dt = 1e-3;
    opt.method = Method::rk4;
    const auto res = ode::simulate(sys, [](double) { return Vec{0.0}; }, opt, Vec{1.0, 0.0});
    EXPECT_NEAR(res.y.back()[0], 1.0, 1e-8);
}

TEST(Transient, TrapezoidalHandlesStiffDecade) {
    // lambda = -1e4 with dt = 1e-3 (stiffness ratio 10): explicit RK4 would
    // explode; trapezoidal stays stable and accurate at steady state.
    const Qldae sys = scalar_decay(1e4);
    TransientOptions opt;
    opt.t_end = 0.5;
    opt.dt = 1e-3;
    opt.method = Method::trapezoidal;
    const auto res = ode::simulate(sys, [](double) { return Vec{1.0}; }, opt);
    EXPECT_NEAR(res.y.back()[0], 1e-4, 1e-8);
    EXPECT_GT(res.newton_iterations, 0);
    EXPECT_GE(res.factorizations, 1);
}

TEST(Transient, ImplicitMatchesRk4OnNonlinearSystem) {
    util::Rng rng(2800);
    test::QldaeOptions qopt;
    qopt.n = 8;
    qopt.nl_scale = 0.3;
    const Qldae sys = test::random_qldae(qopt, rng);
    auto input = [](double t) { return Vec{0.3 * std::sin(2.0 * t)}; };
    TransientOptions fine;
    fine.t_end = 3.0;
    fine.dt = 2e-4;
    fine.method = Method::rk4;
    const auto ref = ode::simulate(sys, input, fine);

    TransientOptions trap;
    trap.t_end = 3.0;
    trap.dt = 2e-4;
    trap.method = Method::trapezoidal;
    const auto test_run = ode::simulate(sys, input, trap);
    EXPECT_LT(ode::peak_relative_error(ref, test_run), 1e-6);
}

TEST(Transient, RecordStrideDownsamples) {
    const Qldae sys = scalar_decay(1.0);
    TransientOptions opt;
    opt.t_end = 1.0;
    opt.dt = 1e-2;
    opt.record_stride = 10;
    opt.method = Method::rk4;
    const auto res = ode::simulate(sys, [](double) { return Vec{1.0}; }, opt);
    EXPECT_LE(res.t.size(), 12u);
}

TEST(Transient, OutputIndicesOutsideTheTraceAreRejected) {
    const Qldae sys = scalar_decay(1.0);
    TransientOptions opt;
    opt.t_end = 1.0;
    opt.dt = 1e-1;
    const auto res = ode::simulate(sys, [](double) { return Vec{1.0}; }, opt);
    const int records = static_cast<int>(res.y.size());
    ASSERT_GT(records, 1);
    EXPECT_EQ(res.output(records - 1), res.y.back()[0]);
    EXPECT_EQ(res.output(0, 0), res.y.front()[0]);
    for (const int r : {-1, records, std::numeric_limits<int>::max()})
        EXPECT_THROW((void)res.output(r), util::PreconditionError) << "record " << r;
    for (const int k : {-1, 1, std::numeric_limits<int>::min()})
        EXPECT_THROW((void)res.output(0, k), util::PreconditionError) << "output " << k;
}

TEST(Transient, InputArityValidated) {
    const Qldae sys = scalar_decay(1.0);
    TransientOptions opt;
    opt.t_end = 1.0;
    opt.dt = 1e-2;
    EXPECT_THROW(ode::simulate(sys, [](double) { return Vec{1.0, 2.0}; }, opt),
                 util::PreconditionError);
}

TEST(Transient, RelativeErrorNeedsOneGridAndAnOutputOfEveryRecord) {
    const Qldae sys = scalar_decay(1.0);
    TransientOptions opt;
    opt.t_end = 1.0;
    opt.dt = 1e-2;
    const auto a = ode::simulate(sys, [](double) { return Vec{1.0}; }, opt);
    ASSERT_EQ(a.y.front().size(), 1u);
    EXPECT_NO_THROW(ode::relative_error_trace(a, a, 0));

    // An index outside [0, outputs) on either trace.
    for (const int bad : {-1, 1, std::numeric_limits<int>::min()}) {
        EXPECT_THROW(ode::relative_error_trace(a, a, bad), util::PreconditionError) << bad;
        EXPECT_THROW(ode::peak_relative_error(a, a, bad), util::PreconditionError) << bad;
    }
    ode::TransientResult two = a;
    for (Vec& y : two.y) y.push_back(2.0 * y[0]);
    EXPECT_NO_THROW(ode::peak_relative_error(two, two, 1));
    EXPECT_THROW(ode::peak_relative_error(two, a, 1), util::PreconditionError);
    EXPECT_THROW(ode::peak_relative_error(a, two, 1), util::PreconditionError);
    ode::TransientResult ragged = two;
    ragged.y[ragged.y.size() / 2].pop_back();
    EXPECT_THROW(ode::peak_relative_error(two, ragged, 1), util::PreconditionError);
    EXPECT_EQ(ode::peak_relative_error(two, ragged, 0), 0.0);

    // Fewer outputs than times.
    ode::TransientResult short_y = a;
    short_y.y.pop_back();
    EXPECT_THROW(ode::peak_relative_error(a, short_y), util::PreconditionError);
    EXPECT_THROW(ode::peak_relative_error(short_y, a), util::PreconditionError);

    // Any differing time, not only a differing count.
    ode::TransientResult shifted = a;
    shifted.t[shifted.t.size() / 2] = std::nextafter(shifted.t[shifted.t.size() / 2], 2.0);
    EXPECT_THROW(ode::relative_error_trace(a, shifted), util::PreconditionError);
    EXPECT_THROW(ode::peak_relative_error(shifted, a), util::PreconditionError);
}

TEST(Transient, PeakRelativeErrorOfIdenticalTracesIsZero) {
    const Qldae sys = scalar_decay(1.0);
    TransientOptions opt;
    opt.t_end = 1.0;
    opt.dt = 1e-2;
    opt.method = Method::rk4;
    const auto a = ode::simulate(sys, [](double) { return Vec{1.0}; }, opt);
    EXPECT_DOUBLE_EQ(ode::peak_relative_error(a, a), 0.0);
}

// ---------------------------------------------------------------------------
// The implicit Newton loop: one time grid, f reused, no allocation.
// ---------------------------------------------------------------------------

class ImplicitMethods : public ::testing::TestWithParam<Method> {};

TEST_P(ImplicitMethods, DriveIsSampledOnceAtEachGridPoint) {
    // The drive is sampled at t_s = h*s for s = 0..nsteps, once each and in
    // order, after simulate's arity probe at 0. 0.37 / 37 is a step at which
    // h*(s+1) and h*s + h differ for some s, so the grid is the product form.
    const Qldae sys = scalar_decay(2.0);
    TransientOptions opt;
    opt.t_end = 0.37;
    opt.dt = 0.37 / 37.0;
    opt.method = GetParam();
    std::vector<double> calls;
    const ode::InputFn u = [&calls](double t) {
        calls.push_back(t);
        return Vec{std::cos(t)};
    };
    const auto res = ode::simulate(sys, u, opt);
    ASSERT_EQ(res.steps, 37);
    const double h = opt.t_end / 37.0;
    bool sum_differs = false;
    for (long s = 0; s < 37; ++s)
        sum_differs = sum_differs || h * static_cast<double>(s) + h != h * (s + 1.0);
    EXPECT_TRUE(sum_differs) << "choose a step at which the two grids differ";

    ASSERT_EQ(calls.size(), 39u);
    EXPECT_EQ(calls[0], 0.0);  // the arity probe
    ASSERT_EQ(res.t.size(), 38u);
    for (std::size_t s = 0; s <= 37; ++s) {
        EXPECT_EQ(calls[s + 1], h * static_cast<double>(s)) << "sample " << s;
        EXPECT_EQ(res.t[s], h * static_cast<double>(s)) << "record " << s;
    }

    // rk4 records on the same grid, so its trace compares with this one.
    opt.method = Method::rk4;
    EXPECT_EQ(ode::simulate(sys, [](double t) { return Vec{std::cos(t)}; }, opt).t, res.t);
}

INSTANTIATE_TEST_SUITE_P(Newton, ImplicitMethods,
                         ::testing::Values(Method::trapezoidal, Method::backward_euler));

/// The three paper circuits in the repo benchmark's configuration (Fig. 3
/// current-driven NLTL, Fig. 5 varistor ladder, Fig. 4 two-input RF
/// receiver), each with one fixed drive and its reduced model. Built once.
struct PaperCircuit {
    std::string name;
    Qldae full;
    Qldae rom;
    TransientOptions opt;
    ode::InputFn drive;
};

const std::vector<PaperCircuit>& paper_circuits() {
    static const std::vector<PaperCircuit> all = [] {
        std::vector<PaperCircuit> c;
        const auto add = [&c](std::string name, Qldae full, const core::AtMorOptions& mor,
                              double t_end, double dt, ode::InputFn drive) {
            Qldae rom = core::reduce_associated(full, mor).rom;
            TransientOptions opt;
            opt.t_end = t_end;
            opt.dt = dt;
            c.push_back({std::move(name), std::move(full), std::move(rom), opt, std::move(drive)});
        };
        circuits::NltlOptions line;
        line.stages = 35;
        core::AtMorOptions mor;
        mor.k1 = 6;
        mor.k2 = 3;
        mor.k3 = 2;
        mor.expansion_points = {la::Complex(1.0, 0.0)};
        add("nltl", circuits::current_source_line(line).to_qldae(), mor, 15.0, 2e-3,
            circuits::pulse_input(0.5, 0.55, 1.0, 5.55, 1.5));

        circuits::VaristorOptions ladder;
        ladder.sections = 30;
        mor = {};
        mor.k1 = 4;
        mor.k2 = 2;
        mor.k3 = 2;
        add("varistor", circuits::varistor_circuit(ladder).system, mor, 15.0, 2e-3,
            circuits::surge_input(6.8, 1.0, 5.0));

        mor = {};
        mor.k1 = 4;
        mor.k2 = 3;
        mor.k3 = 0;
        add("rf", circuits::rf_receiver(circuits::RfReceiverOptions{}), mor, 20.0, 5e-3,
            circuits::combine_inputs(
                {circuits::sine_input(0.2, 0.05), circuits::sine_input(0.06, 0.12)}));
        return c;
    }();
    return all;
}

TEST(TransientPaperCircuits, NewtonCountsMatchTheThreeRhsLoop) {
    // Newton iterations of the loop that evaluated f(x_s, u(t_s)) afresh at
    // every step and sampled the drive at t + h. Reusing the converged f on
    // the grid h*s moves the traces by rounding only, and no count changes.
    struct Pin {
        long full_trap, rom_trap, full_be, rom_be, steps;
    };
    const Pin pins[] = {{14866, 14824, 17012, 15905, 7500},
                        {16886, 15000, 17604, 16471, 7500},
                        {9548, 8000, 11173, 9723, 4000}};
    const auto& circuits = paper_circuits();
    ASSERT_EQ(circuits.size(), 3u);
    for (std::size_t k = 0; k < circuits.size(); ++k) {
        const PaperCircuit& c = circuits[k];
        for (const Method method : {Method::trapezoidal, Method::backward_euler}) {
            TransientOptions opt = c.opt;
            opt.method = method;
            const bool trap = method == Method::trapezoidal;
            const auto full = ode::simulate(c.full, c.drive, opt);
            const auto rom = ode::simulate(c.rom, c.drive, opt);
            const std::string what = c.name + (trap ? " trapezoidal" : " backward Euler");
            EXPECT_EQ(full.steps, pins[k].steps) << what;
            EXPECT_EQ(rom.steps, pins[k].steps) << what;
            EXPECT_EQ(full.newton_iterations, trap ? pins[k].full_trap : pins[k].full_be) << what;
            EXPECT_EQ(rom.newton_iterations, trap ? pins[k].rom_trap : pins[k].rom_be) << what;
            EXPECT_EQ(full.factorizations, 1) << what;
            EXPECT_EQ(rom.factorizations, 1) << what;
        }
    }
}

TEST(TransientPaperCircuits, NewtonLoopAllocatesOnlyTheDriveSample) {
    // Twice the steps cost one allocation per extra step on a dense ROM and
    // on a CSR full model: the Vec the drive returns. Every other buffer is
    // warmed once, and both runs record only at t = 0 and at the end.
    const PaperCircuit& nltl = paper_circuits().front();
    ASSERT_TRUE(nltl.full.is_sparse());
    ASSERT_FALSE(nltl.rom.is_sparse());
    const ode::InputFn drive = [](double t) { return Vec{0.5 * std::sin(0.7 * t)}; };
    for (const Qldae* sys : {&nltl.rom, &nltl.full}) {
        const auto run = [&](double t_end) {
            TransientOptions opt = nltl.opt;
            opt.t_end = t_end;
            opt.record_stride = 1 << 30;
            const long before = test::allocations();
            const auto res = ode::simulate(*sys, drive, opt);
            return std::make_pair(res, test::allocations() - before);
        };
        const auto [once, once_allocs] = run(1.0);
        const auto [twice, twice_allocs] = run(2.0);
        ASSERT_EQ(once.t.size(), 2u);
        ASSERT_EQ(twice.t.size(), 2u);
        ASSERT_EQ(once.factorizations, twice.factorizations);
        const long extra_steps = twice.steps - once.steps;
        ASSERT_GT(extra_steps, 0);
        EXPECT_LE(twice_allocs - once_allocs, extra_steps) << "order " << sys->order();
        EXPECT_GT(twice_allocs - once_allocs, 0) << "the counter is live";
    }
}

// ---------------------------------------------------------------------------
// Batched scenario runner.
// ---------------------------------------------------------------------------

TEST(TransientBatch, ExplicitBatchMatchesSerialBitForBit) {
    // rk4 has no warm-start coupling between scenarios: each batched trace
    // must equal its serial counterpart exactly.
    const Qldae sys = scalar_decay(2.0);
    TransientOptions opt;
    opt.t_end = 1.0;
    opt.dt = 1e-3;
    opt.method = Method::rk4;
    std::vector<ode::InputFn> inputs;
    for (int s = 0; s < 5; ++s)
        inputs.push_back([s](double) { return Vec{1.0 + 0.1 * s}; });
    const auto batch = ode::simulate_batch(sys, inputs, opt);
    ASSERT_EQ(batch.size(), inputs.size());
    for (std::size_t s = 0; s < inputs.size(); ++s) {
        const auto serial = ode::simulate(sys, inputs[s], opt);
        ASSERT_EQ(batch[s].t.size(), serial.t.size());
        for (std::size_t r = 0; r < serial.t.size(); ++r)
            EXPECT_EQ(batch[s].y[r][0], serial.y[r][0]) << "scenario " << s << " record " << r;
    }
}

TEST(TransientBatch, ImplicitBatchSharesWarmJacobianAndConverges) {
    const Qldae sys = scalar_decay(2.0);
    TransientOptions opt;
    opt.t_end = 1.0;
    opt.dt = 1e-3;
    opt.method = Method::trapezoidal;
    std::vector<ode::InputFn> inputs;
    for (int s = 0; s < 4; ++s)
        inputs.push_back([s](double t) { return Vec{std::sin((1.0 + s) * t)}; });
    const auto batch = ode::simulate_batch(sys, inputs, opt);
    ASSERT_EQ(batch.size(), inputs.size());
    for (std::size_t s = 0; s < inputs.size(); ++s) {
        // Linear system + shared warm Jacobian: no scenario should have
        // needed a private refactor.
        EXPECT_EQ(batch[s].factorizations, 0) << "scenario " << s;
        const auto serial = ode::simulate(sys, inputs[s], opt);
        ASSERT_EQ(batch[s].t.size(), serial.t.size());
        for (std::size_t r = 0; r < serial.t.size(); ++r)
            EXPECT_NEAR(batch[s].y[r][0], serial.y[r][0], 1e-9);
    }
}

TEST(TransientBatch, DeterministicAcrossThreadCounts) {
    const Qldae sys = scalar_decay(3.0);
    TransientOptions opt;
    opt.t_end = 0.5;
    opt.dt = 1e-3;
    opt.method = Method::trapezoidal;
    std::vector<ode::InputFn> inputs;
    for (int s = 0; s < 6; ++s)
        inputs.push_back([s](double t) { return Vec{std::cos((1.0 + 0.5 * s) * t)}; });

    util::ThreadPool::set_global_threads(1);
    const auto serial = ode::simulate_batch(sys, inputs, opt);
    util::ThreadPool::set_global_threads(4);
    const auto parallel = ode::simulate_batch(sys, inputs, opt);
    util::ThreadPool::set_global_threads(util::ThreadPool::default_thread_count());

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
        ASSERT_EQ(serial[s].t.size(), parallel[s].t.size());
        for (std::size_t r = 0; r < serial[s].t.size(); ++r)
            EXPECT_EQ(serial[s].y[r][0], parallel[s].y[r][0])
                << "scenario " << s << " record " << r;
    }
}

TEST(TransientBatch, EmptyBatchAndArityValidation) {
    const Qldae sys = scalar_decay(1.0);
    TransientOptions opt;
    opt.t_end = 1.0;
    opt.dt = 1e-2;
    // An empty batch is a caller bug surfaced as a typed error, never a
    // silent empty result -- on both the stamping and the replay overload.
    EXPECT_THROW(ode::simulate_batch(sys, {}, opt), util::PreconditionError);
    EXPECT_THROW(ode::simulate_batch(sys, {}, opt, ode::make_warm_start(sys, opt)),
                 util::PreconditionError);
    std::vector<ode::InputFn> bad = {[](double) { return Vec{1.0, 2.0}; }};
    EXPECT_THROW(ode::simulate_batch(sys, bad, opt), util::PreconditionError);
}

}  // namespace
}  // namespace atmor
