#include <gtest/gtest.h>

#include <cmath>

#include "circuits/exp_system.hpp"
#include "circuits/nltl.hpp"
#include "circuits/rf_receiver.hpp"
#include "circuits/varistor.hpp"
#include "circuits/waveforms.hpp"
#include "la/schur.hpp"
#include "la/svd.hpp"
#include "la/vector_ops.hpp"
#include "ode/transient.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using circuits::NltlOptions;
using la::Vec;

TEST(Waveforms, SurgePeaksAtAmplitude) {
    const auto u = circuits::surge_input(9.8, 0.1, 2.0);
    double peak = 0.0;
    for (double t = 0.0; t < 10.0; t += 0.001) peak = std::max(peak, u(t)[0]);
    EXPECT_NEAR(peak, 9.8, 1e-3);
    EXPECT_DOUBLE_EQ(u(-1.0)[0], 0.0);
}

TEST(Waveforms, PulseShape) {
    const auto u = circuits::pulse_input(2.0, 1.0, 0.5, 3.0, 0.5);
    EXPECT_DOUBLE_EQ(u(0.5)[0], 0.0);
    EXPECT_NEAR(u(1.25)[0], 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(u(2.0)[0], 2.0);
    EXPECT_NEAR(u(3.25)[0], 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(u(4.0)[0], 0.0);
}

TEST(Waveforms, CombineInputsConcatenates) {
    const auto u = circuits::combine_inputs(
        {circuits::step_input(1.0), circuits::sine_input(2.0, 1.0)});
    const Vec v = u(0.25);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_DOUBLE_EQ(v[0], 1.0);
    EXPECT_NEAR(v[1], 2.0 * std::sin(2.0 * M_PI * 0.25), 1e-12);
}

TEST(ExpSystem, LiftingIsExact) {
    // Simulating the physical exponential model and the lifted QLDAE from
    // consistent initial conditions must give identical voltage trajectories.
    NltlOptions opt;
    opt.stages = 8;
    const auto line = circuits::voltage_source_line(opt);
    const auto qldae = line.to_qldae();
    EXPECT_EQ(qldae.order(), 16);  // 8 nodes + 8 diodes

    auto input = [](double t) { return Vec{0.2 * std::sin(3.0 * t)}; };
    // Physical simulation (RK4 on the exponential model).
    Vec v(8, 0.0);
    const int steps = 6000;
    const double t_end = 3.0;
    auto f_phys = [&](double t, const Vec& x) { return line.rhs_physical(x, input(t)); };
    v = test::rk4_integrate(f_phys, v, 0.0, t_end, steps);

    // Lifted simulation (the same RK4 on the QLDAE).
    auto f_lifted = [&](double t, const Vec& x) { return qldae.rhs(x, input(t)); };
    const Vec x_final =
        test::rk4_integrate(f_lifted, line.lift_state(Vec(8, 0.0)), 0.0, t_end, steps);
    const Vec v_lifted = line.lifted_to_voltages(Vec(x_final.begin(), x_final.begin() + 8));
    EXPECT_LT(la::dist2(v, v_lifted), 1e-7 * (1.0 + la::norm2(v)));
}

TEST(ExpSystem, DcEquilibriumResidualSmall) {
    NltlOptions opt;
    opt.stages = 12;
    const auto line = circuits::current_source_line(opt);
    const Vec v0 = line.equilibrium_voltages();
    const Vec f = line.rhs_physical(v0, Vec{0.0});
    EXPECT_LT(la::norm_inf(f), 1e-10);
}

TEST(Nltl, VoltageVariantHasBilinearTerm) {
    NltlOptions opt;
    opt.stages = 6;
    const auto sys = circuits::voltage_source_line(opt).to_qldae();
    EXPECT_TRUE(sys.has_bilinear());
    EXPECT_TRUE(sys.has_quadratic());
    EXPECT_FALSE(sys.has_cubic());
}

TEST(Nltl, CurrentVariantHasNoBilinearTerm) {
    NltlOptions opt;
    opt.stages = 35;
    const auto sys = circuits::current_source_line(opt).to_qldae();
    EXPECT_FALSE(sys.has_bilinear());
    EXPECT_EQ(sys.order(), 70);  // the paper's x in R^70
}

TEST(Nltl, LiftedLinearPartIsSingularButStable) {
    // Documented property: the exact lifting slaves the y-states, so G1 has
    // zero eigenvalues (rank <= #nodes) while nothing lies in the right half
    // plane. This is why the experiments expand at sigma0 > 0.
    NltlOptions opt;
    opt.stages = 8;
    const auto sys = circuits::current_source_line(opt).to_qldae();
    EXPECT_LT(la::spectral_abscissa(sys.g1()), 1e-9);
    const la::Vec sv = la::singular_values(sys.g1());
    EXPECT_LT(sv.back(), 1e-10 * sv.front());
}

TEST(RfReceiver, DefaultSizingIs173States) {
    const auto sys = circuits::rf_receiver();
    EXPECT_EQ(sys.order(), 173);
    EXPECT_EQ(sys.inputs(), 2);
    EXPECT_FALSE(sys.has_bilinear());  // the paper's Sec. 3.3: D1 = 0
    EXPECT_TRUE(sys.has_quadratic());
}

TEST(RfReceiver, StableAndNonsingular) {
    circuits::RfReceiverOptions opt;
    opt.lna_sections = 6;
    opt.if_sections = 6;
    opt.pa_sections = 6;
    const auto sys = circuits::rf_receiver(opt);
    EXPECT_LT(la::spectral_abscissa(sys.g1()), -1e-4);
    const la::Vec sv = la::singular_values(sys.g1());
    EXPECT_GT(sv.back(), 1e-8 * sv.front());
}

TEST(RfReceiver, SignalPropagatesThroughChain) {
    circuits::RfReceiverOptions opt;
    opt.lna_sections = 4;
    opt.if_sections = 4;
    opt.pa_sections = 4;
    const auto sys = circuits::rf_receiver(opt);
    ode::TransientOptions topt;
    topt.t_end = 40.0;
    topt.dt = 5e-3;
    const auto res = ode::simulate(
        sys, circuits::combine_inputs({circuits::step_input(0.1), circuits::step_input(0.0)}),
        topt);
    double peak = 0.0;
    for (const auto& y : res.y) peak = std::max(peak, std::abs(y[0]));
    EXPECT_GT(peak, 1e-4);  // the input reaches the PA output
}

TEST(Varistor, BuildsBiasedDeviationSystem) {
    const auto circuit = circuits::varistor_circuit();
    EXPECT_EQ(circuit.system.order(), 102);
    EXPECT_TRUE(circuit.system.has_cubic());
    EXPECT_TRUE(circuit.system.has_quadratic());  // induced by the bias shift
    EXPECT_FALSE(circuit.system.has_bilinear());
    EXPECT_LT(la::spectral_abscissa(circuit.system.g1()), 0.0);
    // DC output near the bias (the ladder is a mild divider at DC).
    EXPECT_GT(circuit.output_bias_kv, 0.05);
    EXPECT_LT(circuit.output_bias_kv, 0.3);
}

TEST(Varistor, DeviationSystemIsAtEquilibrium) {
    circuits::VaristorOptions opt;
    opt.sections = 8;
    const auto circuit = circuits::varistor_circuit(opt);
    const Vec zero(static_cast<std::size_t>(circuit.system.order()), 0.0);
    // With zero deviation input, the deviation dynamics rest at the origin.
    EXPECT_LT(la::norm_inf(circuit.system.rhs(zero, Vec{0.0})), 1e-11);
}

TEST(Varistor, CubicClampsLargeSwings) {
    // A 9.6 kV surge on the deviation system must produce a bounded output
    // response: entry impedance, ladder inductances and the cubic shunts keep
    // the protected node well below 1 kV (Fig. 5b's 150..300 V band).
    circuits::VaristorOptions opt;
    opt.sections = 10;
    const auto circuit = circuits::varistor_circuit(opt);
    ode::TransientOptions topt;
    topt.t_end = 20.0;
    topt.dt = 2e-3;
    const auto surge = circuits::surge_input(9.8 - circuit.bias_kv, 1.0, 5.0);
    const auto res = ode::simulate(circuit.system, surge, topt);
    double peak = 0.0;
    for (const auto& y : res.y) peak = std::max(peak, std::abs(y[0]));
    EXPECT_GT(peak, 1e-3);
    EXPECT_LT(peak + circuit.output_bias_kv, 1.0);  // clamped well below 1 kV
}

}  // namespace
}  // namespace atmor
