// End-to-end integration tests: scaled-down versions of the paper's four
// experiments, run through the full pipeline (circuit -> exact lifting ->
// associated-transform MOR / NORM -> transient simulation -> error bands).
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/nltl.hpp"
#include "circuits/rf_receiver.hpp"
#include "circuits/varistor.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "core/norm.hpp"
#include "ode/transient.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using core::AtMorOptions;
using la::Complex;
using la::Vec;

ode::TransientOptions trap_options(double t_end, double dt) {
    ode::TransientOptions opt;
    opt.t_end = t_end;
    opt.dt = dt;
    opt.record_stride = 10;
    return opt;
}

TEST(EndToEnd, MiniNltlVoltageSource) {
    // Scaled-down Fig. 2: voltage-driven line with D1, reduced and simulated.
    circuits::NltlOptions copt;
    copt.stages = 12;
    const auto sys = circuits::voltage_source_line(copt).to_qldae();
    ASSERT_EQ(sys.order(), 24);

    AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    mor.expansion_points = {Complex(1.0, 0.0)};  // lifted G1 is singular at 0
    const auto res = core::reduce_associated(sys, mor);
    EXPECT_LE(res.order, 11);

    const auto input = circuits::pulse_input(0.3, 0.5, 1.0, 4.0, 1.0);
    const auto topt = trap_options(15.0, 2e-3);
    const auto y_full = ode::simulate(sys, input, topt);
    const auto y_rom = ode::simulate(res.rom, input, topt);
    EXPECT_LT(ode::peak_relative_error(y_full, y_rom), 2e-2);
}

TEST(EndToEnd, MiniNltlCurrentSourceVsNorm) {
    // Scaled-down Fig. 3 / Table 1: proposed vs NORM on the current-driven
    // line; equal-or-better accuracy from a smaller ROM.
    circuits::NltlOptions copt;
    copt.stages = 12;
    const auto sys = circuits::current_source_line(copt).to_qldae();
    ASSERT_FALSE(sys.has_bilinear());

    AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    mor.expansion_points = {Complex(1.0, 0.0)};
    const auto proposed = core::reduce_associated(sys, mor);

    core::NormOptions nopt;
    nopt.q1 = 6;
    nopt.q2 = 3;
    nopt.q3 = 2;
    nopt.sigma0 = Complex(1.0, 0.0);
    const auto norm = core::reduce_norm(sys, nopt);

    // The paper's headline: same matched orders, much smaller proposed ROM.
    EXPECT_LT(proposed.order, norm.order);

    const auto input = circuits::pulse_input(0.4, 0.5, 1.0, 4.0, 1.0);
    const auto topt = trap_options(15.0, 2e-3);
    const auto y_full = ode::simulate(sys, input, topt);
    const auto y_prop = ode::simulate(proposed.rom, input, topt);
    const auto y_norm = ode::simulate(norm.rom, input, topt);
    EXPECT_LT(ode::peak_relative_error(y_full, y_prop), 5e-2);
    EXPECT_LT(ode::peak_relative_error(y_full, y_norm), 5e-2);
}

TEST(EndToEnd, MiniRfReceiverMiso) {
    // Scaled-down Fig. 4: two-input receiver, both inputs active.
    circuits::RfReceiverOptions copt;
    copt.lna_sections = 5;
    copt.if_sections = 5;
    copt.pa_sections = 5;
    const auto sys = circuits::rf_receiver(copt);

    AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 1;
    const auto res = core::reduce_associated(sys, mor);
    EXPECT_LT(res.order, sys.order());

    const auto input = circuits::combine_inputs(
        {circuits::sine_input(0.2, 0.05), circuits::sine_input(0.05, 0.12)});
    const auto topt = trap_options(25.0, 5e-3);
    const auto y_full = ode::simulate(sys, input, topt);
    const auto y_rom = ode::simulate(res.rom, input, topt);
    EXPECT_LT(ode::peak_relative_error(y_full, y_rom), 5e-2);
}

TEST(EndToEnd, MiniVaristorSurge) {
    // Scaled-down Fig. 5: cubic system under a surge.
    circuits::VaristorOptions copt;
    copt.sections = 12;
    const auto circuit = circuits::varistor_circuit(copt);

    AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 2;
    mor.k3 = 2;
    const auto res = core::reduce_associated(circuit.system, mor);
    EXPECT_LE(res.order, 10);

    const auto surge = circuits::surge_input(9.6, 1.0, 5.0);
    const auto topt = trap_options(25.0, 2e-3);
    const auto y_full = ode::simulate(circuit.system, surge, topt);
    const auto y_rom = ode::simulate(res.rom, surge, topt);
    EXPECT_LT(ode::peak_relative_error(y_full, y_rom), 5e-2);
}

TEST(EndToEnd, RomSimulationIsFasterAtScale) {
    // The economic argument of Table 1: the ROM integrates faster than the
    // full model (same integrator, same grid).
    circuits::NltlOptions copt;
    copt.stages = 30;
    const auto sys = circuits::current_source_line(copt).to_qldae();
    AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 0;
    mor.expansion_points = {Complex(1.0, 0.0)};
    const auto res = core::reduce_associated(sys, mor);

    const auto input = circuits::pulse_input(0.4, 0.5, 1.0, 4.0, 1.0);
    const auto topt = trap_options(10.0, 2e-3);
    const auto y_full = ode::simulate(sys, input, topt);
    const auto y_rom = ode::simulate(res.rom, input, topt);
    EXPECT_LT(y_rom.solve_seconds, y_full.solve_seconds);
}

}  // namespace
}  // namespace atmor
