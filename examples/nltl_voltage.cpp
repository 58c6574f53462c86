// Voltage-driven nonlinear transmission line (paper Sec. 3.1 scenario):
// demonstrates a QLDAE *with* the bilinear D1 term, where the input couples
// into the controlling branch of the input diode.
//
//   $ ./nltl_voltage [stages]
#include <cstdio>
#include <cstdlib>

#include "circuits/nltl.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "ode/transient.hpp"

int main(int argc, char** argv) {
    using namespace atmor;
    circuits::NltlOptions copt;
    copt.stages = (argc > 1) ? std::atoi(argv[1]) : 40;

    const auto line = circuits::voltage_source_line(copt);
    const auto full = line.to_qldae();
    std::printf("voltage-driven NLTL: %d stages -> n = %d, D1 present: %s\n", copt.stages,
                full.order(), full.has_bilinear() ? "yes" : "no");

    core::AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    mor.expansion_points = {la::Complex(1.0, 0.0)};
    const auto result = core::reduce_associated(full, mor);
    std::printf("ROM order %d (built in %.3f s)\n", result.order, result.build_seconds);

    const auto input = circuits::pulse_input(0.3, 0.5, 1.0, 5.0, 1.5);
    ode::TransientOptions topt;
    topt.t_end = 30.0;
    topt.dt = 2e-3;
    topt.record_stride = 100;
    const auto y_full = ode::simulate(full, input, topt);
    const auto y_rom = ode::simulate(result.rom, input, topt);
    const auto err = ode::relative_error_trace(y_full, y_rom);

    std::printf("\n%-8s %-14s %-14s %-12s\n", "t (ns)", "v_out full", "v_out ROM", "rel err");
    for (std::size_t r = 0; r < y_full.t.size(); r += 10)
        std::printf("%-8.2f %-14.6e %-14.6e %-12.3e\n", y_full.t[r], y_full.y[r][0],
                    y_rom.y[r][0], err[r]);
    std::printf("\npeak relative error: %.3e\n", ode::peak_relative_error(y_full, y_rom));
    return 0;
}
