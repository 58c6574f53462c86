// MISO RF receiver (paper Sec. 3.3 scenario): a signal and an interferer
// drive a 173-state weakly nonlinear chain; the reduction handles multiple
// inputs by gathering the moment columns of every input combination.
//
//   $ ./rf_receiver_example
#include <cstdio>

#include "circuits/rf_receiver.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "ode/transient.hpp"

int main() {
    using namespace atmor;
    const auto full = circuits::rf_receiver();
    std::printf("RF receiver: n = %d, inputs = %d, D1 = 0: %s\n", full.order(), full.inputs(),
                full.has_bilinear() ? "no" : "yes");

    core::AtMorOptions mor;
    mor.k1 = 4;
    mor.k2 = 2;
    mor.k3 = 1;
    const auto result = core::reduce_associated(full, mor);
    std::printf("ROM order %d from %d candidate vectors (%.3f s)\n", result.order,
                result.raw_vectors, result.build_seconds);

    // Desired signal plus an interferer tone coupled into the IF chain.
    const auto input = circuits::combine_inputs(
        {circuits::sine_input(0.2, 0.05), circuits::sine_input(0.05, 0.12)});
    ode::TransientOptions topt;
    topt.t_end = 20.0;
    topt.dt = 5e-3;
    topt.record_stride = 40;
    const auto y_full = ode::simulate(full, input, topt);
    const auto y_rom = ode::simulate(result.rom, input, topt);

    std::printf("\n%-8s %-14s %-14s\n", "t (ns)", "PA out full", "PA out ROM");
    for (std::size_t r = 0; r < y_full.t.size(); r += 8)
        std::printf("%-8.2f %-14.6e %-14.6e\n", y_full.t[r], y_full.y[r][0], y_rom.y[r][0]);
    std::printf("\npeak relative error: %.3e\n", ode::peak_relative_error(y_full, y_rom));
    return 0;
}
