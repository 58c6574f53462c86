// ZnO varistor surge protection (paper Sec. 3.4 scenario): a cubic-nonlinear
// ODE under a 9.8 kV double-exponential surge riding on a 200 V bias. Shows
// the cubic (G3) pathway of the associated transform, including the
// quadratic terms induced by shifting to the DC operating point.
//
//   $ ./varistor_surge
#include <cstdio>

#include "circuits/varistor.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "ode/transient.hpp"

int main() {
    using namespace atmor;
    const auto circuit = circuits::varistor_circuit();
    const auto& full = circuit.system;
    std::printf("varistor ladder: n = %d, cubic: %s, bias output %.1f V\n", full.order(),
                full.has_cubic() ? "yes" : "no", 1e3 * circuit.output_bias_kv);

    core::AtMorOptions mor;
    mor.k1 = 8;
    mor.k2 = 3;
    mor.k3 = 3;
    const auto result = core::reduce_associated(full, mor);
    std::printf("ROM order %d (%.3f s)\n", result.order, result.build_seconds);

    // 9.8 kV surge = 9.6 kV deviation above the 200 V bias.
    const auto surge = circuits::surge_input(9.8 - circuit.bias_kv, 1.0, 5.0);
    ode::TransientOptions topt;
    topt.t_end = 30.0;
    topt.dt = 2e-3;
    topt.record_stride = 150;
    const auto y_full = ode::simulate(full, surge, topt);
    const auto y_rom = ode::simulate(result.rom, surge, topt);

    std::printf("\n%-8s %-12s %-14s %-14s\n", "t (s)", "surge (V)", "out full (V)",
                "out ROM (V)");
    for (std::size_t r = 0; r < y_full.t.size(); r += 5) {
        const double bias_v = 1e3 * circuit.output_bias_kv;
        std::printf("%-8.2f %-12.1f %-14.2f %-14.2f\n", y_full.t[r],
                    1e3 * surge(y_full.t[r])[0], bias_v + 1e3 * y_full.y[r][0],
                    bias_v + 1e3 * y_rom.y[r][0]);
    }
    std::printf("\npeak relative error: %.3e\n", ode::peak_relative_error(y_full, y_rom));
    return 0;
}
