// Quickstart: build a small nonlinear circuit, lift it to a QLDAE, reduce it
// with the associated-transform method, verify the ROM on a transient, and
// save/reload the artifact (the offline/online split).
//
//   $ ./quickstart
//
// Walks through the complete public API surface in ~80 lines. Exits 1 when
// the ROM's peak relative error exceeds 1e-3 or the reloaded artifact's
// replay differs from the in-memory ROM's.
#include <cstdio>

#include "circuits/nltl.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "ode/transient.hpp"
#include "rom/io.hpp"

int main() {
    using namespace atmor;

    // 1. A nonlinear transmission line with e^{40v} diodes, 20 stages.
    circuits::NltlOptions copt;
    copt.stages = 20;
    const circuits::ExpNodalSystem line = circuits::current_source_line(copt);

    // 2. Exact quadratic-linear lifting: x' = G1 x + G2 (x (x) x) + b u.
    const volterra::Qldae full = line.to_qldae();
    std::printf("full model: n = %d states (%d nodes + %d diode states)\n", full.order(),
                line.nodes(), line.diodes());

    // 3. Reduce: match 6 moments of H1(s), 3 of A2(H2)(s), 2 of A3(H3)(s).
    //    The lifted G1 is singular at s = 0 (slaved diode states), so expand
    //    at sigma0 = 1 (one inverse time constant).
    core::AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    mor.expansion_points = {la::Complex(1.0, 0.0)};
    const core::MorResult result = core::reduce_associated(full, mor);
    std::printf("reduced model: q = %d states (from %d candidate moment vectors, %.3f s)\n",
                result.order, result.raw_vectors, result.build_seconds);

    // 4. Simulate both models on a pulse and compare.
    const auto input = circuits::pulse_input(/*amplitude=*/0.4, /*t_on=*/0.5, /*rise=*/1.0,
                                             /*t_off=*/4.0, /*fall=*/1.0);
    ode::TransientOptions topt;
    topt.t_end = 15.0;
    topt.dt = 2e-3;
    topt.record_stride = 50;
    const auto y_full = ode::simulate(full, input, topt);
    const auto y_rom = ode::simulate(result.rom, input, topt);

    const double rom_error = ode::peak_relative_error(y_full, y_rom);
    std::printf("transient: full %.3f s, ROM %.3f s, peak relative error %.2e\n",
                y_full.solve_seconds, y_rom.solve_seconds, rom_error);

    std::printf("\n%-8s %-14s %-14s\n", "t", "y_full", "y_rom");
    for (std::size_t r = 0; r < y_full.t.size(); r += 15)
        std::printf("%-8.3f %-14.6e %-14.6e\n", y_full.t[r], y_full.y[r][0], y_rom.y[r][0]);

    // 5. The offline/online split: the reduction is a one-time purchase.
    //    Save the artifact, reload it (bit-exact), and serve from the copy --
    //    the provenance records what was reduced and how.
    core::MorResult artifact = result;
    artifact.provenance.source = "nltl_current:" + copt.key();
    rom::save_model(artifact, "quickstart.atmor-rom");
    const rom::ReducedModel loaded = rom::load_model("quickstart.atmor-rom");
    const auto y_loaded = ode::simulate(loaded.rom, input, topt);
    const bool replay_exact = ode::peak_relative_error(y_rom, y_loaded) == 0.0;
    std::printf("\nsaved + reloaded quickstart.atmor-rom: source \"%s\", order %d, "
                "replay matches in-memory ROM: %s\n",
                loaded.provenance.source.c_str(), loaded.order,
                replay_exact ? "bit-exact" : "DIVERGED");
    if (rom_error > 1e-3) {
        std::printf("FAIL: ROM peak relative error %.2e exceeds 1e-3\n", rom_error);
        return 1;
    }
    return replay_exact ? 0 : 1;
}
