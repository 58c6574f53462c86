// Reproduces paper Fig. 5: ZnO varistor surge protection -- an ODE with a
// CUBIC Kronecker term (C x' + G1 x + G3 x^(x)3 = u), 102 states, hit by a
// 9.8 kV double-exponential surge on a 200 V operating bias.
//
// Paper shape: the full model and a low-order ROM (order 8) stay in close
// agreement while the output remains clamped in the 150..300 V band.
//
//   usage: bench_fig5_varistor [sections] [--threads N] [--json-out=PATH]
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "circuits/varistor.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "ode/transient.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace atmor;
    bench::init_threads(argc, argv);
    const std::string json_path = bench::json_out_arg(argc, argv, "BENCH_fig5_varistor.json");
    circuits::VaristorOptions copt;
    copt.sections = bench::arg_int(argc, argv, 1, 51);

    std::printf("=== Fig. 5: ZnO varistor surge protector (cubic ODE) ===\n");
    const auto circuit = circuits::varistor_circuit(copt);
    const auto& full = circuit.system;
    std::printf("circuit %s\n", copt.key().c_str());
    std::printf("n = %d (paper: 102), cubic: %s, DC output %.1f V (200 V bias)\n",
                full.order(), full.has_cubic() ? "yes" : "no",
                1e3 * circuit.output_bias_kv);

    // Paper-order ROM (8) and a slightly richer one for reference.
    core::AtMorOptions mor8;
    mor8.k1 = 4;
    mor8.k2 = 2;
    mor8.k3 = 2;
    const auto rom8 = core::reduce_associated(full, mor8);
    core::AtMorOptions mor13;
    mor13.k1 = 8;
    mor13.k2 = 3;
    mor13.k3 = 3;
    const auto rom13 = core::reduce_associated(full, mor13);
    std::printf("ROM orders: %d (paper: 8) and %d; build %.2f s / %.2f s\n", rom8.order,
                rom13.order, rom8.build_seconds, rom13.build_seconds);

    // 9.8 kV surge = 9.6 kV deviation above the bias.
    const auto surge = circuits::surge_input(9.8 - circuit.bias_kv, 1.0, 5.0);
    ode::TransientOptions topt;
    topt.t_end = 30.0;
    topt.dt = 2e-3;
    topt.record_stride = 100;
    const auto y_full = ode::simulate(full, surge, topt);
    const auto y_rom8 = ode::simulate(rom8.rom, surge, topt);
    const auto y_rom13 = ode::simulate(rom13.rom, surge, topt);

    // Paper plots absolute volts: offset by the bias, scale kV -> V.
    std::printf("\ninput surge peak: %.1f V\n", 9.8e3);
    bench::print_series("Fig. 5(b) lower: output voltage (V), order-" +
                            std::to_string(rom8.order) + " ROM",
                        y_full, y_rom8, 40, 1e3 * circuit.output_bias_kv, 1e3);

    util::Table summary({"ROM", "order", "peak rel err", "ODE solve (s)"});
    summary.add_row({"proposed (paper-order)", std::to_string(rom8.order),
                     util::Table::num(ode::peak_relative_error(y_full, y_rom8), 3),
                     util::Table::num(y_rom8.solve_seconds, 3)});
    summary.add_row({"proposed (richer)", std::to_string(rom13.order),
                     util::Table::num(ode::peak_relative_error(y_full, y_rom13), 3),
                     util::Table::num(y_rom13.solve_seconds, 3)});
    summary.add_row({"full model", std::to_string(full.order()), "-",
                     util::Table::num(y_full.solve_seconds, 3)});
    std::printf("\n");
    summary.print(std::cout);

    const double err8 = ode::peak_relative_error(y_full, y_rom8);
    const double err13 = ode::peak_relative_error(y_full, y_rom13);
    bench::InvariantChecker inv;
    inv.require(err8 <= 0.2, "paper-order ROM tracks the clamped surge (<= 0.2)");
    inv.require(err13 <= 0.1, "richer ROM tracks the clamped surge (<= 0.1)");
    inv.require(full.has_cubic(), "varistor lifting carries the cubic G3 term");

    bench::Json json;
    json.str("bench", "fig5_varistor");
    json.str("circuit", copt.key());
    json.num("full_order", full.order());
    json.num("rom8_order", rom8.order);
    json.num("rom13_order", rom13.order);
    json.num("rom8_peak_rel_err", err8);
    json.num("rom13_peak_rel_err", err13);
    json.num("rom8_build_seconds", rom8.build_seconds);
    json.num("rom13_build_seconds", rom13.build_seconds);
    json.num("full_solve_seconds", y_full.solve_seconds);
    json.num("rom8_solve_seconds", y_rom8.solve_seconds);
    json.num("rom13_solve_seconds", y_rom13.solve_seconds);
    json.boolean("surge_tracking_ok", inv.ok());
    if (!bench::write_json(json, json_path)) return 1;
    return inv.exit_code();
}
