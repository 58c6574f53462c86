// Reproduces paper Fig. 4 and the "Sect. 3.3 Ex." rows of Table 1: the MISO
// RF receiver (signal + interferer), proposed method versus NORM.
//
// Paper numbers (shape targets):
//   * 173 voltage/current unknowns; ROM orders 14 (proposed) vs 27 (NORM)
//   * Arnoldi: proposed 159 s vs NORM 72 s; ODE solve: 1876 / 182 / 381 s.
//
//   usage: bench_fig4_table1_rf_receiver [k3] [--threads N] [--json-out=PATH]
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "circuits/rf_receiver.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "core/norm.hpp"
#include "ode/transient.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace atmor;
    bench::init_threads(argc, argv);
    const std::string json_path =
        bench::json_out_arg(argc, argv, "BENCH_fig4_table1_rf_receiver.json");
    const int k3 = bench::arg_int(argc, argv, 1, 1);

    std::printf("=== Fig. 4 + Table 1 (Sect. 3.3): MISO RF receiver ===\n");
    const circuits::RfReceiverOptions copt;
    const auto full = circuits::rf_receiver(copt);
    std::printf("circuit %s\n", copt.key().c_str());
    std::printf("n = %d (paper: 173), inputs = %d, D1 = 0: %s\n", full.order(), full.inputs(),
                full.has_bilinear() ? "no" : "yes");

    core::AtMorOptions mor;
    mor.k1 = 4;
    mor.k2 = 3;
    mor.k3 = k3;
    const auto proposed = core::reduce_associated(full, mor);

    core::NormOptions nopt;
    nopt.q1 = 4;
    nopt.q2 = 3;
    nopt.q3 = k3;
    const auto norm = core::reduce_norm(full, nopt);

    std::printf("ROM orders: proposed %d (paper 14) vs NORM %d (paper 27)\n", proposed.order,
                norm.order);

    // Desired signal u1 plus interferer u2 coupled from the environment.
    const auto input = circuits::combine_inputs(
        {circuits::sine_input(0.2, 0.05), circuits::sine_input(0.06, 0.12)});
    ode::TransientOptions topt;
    topt.t_end = 20.0;
    topt.dt = 5e-3;
    topt.record_stride = 25;
    topt.refactor_every_step = true;  // Table-1 regime (see fig3 bench)
    const auto y_full = ode::simulate(full, input, topt);
    const auto y_prop = ode::simulate(proposed.rom, input, topt);
    const auto y_norm = ode::simulate(norm.rom, input, topt);

    bench::print_series3("Fig. 4(b)/(c): transients and relative errors", y_full, y_prop,
                         "prop", y_norm, "norm");

    util::Table t1({"quantity", "Original", "Proposed", "NORM", "paper (Orig/Prop/NORM)"});
    t1.add_row({"ROM order", std::to_string(full.order()), std::to_string(proposed.order),
                std::to_string(norm.order), "173 / 14 / 27"});
    t1.add_row({"moment-gen time (s)", "-", util::Table::num(proposed.build_seconds, 3),
                util::Table::num(norm.build_seconds, 3), "- / 159 / 72"});
    t1.add_row({"ODE solve (s)", util::Table::num(y_full.solve_seconds, 3),
                util::Table::num(y_prop.solve_seconds, 3),
                util::Table::num(y_norm.solve_seconds, 3), "1876 / 182 / 381"});
    t1.add_row({"peak rel err", "-", util::Table::num(ode::peak_relative_error(y_full, y_prop), 3),
                util::Table::num(ode::peak_relative_error(y_full, y_norm), 3), "(both small)"});
    std::printf("\n--- Table 1 (Sect. 3.3 rows) ---\n");
    t1.print(std::cout);

    const double err_prop = ode::peak_relative_error(y_full, y_prop);
    const double err_norm = ode::peak_relative_error(y_full, y_norm);
    bench::InvariantChecker inv;
    inv.require(err_prop <= 5e-2, "proposed ROM two-tone error small (<= 5e-2)");
    inv.require(err_norm <= 5e-2, "NORM ROM two-tone error small (<= 5e-2)");
    inv.require(proposed.order < norm.order,
                "proposed ROM is smaller than NORM at equal moments (Table 1 shape)");

    bench::Json json;
    json.str("bench", "fig4_table1_rf_receiver");
    json.str("circuit", copt.key());
    json.num("full_order", full.order());
    json.num("proposed_order", proposed.order);
    json.num("norm_order", norm.order);
    json.num("proposed_build_seconds", proposed.build_seconds);
    json.num("norm_build_seconds", norm.build_seconds);
    json.num("full_solve_seconds", y_full.solve_seconds);
    json.num("proposed_solve_seconds", y_prop.solve_seconds);
    json.num("norm_solve_seconds", y_norm.solve_seconds);
    json.num("proposed_peak_rel_err", err_prop);
    json.num("norm_peak_rel_err", err_norm);
    json.boolean("table1_shape_ok", inv.ok());
    if (!bench::write_json(json, json_path)) return 1;
    return inv.exit_code();
}
