// Reproduces paper Fig. 3 and the "Sect. 3.2 Ex." rows of Table 1: the
// current-driven nonlinear transmission line (no D1), proposed method versus
// NORM-style multivariate moment matching.
//
// Paper numbers (shape targets, absolute values are platform-bound):
//   * x in R^70; proposed ROM order 9 vs NORM order 20 at equal moments
//   * Arnoldi time: proposed 268 s vs NORM 88 s (proposed SLOWER to build)
//   * ODE solve: original 2723 s, proposed 649 s, NORM 1663 s
//     => proposed ROM ~61% faster to simulate than the NORM ROM.
//
//   usage: bench_fig3_table1_nltl_current [stages] [--threads N] [--json-out=PATH]
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "circuits/nltl.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "core/norm.hpp"
#include "ode/transient.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace atmor;
    bench::init_threads(argc, argv);
    const std::string json_path =
        bench::json_out_arg(argc, argv, "BENCH_fig3_table1_nltl_current.json");
    const int stages = bench::arg_int(argc, argv, 1, 35);

    std::printf("=== Fig. 3 + Table 1 (Sect. 3.2): NLTL with current source ===\n");
    circuits::NltlOptions copt;
    copt.stages = stages;
    const auto full = circuits::current_source_line(copt).to_qldae();
    std::printf("circuit %s (current source)\n", copt.key().c_str());
    std::printf("stages = %d -> lifted n = %d (paper: 70), D1 present: %s\n", stages,
                full.order(), full.has_bilinear() ? "yes" : "no");

    const la::Complex s0(1.0, 0.0);
    core::AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    mor.expansion_points = {s0};
    const auto proposed = core::reduce_associated(full, mor);

    core::NormOptions nopt;
    nopt.q1 = 6;
    nopt.q2 = 3;
    nopt.q3 = 2;
    nopt.sigma0 = s0;
    const auto norm = core::reduce_norm(full, nopt);

    std::printf("ROM orders: proposed %d (paper 9) vs NORM %d (paper 20)\n", proposed.order,
                norm.order);

    const auto input = circuits::pulse_input(0.5, 0.5, 1.0, 5.0, 1.5);
    ode::TransientOptions topt;
    topt.t_end = 30.0;
    topt.dt = 2e-3;
    topt.record_stride = 100;
    // Table 1's regime: the Jacobian is refactored every step (SPICE-style
    // Newton), so solve cost scales with model order as in the paper.
    topt.refactor_every_step = true;
    const auto y_full = ode::simulate(full, input, topt);
    const auto y_prop = ode::simulate(proposed.rom, input, topt);
    const auto y_norm = ode::simulate(norm.rom, input, topt);

    bench::print_series3("Fig. 3(a)/(b): transients and relative errors", y_full, y_prop,
                         "prop", y_norm, "norm");

    util::Table t1({"quantity", "Original", "Proposed", "NORM", "paper (Orig/Prop/NORM)"});
    t1.add_row({"ROM order", std::to_string(full.order()), std::to_string(proposed.order),
                std::to_string(norm.order), "70 / 9 / 20"});
    t1.add_row({"moment-gen time (s)", "-", util::Table::num(proposed.build_seconds, 3),
                util::Table::num(norm.build_seconds, 3), "- / 268 / 88"});
    t1.add_row({"ODE solve (s)", util::Table::num(y_full.solve_seconds, 3),
                util::Table::num(y_prop.solve_seconds, 3),
                util::Table::num(y_norm.solve_seconds, 3), "2723 / 649 / 1663"});
    t1.add_row({"peak rel err", "-", util::Table::num(ode::peak_relative_error(y_full, y_prop), 3),
                util::Table::num(ode::peak_relative_error(y_full, y_norm), 3), "(both small)"});
    std::printf("\n--- Table 1 (Sect. 3.2 rows) ---\n");
    t1.print(std::cout);

    const double saving = 100.0 * (1.0 - y_prop.solve_seconds / y_norm.solve_seconds);
    std::printf("\nsimulation-time saving of proposed ROM vs NORM ROM: %.0f%% (paper: 61%%)\n",
                saving);

    const double err_prop = ode::peak_relative_error(y_full, y_prop);
    const double err_norm = ode::peak_relative_error(y_full, y_norm);
    bench::InvariantChecker inv;
    inv.require(err_prop <= 1e-2, "proposed ROM transient error small (<= 1e-2)");
    inv.require(err_norm <= 1e-2, "NORM ROM transient error small (<= 1e-2)");
    inv.require(proposed.order < norm.order,
                "proposed ROM is smaller than NORM at equal moments (Table 1 shape)");

    bench::Json json;
    json.str("bench", "fig3_table1_nltl_current");
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
