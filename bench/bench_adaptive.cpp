// Adaptive expansion-point selection vs fixed grids (grown out of the old
// bench_multipoint, which eyeballed paper Remark 3's hand-picked multipoint
// configs -- those same grids are now the "legacy" comparator).
//
// On the lifted current-source NLTL, reach a target max relative band error
// (output H1 + diagonal H2, a-posteriori estimated through the cached
// resolvents) three ways:
//   * legacy   -- the escalating hand-picked point family the repo's benches
//                 used before adaptivity ({1}, {1, 1+2j}, {0.5, 1, 1+4j}, ...),
//   * uniform  -- count points spread uniformly over the band,
//   * adaptive -- mor::reduce_adaptive greedy insertion + order trimming.
// Reported both ways the ISSUE frames cost: error at equal cost (same point
// count) and cost at equal error (points/order needed to reach tol).
//
// Writes BENCH_adaptive.json; exits nonzero when any invariant fails
// (adaptive must converge below tol with fewer points than the legacy grid
// and no more than the uniform grid, at a smaller ROM order).
//
//   usage: bench_adaptive [stages] [--threads N] [--json-out=PATH]
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "mor/adaptive.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
    using namespace atmor;
    bench::init_threads(argc, argv);
    const std::string json_path = bench::json_out_arg(argc, argv, "BENCH_adaptive.json");
    const int stages = bench::arg_int(argc, argv, 1, 25);

    std::printf("=== adaptive multi-point expansion vs fixed grids ===\n");
    circuits::NltlOptions copt;
    copt.stages = stages;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();

    mor::AdaptiveOptions aopt;
    aopt.omega_min = 0.25;
    aopt.omega_max = 4.0;
    aopt.band_grid = 25;
    aopt.tol = 5e-4;
    aopt.point_order = {4, 2, 0};
    aopt.max_points = 6;
    std::printf("circuit %s -> n = %d\n%s\n", copt.key().c_str(), sys.order(),
                aopt.key().c_str());

    // One corrected estimator scores every contender on the same band grid.
    const mor::ErrorEstimator estimator(sys, nullptr, true);
    const std::vector<la::Complex> grid = mor::band_grid(aopt);

    struct Row {
        std::string name;
        int points;
        int order;
        double max_err;
        double build_seconds;
    };
    std::vector<Row> rows;
    const auto measure = [&](const std::string& name,
                             const std::vector<la::Complex>& pts) {
        core::AtMorOptions mor_opt;
        mor_opt.k1 = aopt.point_order.k1;
        mor_opt.k2 = aopt.point_order.k2;
        mor_opt.k3 = aopt.point_order.k3;
        mor_opt.expansion_points = pts;
        const core::MorResult res = core::reduce_associated(sys, mor_opt);
        const mor::BandError be = estimator.band_error(res, grid);
        rows.push_back({name, static_cast<int>(pts.size()), res.order, be.max_rel,
                        res.build_seconds});
    };

    // The repo's pre-adaptive hand-picked family (bench_multipoint's configs,
    // extended by the same eyeballing logic).
    const std::vector<std::vector<la::Complex>> legacy = {
        {{1.0, 0.0}},
        {{1.0, 0.0}, {1.0, 2.0}},
        {{0.5, 0.0}, {1.0, 0.0}, {1.0, 4.0}},
        {{0.5, 0.0}, {1.0, 0.0}, {1.0, 2.0}, {1.0, 4.0}},
        {{0.5, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 4.0}},
    };
    for (const auto& pts : legacy)
        measure("legacy " + std::to_string(pts.size()), pts);
    const std::size_t n_legacy = rows.size();
    for (int count = 1; count <= 5; ++count)
        measure("uniform " + std::to_string(count), mor::uniform_points(aopt, count));

    util::Timer adaptive_timer;
    const mor::AdaptiveResult adaptive = mor::reduce_adaptive(sys, aopt);
    const double adaptive_seconds = adaptive_timer.seconds();
    const int adaptive_points =
        static_cast<int>(adaptive.model.provenance.expansion_points.size());

    util::Table table({"expansion grid", "points", "order", "max band err", "build (s)"});
    for (const Row& r : rows)
        table.add_row({r.name, std::to_string(r.points), std::to_string(r.order),
                       util::Table::num(r.max_err, 3), util::Table::num(r.build_seconds, 3)});
    table.add_row({"adaptive", std::to_string(adaptive_points),
                   std::to_string(adaptive.model.order),
                   util::Table::num(adaptive.model.provenance.estimated_error, 3),
                   util::Table::num(adaptive_seconds, 3)});
    table.print(std::cout);

    // Cost at equal error: first member of each family below tol.
    int legacy_to_tol = -1, uniform_to_tol = -1, uniform_order_at_tol = -1;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const bool is_legacy = r < n_legacy;
        if (rows[r].max_err > aopt.tol) continue;
        if (is_legacy && legacy_to_tol < 0) legacy_to_tol = rows[r].points;
        if (!is_legacy && uniform_to_tol < 0) {
            uniform_to_tol = rows[r].points;
            uniform_order_at_tol = rows[r].order;
        }
    }
    // Error at equal cost: the comparators with adaptive's point count.
    double legacy_err_at_cost = -1.0, uniform_err_at_cost = -1.0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].points != adaptive_points) continue;
        (r < n_legacy ? legacy_err_at_cost : uniform_err_at_cost) = rows[r].max_err;
    }

    std::printf("\ncost at equal error (tol %.1e): legacy %d pts, uniform %d pts, "
                "adaptive %d pts (order %d vs uniform %d)\n",
                aopt.tol, legacy_to_tol, uniform_to_tol, adaptive_points,
                adaptive.model.order, uniform_order_at_tol);
    std::printf("error at equal cost (%d pts): legacy %.3e, uniform %.3e, adaptive %.3e\n",
                adaptive_points, legacy_err_at_cost, uniform_err_at_cost,
                adaptive.model.provenance.estimated_error);

    bench::InvariantChecker inv;
    inv.require(adaptive.converged, "adaptive refinement converged");
    inv.require(adaptive.model.provenance.estimated_error <= aopt.tol,
                "adaptive estimated band error within tol");
    inv.require(legacy_to_tol > 0 && adaptive_points < legacy_to_tol,
                "adaptive reaches tol with fewer points than the legacy hand-picked grid");
    inv.require(uniform_to_tol > 0 && adaptive_points <= uniform_to_tol,
                "adaptive reaches tol with no more points than the uniform grid");
    inv.require(uniform_order_at_tol > 0 && adaptive.model.order < uniform_order_at_tol,
                "adaptive ROM is smaller than the uniform grid's at equal error");

    bench::Json json;
    json.str("bench", "adaptive");
    json.str("circuit", copt.key());
    json.num("full_order", sys.order());
    json.num("band_omega_min", aopt.omega_min);
    json.num("band_omega_max", aopt.omega_max);
    json.num("tol", aopt.tol);
    const auto family_json = [&](std::size_t begin, std::size_t end) {
        std::ostringstream out;
        out << "[";
        for (std::size_t r = begin; r < end; ++r)
            out << (r > begin ? ", " : "") << "{\"points\": " << rows[r].points
                << ", \"order\": " << rows[r].order << ", \"max_rel_err\": " << rows[r].max_err
                << ", \"build_seconds\": " << rows[r].build_seconds << "}";
        out << "]";
        return out.str();
    };
    json.raw("legacy_grid", family_json(0, n_legacy));
    json.raw("uniform_grid", family_json(n_legacy, rows.size()));
    {
        std::ostringstream hist;
        hist << "[";
        for (std::size_t h = 0; h < adaptive.error_history.size(); ++h)
            hist << (h > 0 ? ", " : "") << adaptive.error_history[h];
        hist << "]";
        json.raw("adaptive_error_history", hist.str());
    }
    json.num("adaptive_points", adaptive_points);
    json.num("adaptive_order", adaptive.model.order);
    json.num("adaptive_max_rel_err", adaptive.model.provenance.estimated_error);
    json.num("adaptive_build_seconds", adaptive_seconds);
    json.num("adaptive_refinements", adaptive.refinements);
    json.num("adaptive_trimmed_orders", adaptive.trimmed);
    json.num("legacy_points_to_tol", legacy_to_tol);
    json.num("uniform_points_to_tol", uniform_to_tol);
    json.num("uniform_order_at_tol", uniform_order_at_tol);
    json.boolean("adaptive_beats_fixed_grids_ok", inv.ok());
    if (!bench::write_json(json, json_path)) return 1;
    return inv.exit_code();
}
