// Scenario scale-out bench: the three new-scenario axes in one gated run.
//
//   A. Large-sparse power-delivery mesh (n >= 5000 nodes): a 1-axis
//      clamp-strength family of the 5-point-stencil grid reduces through the
//      sparse-first stack (sparse::SparseLu resolvents under the
//      minimum-degree order the mesh pattern selects; the builder picks
//      SparseLuBackend because the lifted G1 is sparse) and serves
//      parametrically at reduced order. Invariant: the engine's max_factor_dim stays BELOW the full
//      order -- zero dense full-order factorizations anywhere in the online
//      path.
//   B. Sparse-grid vs factorial training over a 4-axis mixer box: the same
//      family tolerance reached from Smolyak level-2 candidates (41) vs the
//      3^4 factorial grid (81). Invariant: both converge, and the sparse
//      build samples measurably fewer training candidates (both counts are
//      recorded side by side).
//   C. Held-out queries against the sparse-built family: a seeded
//      Monte-Carlo batch through one ServeEngine::serve parametric_batch (every
//      point must come back member-certified under the family tolerance,
//      no fallbacks), plus a two-tone intermodulation sweep (RF x LO
//      products through H1/H2/H3 harmonic probing) where the ROM must track
//      the full model on every product at every sweep point.
//
//   usage: bench_scenarios [mesh_side] [mc_points] [--threads N] [--json-out=PATH]
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/mixer.hpp"
#include "circuits/power_grid.hpp"
#include "pmor/family_builder.hpp"
#include "rom/registry.hpp"
#include "rom/serve_engine.hpp"
#include "util/timer.hpp"
#include "volterra/transfer.hpp"

namespace {

double rel_err(atmor::la::Complex rom, atmor::la::Complex full, double floor_mag) {
    const double mag = std::abs(full);
    if (mag < floor_mag) return std::abs(rom - full) / floor_mag;
    return std::abs(rom - full) / mag;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace atmor;
    bench::init_threads(argc, argv);
    const std::string json_path = bench::json_out_arg(argc, argv, "BENCH_scenarios.json");
    const int mesh_side = bench::arg_int(argc, argv, 1, 72);
    const int mc_points = bench::arg_int(argc, argv, 2, 24);
    bench::InvariantChecker inv;

    std::printf("=== scenario scale-out: power-grid mesh, sparse-grid training, "
                "multi-tone serving ===\n");

    // -- A. The n >= 5000 power-delivery mesh family. ------------------------
    circuits::PowerGridOptions gopt;
    gopt.rows = mesh_side;
    gopt.cols = mesh_side;
    gopt.clamps = 8;
    // Electrical scaling for a mesh this large: the far-corner observation
    // decays like e^{-L sqrt(omega R C)} across L pitches, so the default
    // per-pitch RC (sized for 16x16) would push the whole [0.25, 2] band
    // below double precision at L = 72. Light pitch resistance and decap
    // keep the mesh observable (and are the physical regime anyway: pitch
    // resistors are small against the load).
    gopt.pitch_resistance = 0.02;
    gopt.decap = 0.2;
    gopt.load_conductance = 0.02;
    const int grid_nodes = circuits::power_grid_nodes(gopt);
    pmor::OptionsBinder<circuits::PowerGridOptions> gbinder(gopt);
    gbinder.param("clamp_alpha", &circuits::PowerGridOptions::clamp_alpha, 6.0, 10.0);
    const pmor::FamilyDesign grid_design =
        pmor::make_design("power_grid_alpha", gbinder, [](const circuits::PowerGridOptions& o) {
            return circuits::power_grid(o).to_qldae();
        });

    const volterra::Qldae probe_sys = grid_design.build_system(grid_design.space.center());
    const int full_order = probe_sys.order();
    std::printf("\npower grid: %dx%d mesh, %d nodes, lifted order %d, G1 %s\n", gopt.rows,
                gopt.cols, grid_nodes, full_order,
                probe_sys.g1_op().is_sparse() ? "sparse" : "DENSE");
    inv.require(grid_nodes >= 5000, "mesh is in the n >= 5000 large-sparse regime");
    inv.require(probe_sys.g1_op().is_sparse(),
                "lifted power grid stays on the sparse-first path (no dense G1)");

    pmor::FamilyBuildOptions gfam;
    gfam.tol = 5e-2;
    gfam.max_members = 2;
    gfam.training_grid_per_dim = 2;
    gfam.adaptive.tol = 1e-2;
    gfam.adaptive.omega_min = 0.25;
    gfam.adaptive.omega_max = 2.0;
    gfam.adaptive.band_grid = 5;
    gfam.adaptive.max_points = 3;
    // Linear (k1-only) subspaces: the mesh family stresses the SPARSE stack
    // -- minimum-degree-ordered SparseLu resolvents at n > 5000 -- while the
    // quadratic machinery is stressed at small order by the mixer sections
    // below.
    // Second-order moment work scales with n^2 and has no business in the
    // large-sparse axis.
    gfam.adaptive.point_order = rom::PointOrder{8, 0, 0};
    gfam.adaptive.trim_orders = false;

    util::Timer grid_timer;
    const pmor::FamilyBuildResult grid_built = pmor::FamilyBuilder(grid_design, gfam).build();
    const double grid_build_seconds = grid_timer.seconds();
    const rom::Family& grid_family = grid_built.family;
    int grid_rom_order_max = 0;
    for (const rom::FamilyMember& m : grid_family.members)
        grid_rom_order_max = std::max(grid_rom_order_max, m.model.order);
    std::printf("family: %zu members, max training error %.2e (tol %g), converged %s, "
                "rom order <= %d, built in %.2f s\n",
                grid_family.members.size(), grid_family.max_training_error, gfam.tol,
                grid_family.converged ? "yes" : "no", grid_rom_order_max, grid_build_seconds);
    inv.require(grid_family.converged, "power-grid family converges under the family tol");
    inv.require(grid_rom_order_max < full_order / 10,
                "members are genuine reductions (rom order < full/10)");

    rom::ServeEngine grid_engine(std::make_shared<rom::Registry>());
    (void)bench::host_family(grid_engine, grid_family);
    std::vector<la::Complex> band;
    for (int g = 1; g <= 16; ++g) band.emplace_back(0.0, 0.25 + 1.75 * (g - 1) / 15.0);
    const auto grid_serve = [&](const pmor::Point& q) {
        return bench::serve_point(grid_engine, grid_family.family_id, q, band, gfam.tol);
    };
    const std::vector<pmor::Point> grid_held_out = grid_design.space.offset_grid(3);
    int grid_certified = 0;
    for (const pmor::Point& q : grid_held_out) {
        const rom::ServeResponse ans = grid_serve(q);
        if (ans.ok() && !ans.fallback && ans.certificate.estimated_error <= gfam.tol)
            ++grid_certified;
    }
    const pmor::Point grid_probe = grid_held_out.front();
    (void)grid_serve(grid_probe);
    const double grid_serve_seconds = bench::median_timed([&] { (void)grid_serve(grid_probe); });

    const rom::ServeStats gstats = grid_engine.stats();
    const bool no_full_order_factor = gstats.solver.max_factor_dim < full_order;
    std::printf("served %zu held-out points (%d certified); online max_factor_dim %d vs "
                "full order %d -> %s dense full-order factorizations\n",
                grid_held_out.size(), grid_certified, gstats.solver.max_factor_dim, full_order,
                no_full_order_factor ? "zero" : "SOME");
    inv.require(grid_certified == static_cast<int>(grid_held_out.size()),
                "every held-out power-grid query is member-certified");
    inv.require(no_full_order_factor,
                "online serving never factors at full order (max_factor_dim < n)");

    // -- B. Sparse-grid vs factorial training on a 4-axis mixer box. ---------
    circuits::MixerOptions mbase;
    mbase.rf_sections = 2;
    mbase.lo_sections = 2;
    mbase.if_sections = 2;
    // Process-variation magnitudes (+-1..1.5% around nominal), not design
    // sweeps: H2 scales linearly with gm2 and the pole positions move with
    // leak/resistance, so the coverable box under a few-percent family
    // certificate IS the process-corner box. (Wide design sweeps belong to
    // per-axis families like test_scenarios' gm2 family.)
    pmor::OptionsBinder<circuits::MixerOptions> mbinder(mbase);
    mbinder.param("gm2", &circuits::MixerOptions::gm2, 0.788, 0.812)
        .param("gm1", &circuits::MixerOptions::gm1, 0.0492, 0.0508)
        .param("leak", &circuits::MixerOptions::leak, 0.0588, 0.0612)
        .param("resistance", &circuits::MixerOptions::resistance, 0.99, 1.01);
    const pmor::FamilyDesign mixer_design =
        pmor::make_design("mixer_process", mbinder,
                          [](const circuits::MixerOptions& o) { return circuits::mixer(o); });

    pmor::FamilyBuildOptions mfam;
    mfam.tol = 3e-2;
    mfam.max_members = 10;
    mfam.adaptive.tol = 2e-3;
    mfam.adaptive.omega_min = 0.25;
    mfam.adaptive.omega_max = 2.0;
    mfam.adaptive.band_grid = 7;
    mfam.adaptive.max_points = 2;
    mfam.adaptive.point_order = rom::PointOrder{3, 1, 0};
    mfam.adaptive.trim_orders = false;

    pmor::FamilyBuildOptions factorial = mfam;
    factorial.sampling = pmor::TrainingSampling::factorial_grid;
    factorial.training_grid_per_dim = 3;
    util::Timer factorial_timer;
    const pmor::FamilyBuildResult fact_built =
        pmor::FamilyBuilder(mixer_design, factorial).build();
    const double factorial_seconds = factorial_timer.seconds();

    pmor::FamilyBuildOptions smolyak = mfam;
    smolyak.sampling = pmor::TrainingSampling::sparse_grid;
    util::Timer sparse_timer;
    const pmor::FamilyBuildResult sparse_built =
        pmor::FamilyBuilder(mixer_design, smolyak).build();
    const double sparse_seconds = sparse_timer.seconds();

    std::printf("\n4-axis mixer box, family tol %g:\n", mfam.tol);
    std::printf("  factorial 3^4:    %d candidates, %d members built, %ld cross estimates, "
                "converged %s, %.2f s\n",
                fact_built.stats.candidates, fact_built.stats.members_built,
                fact_built.stats.cross_estimates, fact_built.family.converged ? "yes" : "no",
                factorial_seconds);
    std::printf("  smolyak level 2:  %d candidates, %d members built, %ld cross estimates, "
                "converged %s, %.2f s\n",
                sparse_built.stats.candidates, sparse_built.stats.members_built,
                sparse_built.stats.cross_estimates, sparse_built.family.converged ? "yes" : "no",
                sparse_seconds);
    inv.require(fact_built.family.converged, "factorial training converges");
    inv.require(sparse_built.family.converged, "sparse-grid training converges");
    inv.require(sparse_built.stats.candidates < fact_built.stats.candidates,
                "sparse-grid training samples fewer candidates than the factorial grid");
    inv.require(sparse_built.stats.cross_estimates < fact_built.stats.cross_estimates,
                "sparse-grid training spends fewer cross-error estimates");

    // -- C1. Held-out Monte-Carlo batch against the sparse-built family. -----
    const rom::Family& mixer_family = sparse_built.family;
    rom::ServeEngine mixer_engine(std::make_shared<rom::Registry>());
    const rom::FamilyArtifact mixer_artifact = bench::host_family(mixer_engine, mixer_family);
    // Materialize every member up front, so the timed batch starts from the
    // fully resident family it is compared against.
    for (int i = 0; i < mixer_artifact.member_count(); ++i) (void)mixer_artifact.member(i);
    rom::ParametricBatchRequest mbody;
    mbody.family_id = mixer_family.family_id;
    for (int g = 1; g <= 12; ++g) mbody.grid.emplace_back(0.0, g / 6.0);
    const std::vector<pmor::Point> mc = mixer_design.space.monte_carlo(mc_points, 2026);
    mbody.coords = mc;
    mbody.tol = mfam.tol;
    rom::ServeRequest mreq;
    mreq.body = std::move(mbody);
    util::Timer batch_timer;
    const rom::ServeResponse batch = mixer_engine.serve(mreq);
    const double batch_seconds = batch_timer.seconds();
    int mc_certified = 0;
    double mc_worst = 0.0;
    for (std::size_t p = 0; p < batch.batch_fallback.size(); ++p) {
        const bool certified = batch.batch_fallback[p] == 0 && batch.batch_error[p] <= mfam.tol;
        if (certified) ++mc_certified;
        mc_worst = std::max(mc_worst, batch.batch_error[p]);
    }
    std::printf("\nMonte-Carlo batch: %d held-out process points in one request, %d certified, "
                "worst certificate %.2e (tol %g), %.3e s\n",
                mc_points, mc_certified, mc_worst, mfam.tol, batch_seconds);
    inv.require(batch.ok(), "the Monte-Carlo batch request succeeds");
    inv.require(mc_certified == mc_points,
                "every Monte-Carlo process point is member-certified (no fallbacks)");
    inv.require(batch.certificate.estimated_error == mc_worst,
                "the batch certificate is the worst point's certificate");

    // -- C2. Two-tone intermodulation sweep: ROM vs full at a held-out point.
    // RF tone fixed on input 0, LO tone swept on input 1; every product
    // (fundamentals, sum, diff, dc, IM3) must track the full model. The ROM
    // here is a fresh associated-transform reduction at the held-out point
    // with second/third-order subspaces, since the mixing products live in
    // H2/H3, not in the H1 band the family certificates bound.
    const pmor::Point im_point = mixer_design.space.offset_grid(1).front();
    const volterra::Qldae im_full = mixer_design.build_system(im_point);
    core::AtMorOptions im_mor;
    im_mor.k1 = 5;
    im_mor.k2 = 3;
    im_mor.k3 = 2;
    im_mor.expansion_points = {la::Complex(1.0, 0.0)};
    const core::MorResult im_rom = core::reduce_associated(im_full, im_mor);

    const volterra::TransferEvaluator te_full(im_full);
    const volterra::TransferEvaluator te_rom(im_rom.rom);
    volterra::Tone rf;
    rf.omega = 1.1;
    rf.amplitude = 0.08;
    rf.input = 0;
    std::vector<volterra::Tone> lo_sweep;
    for (int g = 0; g < 8; ++g) {
        volterra::Tone lo;
        lo.omega = 0.6 + 0.1 * g;
        lo.amplitude = 0.08;
        lo.phase = 0.3;
        lo.input = 1;
        lo_sweep.push_back(lo);
    }
    util::Timer im_full_timer;
    const std::vector<volterra::TwoToneIntermod> im_ref =
        volterra::predict_intermod_sweep(te_full, rf, lo_sweep);
    const double im_full_seconds = im_full_timer.seconds();
    util::Timer im_rom_timer;
    const std::vector<volterra::TwoToneIntermod> im_red =
        volterra::predict_intermod_sweep(te_rom, rf, lo_sweep);
    const double im_rom_seconds = im_rom_timer.seconds();

    // Products below the floor are compared against the floor itself, so a
    // physically-zero product cannot manufacture a huge relative error.
    const double im_floor = 1e-8;
    double im_max_rel = 0.0;
    for (std::size_t p = 0; p < im_ref.size(); ++p) {
        im_max_rel = std::max(
            im_max_rel,
            std::max({rel_err(im_red[p].fundamental_a, im_ref[p].fundamental_a, im_floor),
                      rel_err(im_red[p].fundamental_b, im_ref[p].fundamental_b, im_floor),
                      rel_err(im_red[p].sum, im_ref[p].sum, im_floor),
                      rel_err(im_red[p].diff, im_ref[p].diff, im_floor),
                      rel_err(im_red[p].dc, im_ref[p].dc, im_floor),
                      rel_err(im_red[p].im3_low, im_ref[p].im3_low, im_floor),
                      rel_err(im_red[p].im3_high, im_ref[p].im3_high, im_floor)}));
    }
    const double im_tol = 2e-2;
    std::printf("intermod sweep at held-out [%s]: %zu LO points x 7 products, ROM max rel "
                "error %.2e (tol %g), full %.3e s vs rom %.3e s\n",
                mixer_design.space.key(im_point).c_str(), lo_sweep.size(), im_max_rel, im_tol,
                im_full_seconds, im_rom_seconds);
    inv.require(im_max_rel <= im_tol,
                "ROM intermodulation products track the full model on every sweep point");

    bench::Json json;
    json.str("bench", "scenarios");
    bench::add_env_header(json);
    json.num("mesh_rows", gopt.rows);
    json.num("mesh_cols", gopt.cols);
    json.num("mesh_nodes", grid_nodes);
    json.num("mesh_full_order", full_order);
    json.num("mesh_family_members", static_cast<long>(grid_family.members.size()));
    json.num("mesh_rom_order_max", grid_rom_order_max);
    json.boolean("mesh_family_converged", grid_family.converged);
    json.num("mesh_max_training_error", grid_family.max_training_error);
    json.num("mesh_build_seconds", grid_build_seconds);
    json.num("mesh_serve_seconds", grid_serve_seconds);
    json.num("mesh_held_out_certified", grid_certified);
    json.num("mesh_online_max_factor_dim", gstats.solver.max_factor_dim);
    json.num("mesh_full_order_factorizations", no_full_order_factor ? 0L : 1L);
    json.num("factorial_candidates", fact_built.stats.candidates);
    json.num("factorial_members_built", fact_built.stats.members_built);
    json.num("factorial_cross_estimates", fact_built.stats.cross_estimates);
    json.boolean("factorial_converged", fact_built.family.converged);
    json.num("factorial_build_seconds", factorial_seconds);
    json.num("sparse_grid_candidates", sparse_built.stats.candidates);
    json.num("sparse_grid_members_built", sparse_built.stats.members_built);
    json.num("sparse_grid_cross_estimates", sparse_built.stats.cross_estimates);
    json.boolean("sparse_grid_converged", sparse_built.family.converged);
    json.num("sparse_grid_build_seconds", sparse_seconds);
    json.num("mc_points", mc_points);
    json.num("mc_certified", mc_certified);
    json.num("mc_worst_error", mc_worst);
    json.num("mc_tol", mfam.tol);
    json.num("mc_batch_seconds", batch_seconds);
    json.num("intermod_sweep_points", static_cast<long>(lo_sweep.size()));
    json.num("intermod_max_rel_error", im_max_rel);
    json.num("intermod_tol", im_tol);
    json.num("intermod_full_seconds", im_full_seconds);
    json.num("intermod_rom_seconds", im_rom_seconds);
    json.boolean("scenarios_ok", inv.ok());
    if (!bench::write_json(json, json_path)) return 1;
    return inv.exit_code();
}
