// Parametric ROM family bench: certified family serving vs per-instance
// cold builds over a 2-D NLTL design space (diode nonlinearity x series
// resistance -- the "users sweep design parameters" scenario the per-
// instance registry cannot scale to).
//
// Offline, pmor::FamilyBuilder greedily samples the box until every
// training-grid point is covered under the family tolerance. Online, the
// family is hosted as a lossless (f64) artifact and a HELD-OUT offset grid
// (never coincides with training points) queries it through
// rom::ServeEngine::serve. Invariants (nonzero exit on violation):
//   * every held-out query is either served by a member whose online
//     certificate is <= tol, or routed to the fallback on-demand build;
//   * warm family serving beats a per-instance cold build by >= 10x;
//   * the saved f64 artifact, reopened in a fresh engine, serves responses
//     bit-identical to the in-memory member's own sweep.
//
//   usage: bench_pmor_family [grid_per_dim] [--threads N] [--json-out=PATH]
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/nltl.hpp"
#include "pmor/family_builder.hpp"
#include "rom/family_codec.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"
#include "rom/serve_engine.hpp"
#include "util/timer.hpp"
#include "volterra/transfer.hpp"

int main(int argc, char** argv) {
    using namespace atmor;
    bench::init_threads(argc, argv);
    const std::string json_path = bench::json_out_arg(argc, argv, "BENCH_pmor_family.json");
    const int held_out_per_dim = bench::arg_int(argc, argv, 1, 3);

    std::printf("=== parametric ROM family: certified serving vs per-instance builds ===\n");

    // -- The design space: diode nonlinearity x series resistance. The band
    // H1 response moves ~2.5e-2 in relative error per unit of diode_alpha
    // (and ~3 per unit of resistance), so the family tolerance is sized to
    // that sensitivity: 10% certified accuracy over the box, with each
    // member's OWN band certified 50x tighter by its adaptive build.
    circuits::NltlOptions base;
    base.stages = 12;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 32.0, 48.0)
        .param("resistance", &circuits::NltlOptions::resistance, 0.98, 1.06);
    const pmor::FamilyDesign design =
        pmor::make_design("nltl_current", binder, [](const circuits::NltlOptions& o) {
            return circuits::current_source_line(o).to_qldae();
        });

    pmor::FamilyBuildOptions fopt;
    fopt.tol = 1e-1;
    fopt.max_members = 8;
    fopt.training_grid_per_dim = 4;
    fopt.adaptive.tol = 2e-3;
    fopt.adaptive.omega_min = 0.25;
    fopt.adaptive.omega_max = 2.0;
    fopt.adaptive.band_grid = 9;
    fopt.adaptive.max_points = 3;
    fopt.adaptive.point_order = rom::PointOrder{4, 2, 0};
    std::printf("space: %d axes, training grid %d^%d, family tol %g, member budget %d\n",
                design.space.dims(), fopt.training_grid_per_dim, design.space.dims(), fopt.tol,
                fopt.max_members);

    // -- Offline: greedy family build. --------------------------------------
    util::Timer family_timer;
    const pmor::FamilyBuildResult built = pmor::FamilyBuilder(design, fopt).build();
    const double family_build_seconds = family_timer.seconds();
    const rom::Family& family = built.family;
    std::printf("family: %zu members over %d training points in %.2f s "
                "(max training error %.2e, converged: %s, %ld cross estimates)\n",
                family.members.size(), built.stats.candidates, family_build_seconds,
                family.max_training_error, family.converged ? "yes" : "no",
                built.stats.cross_estimates);
    for (std::size_t m = 0; m < family.members.size(); ++m)
        std::printf("  member %zu at [%s]: order %d, certified %.2e, radius %.2f\n", m,
                    family.space.key(family.members[m].coords).c_str(),
                    family.members[m].model.order, family.members[m].certified_error,
                    family.members[m].coverage_radius);

    // -- Online: held-out offset grid through the serve engine. -------------
    auto registry = std::make_shared<rom::Registry>();
    rom::ServeEngine engine(registry);
    std::vector<la::Complex> grid;
    for (int g = 1; g <= 24; ++g) grid.emplace_back(0.0, 2.0 * g / 24.0);

    rom::ParametricOptions popt;
    popt.fallback_build = [&](const pmor::Point& p) {
        mor::AdaptiveResult r = mor::reduce_adaptive(design.build_system(p), fopt.adaptive);
        r.model.provenance.source = pmor::member_key(design, fopt.adaptive, p);
        return std::move(r.model);
    };
    // The builder's accuracy is fixed (fopt.adaptive), so on-demand builds
    // share member_key-tagged artifacts across query tolerances.
    popt.fallback_key = [&](const pmor::Point& p) {
        return pmor::member_key(design, fopt.adaptive, p);
    };
    (void)bench::host_family(engine, family, popt);

    const std::vector<pmor::Point> held_out = design.space.offset_grid(held_out_per_dim);
    bench::InvariantChecker inv;
    int certified = 0;
    int fallbacks = 0;
    for (const pmor::Point& q : held_out) {
        const rom::ServeResponse ans = bench::serve_point(engine, family.family_id, q, grid);
        inv.require(ans.ok(), "held-out query [" + family.space.key(q) + "] is answered");
        if (ans.fallback) {
            ++fallbacks;
        } else {
            ++certified;
            inv.require(ans.certificate.estimated_error <= fopt.tol,
                        "member-served held-out query [" + family.space.key(q) +
                            "] carries a certificate <= tol");
        }
    }
    std::printf("\nheld-out grid (%zu queries, never on training points): %d certified by a "
                "member, %d routed to fallback builds\n",
                held_out.size(), certified, fallbacks);
    inv.require(certified + fallbacks == static_cast<int>(held_out.size()),
                "every held-out query is answered (certified member or fallback)");
    inv.require(certified > 0, "the family certifies at least one held-out query");

    // The rejection path, exercised deliberately: demanding the MEMBER
    // accuracy (50x tighter than the family tol) at the WORST-certified
    // training cell is beyond its cross-point certificate, so the engine
    // must fall back to a fresh on-demand build -- and that build's own
    // certificate must meet the demand.
    const double tight = fopt.adaptive.tol;
    std::size_t worst_cell = 0;
    for (std::size_t c = 1; c < family.cells.size(); ++c)
        if (family.cells[c].best_error > family.cells[worst_cell].best_error) worst_cell = c;
    const rom::ServeResponse strict = bench::serve_point(
        engine, family.family_id, family.cells[worst_cell].coords, grid, tight);
    inv.require(strict.fallback, "a tighter-than-family tolerance routes to fallback");
    inv.require(strict.certificate.estimated_error <= tight,
                "the fallback build certifies the tightened tolerance");
    std::printf("tightened query (tol %g): %s, certificate %.2e\n", tight,
                strict.fallback ? "fallback build" : "member", strict.certificate.estimated_error);

    // -- Latency: warm family serve vs per-instance cold build. -------------
    const pmor::Point probe = held_out.front();
    (void)bench::serve_point(engine, family.family_id, probe, grid);  // warm the caches
    const double serve_seconds = bench::median_timed(
        [&] { (void)bench::serve_point(engine, family.family_id, probe, grid); });
    const double cold_build_seconds =
        bench::median_timed([&] { (void)popt.fallback_build(probe); }, 3);
    const double speedup = cold_build_seconds / serve_seconds;
    std::printf("warm family serve (24-point sweep + certificate): %.3e s\n", serve_seconds);
    std::printf("per-instance cold build at the same point:        %.3e s (%.0fx)\n",
                cold_build_seconds, speedup);
    inv.require(speedup >= 10.0, "family serving beats per-instance cold builds by >= 10x");

    // -- Artifact round-trip: the saved f64 artifact, reopened, serves the
    // in-memory member's own sweep bit for bit. ----------------------------
    const std::string artifact = "family_sample.atmor-fam";
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::f64;
    rom::save_family_artifact(rom::compress_family(family, copt), artifact);
    const std::size_t artifact_bytes =
        static_cast<std::size_t>(std::filesystem::file_size(artifact));
    util::Timer load_timer;
    const rom::FamilyArtifact loaded = rom::FamilyArtifact::open(artifact);
    const double cold_load_seconds = load_timer.seconds();
    const std::size_t resident_after_load = loaded.resident_bytes();
    bool roundtrip_ok = loaded.member_count() == static_cast<int>(family.members.size()) &&
                        loaded.cells().size() == family.cells.size();
    if (roundtrip_ok) {
        rom::ServeEngine loaded_engine(std::make_shared<rom::Registry>());
        loaded_engine.host_family(loaded, popt);
        const rom::ServeResponse b =
            bench::serve_point(loaded_engine, family.family_id, probe, grid);
        roundtrip_ok = b.ok() && !b.fallback && b.response.size() == grid.size();
        if (roundtrip_ok) {
            const std::vector<la::ZMatrix> a =
                volterra::TransferEvaluator(
                    family.members[static_cast<std::size_t>(b.member)].model.rom)
                    .output_h1_sweep(grid);
            for (std::size_t g = 0; roundtrip_ok && g < grid.size(); ++g)
                roundtrip_ok = la::max_abs(a[g] - b.response[g]) == 0.0;
        }
    }
    inv.require(roundtrip_ok, "the f64 family artifact serves bit-identically to its members");
    std::printf("family artifact: %s, %zu bytes (%s)\n", artifact.c_str(), artifact_bytes,
                roundtrip_ok ? "round-trip bit-exact" : "ROUND-TRIP MISMATCH");

    const rom::ServeStats stats = engine.stats();
    std::printf("engine: %ld parametric queries, %ld fallbacks, registry builds %ld\n",
                stats.parametric_queries, stats.parametric_fallbacks, stats.registry.builds);

    bench::Json json;
    json.str("bench", "pmor_family");
    json.str("family", family.family_id);
    json.num("space_dims", family.space.dims());
    json.num("training_points", built.stats.candidates);
    json.num("members", static_cast<long>(family.members.size()));
    json.num("max_training_error", family.max_training_error);
    json.num("tol", fopt.tol);
    json.boolean("family_converged", family.converged);
    json.num("family_build_seconds", family_build_seconds);
    json.num("held_out_queries", static_cast<long>(held_out.size()));
    json.num("held_out_certified", certified);
    json.num("held_out_fallbacks", fallbacks);
    json.num("family_serve_seconds", serve_seconds);
    json.num("cold_build_seconds", cold_build_seconds);
    json.num("cold_over_serve_ratio", speedup);
    json.num("artifact_bytes", static_cast<long>(artifact_bytes));
    json.num("resident_bytes_after_load", static_cast<long>(resident_after_load));
    json.num("cold_load_seconds", cold_load_seconds);
    json.boolean("family_coverage_ok", inv.ok());
    json.boolean("roundtrip_ok", roundtrip_ok);
    if (!bench::write_json(json, json_path)) return 1;
    return inv.exit_code();
}
