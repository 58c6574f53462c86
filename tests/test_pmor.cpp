// Parametric ROM families: ParamSpace geometry, typed Options binding, the
// greedy FamilyBuilder, the lossless (f64) family artifact round-trip, and
// certified parametric serving (member path, fallback rejection path) of
// in-memory families hosted as f64 artifacts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "pmor/family_builder.hpp"
#include "pmor/param_space.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"
#include "rom/family_codec.hpp"
#include "rom/serve_engine.hpp"
#include "test_serve_helpers.hpp"
#include "util/check.hpp"

namespace atmor {
namespace {

using la::Complex;
using pmor::Point;

pmor::ParamSpace two_axis_space() {
    return pmor::ParamSpace({{"alpha", 20.0, 60.0, pmor::Scale::linear},
                             {"freq", 0.1, 10.0, pmor::Scale::log}});
}

/// NLTL current-source family over the diode nonlinearity (the knob that
/// shifts both G1 -- linearised diode conductance -- and the lifted
/// quadratic G2 rows). Small line so per-member builds stay in the
/// millisecond range.
pmor::FamilyDesign nltl_design(int stages = 8) {
    circuits::NltlOptions base;
    base.stages = stages;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 20.0, 60.0);
    return pmor::make_design("nltl_current", binder, [](const circuits::NltlOptions& o) {
        return circuits::current_source_line(o).to_qldae();
    });
}

mor::AdaptiveOptions fast_adaptive(double tol = 2e-3) {
    mor::AdaptiveOptions a;
    a.tol = tol;
    a.omega_min = 0.25;
    a.omega_max = 2.0;
    a.band_grid = 7;
    a.max_points = 2;
    a.point_order = rom::PointOrder{3, 1, 0};
    a.trim_orders = false;  // keep member builds fast and deterministic
    return a;
}

// ---------------------------------------------------------------------------
// ParamSpace geometry.
// ---------------------------------------------------------------------------

TEST(ParamSpace, NormalizeRoundTripsLinearAndLog) {
    const pmor::ParamSpace space = two_axis_space();
    const Point p{35.0, 1.0};
    const std::vector<double> unit = space.normalize(p);
    EXPECT_NEAR(unit[0], (35.0 - 20.0) / 40.0, 1e-15);
    EXPECT_NEAR(unit[1], std::log(1.0 / 0.1) / std::log(10.0 / 0.1), 1e-15);
    const Point back = space.denormalize(unit);
    EXPECT_NEAR(back[0], p[0], 1e-12);
    EXPECT_NEAR(back[1], p[1], 1e-12);
    // The box center takes the geometric mean on the log axis.
    const Point c = space.center();
    EXPECT_NEAR(c[0], 40.0, 1e-12);
    EXPECT_NEAR(c[1], 1.0, 1e-12);
}

TEST(ParamSpace, DistanceIsNormalizedAndBounded) {
    const pmor::ParamSpace space = two_axis_space();
    const Point lo{20.0, 0.1};
    const Point hi{60.0, 10.0};
    // Opposite corners sit at distance 1 in the sqrt(d)-scaled metric.
    EXPECT_NEAR(space.distance(lo, hi), 1.0, 1e-12);
    EXPECT_EQ(space.distance(lo, lo), 0.0);
}

TEST(ParamSpace, GridAndOffsetGridNeverCoincide) {
    const pmor::ParamSpace space = two_axis_space();
    const std::vector<Point> train = space.grid(3);
    const std::vector<Point> held_out = space.offset_grid(2);
    EXPECT_EQ(train.size(), 9u);
    EXPECT_EQ(held_out.size(), 4u);
    for (const Point& h : held_out) {
        EXPECT_TRUE(space.contains(h));
        for (const Point& t : train) EXPECT_GT(space.distance(h, t), 1e-6);
    }
    // Deterministic ordering: last axis fastest, endpoints included.
    EXPECT_NEAR(train.front()[0], 20.0, 1e-12);
    EXPECT_NEAR(train.front()[1], 0.1, 1e-12);
    EXPECT_NEAR(train.back()[0], 60.0, 1e-12);
    EXPECT_NEAR(train.back()[1], 10.0, 1e-12);
}

TEST(ParamSpace, NormalizeIsFiniteOnLogAxesWithTinyMin) {
    // contains() admits points down to min - slack; with a tiny log-axis min
    // the slack (relative to max) reaches below zero, and to_unit must not
    // feed a value <= 0 into std::log. NaN unit coordinates would silently
    // poison nearest-cell selection in parametric serving.
    const pmor::ParamSpace space({{"leak", 1e-300, 1.0, pmor::Scale::log}});
    for (const double v : {0.0, -5e-13, 1e-300, 1.0}) {
        const Point p{v};
        ASSERT_TRUE(space.contains(p)) << "v=" << v;
        const std::vector<double> unit = space.normalize(p);
        EXPECT_TRUE(std::isfinite(unit[0])) << "v=" << v << " unit=" << unit[0];
        EXPECT_GE(unit[0], 0.0);
        EXPECT_LE(unit[0], 1.0);
    }
    // Same guard on linear axes: slack-admitted points clamp to the box.
    const pmor::ParamSpace lin({{"r", 0.0, 1.0, pmor::Scale::linear}});
    const std::vector<double> u = lin.normalize({-5e-13});
    EXPECT_GE(u[0], 0.0);
    // distance() between slack-admitted and in-box points stays finite.
    EXPECT_TRUE(std::isfinite(space.distance({0.0}, {1.0})));
}

TEST(ParamSpace, SingleSampleOffsetGridIsDistinctFromGrid) {
    // A 1-sample "held-out" grid must not certify against the 1-sample
    // training grid: both collapsing to the box center makes hold-out
    // validation vacuous. The offset point must also avoid grid(2)'s nodes
    // (the documented resolution <= per_dim + 1 guarantee).
    const pmor::ParamSpace space = two_axis_space();
    const std::vector<Point> train = space.grid(1);
    const std::vector<Point> held_out = space.offset_grid(1);
    ASSERT_EQ(train.size(), 1u);
    ASSERT_EQ(held_out.size(), 1u);
    EXPECT_TRUE(space.contains(held_out[0]));
    EXPECT_GT(space.distance(held_out[0], train[0]), 1e-6);
    for (const Point& t : space.grid(2))
        EXPECT_GT(space.distance(held_out[0], t), 1e-6);
}

TEST(ParamSpace, KeysAreStableAndFaithful) {
    const pmor::ParamSpace space = two_axis_space();
    EXPECT_EQ(space.key({35.0, 1.0}), "alpha=35,freq=1");
    EXPECT_NE(space.key({35.0, 1.0}), space.key({35.000001, 1.0}));
}

TEST(ParamSpace, InvalidDescriptorsAreTypedErrors) {
    EXPECT_THROW(pmor::ParamSpace({{"", 0.0, 1.0, pmor::Scale::linear}}),
                 util::PreconditionError);
    EXPECT_THROW(pmor::ParamSpace({{"x", 2.0, 1.0, pmor::Scale::linear}}),
                 util::PreconditionError);
    EXPECT_THROW(pmor::ParamSpace({{"x", 0.0, 1.0, pmor::Scale::log}}),
                 util::PreconditionError);
    const pmor::ParamSpace space = two_axis_space();
    EXPECT_FALSE(space.contains({35.0}));        // wrong arity
    EXPECT_FALSE(space.contains({19.0, 1.0}));   // outside the box
    EXPECT_THROW(space.normalize({19.0, 1.0}), util::PreconditionError);
}

TEST(ParamSpace, TypedBinderAppliesDoubleAndIntFields) {
    circuits::NltlOptions base;
    base.stages = 8;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 20.0, 60.0)
        .param("stages", &circuits::NltlOptions::stages, 4, 16);
    const circuits::NltlOptions at = binder.at({30.0, 11.7});
    EXPECT_EQ(at.diode_alpha, 30.0);
    EXPECT_EQ(at.stages, 12);  // int axes round to nearest
    EXPECT_EQ(at.resistance, base.resistance);
    EXPECT_THROW((void)binder.at({30.0}), util::PreconditionError);
}

// ---------------------------------------------------------------------------
// FamilyBuilder.
// ---------------------------------------------------------------------------

TEST(FamilyBuilder, ZeroAxisSpaceIsATypedError) {
    pmor::FamilyDesign design;
    design.family_id = "empty";
    design.build_system = [](const Point&) {
        return circuits::current_source_line({}).to_qldae();
    };
    design.system_key = [](const Point&) { return std::string("k"); };
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = 1e-2;
    EXPECT_THROW(pmor::FamilyBuilder(design, opt), util::PreconditionError);
}

TEST(FamilyBuilder, CoversTheTrainingGridWithinBudget) {
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = 1e-2;
    opt.training_grid_per_dim = 5;
    opt.max_members = 5;  // one per training point at worst: convergence guaranteed
    const pmor::FamilyBuildResult result = pmor::FamilyBuilder(nltl_design(), opt).build();
    const rom::Family& fam = result.family;

    EXPECT_TRUE(fam.converged);
    EXPECT_LE(fam.max_training_error, opt.tol);
    EXPECT_EQ(fam.cells.size(), 5u);
    EXPECT_GE(fam.members.size(), 1u);
    EXPECT_LE(static_cast<int>(fam.members.size()), opt.max_members);
    for (const rom::CoverageCell& cell : fam.cells) {
        ASSERT_GE(cell.best, 0);
        EXPECT_LE(cell.best_error, opt.tol);
    }
    for (const rom::FamilyMember& m : fam.members) {
        EXPECT_EQ(m.model.provenance.method, "adaptive");
        EXPECT_LE(m.certified_error, opt.tol);
    }
    // The greedy history never worsens: each inserted member only lowers
    // per-candidate minima.
    for (std::size_t i = 1; i < result.error_history.size(); ++i)
        EXPECT_LE(result.error_history[i], result.error_history[i - 1] + 1e-15);
    EXPECT_EQ(result.stats.candidates, 5);
    EXPECT_EQ(result.stats.members_built, static_cast<int>(fam.members.size()));

    // Bounding estimator residency (evict + rebuild every column) changes
    // memory, never results: the family is identical under the tightest
    // possible bound.
    pmor::FamilyBuildOptions bounded = opt;
    bounded.max_resident_estimators = 1;
    const rom::Family refam = pmor::FamilyBuilder(nltl_design(), bounded).build().family;
    ASSERT_EQ(refam.members.size(), fam.members.size());
    EXPECT_EQ(refam.max_training_error, fam.max_training_error);
    for (std::size_t c = 0; c < fam.cells.size(); ++c) {
        EXPECT_EQ(refam.cells[c].best, fam.cells[c].best);
        EXPECT_EQ(refam.cells[c].best_error, fam.cells[c].best_error);
    }
}

TEST(FamilyBuilder, MemberKeyIsStableAndAccuracyTagged) {
    const pmor::FamilyDesign design = nltl_design();
    const mor::AdaptiveOptions a = fast_adaptive();
    const std::string k = pmor::member_key(design, a, {40.0});
    EXPECT_NE(k.find("nltl_current:"), std::string::npos);
    EXPECT_NE(k.find("alpha=40"), std::string::npos);  // NltlOptions::key at the point
    EXPECT_NE(k.find("adaptive(tol="), std::string::npos);
    mor::AdaptiveOptions tighter = a;
    tighter.tol = a.tol / 10.0;
    EXPECT_NE(pmor::member_key(design, tighter, {40.0}), k);
}

// ---------------------------------------------------------------------------
// Family artifact round-trip (lossless f64 tier).
// ---------------------------------------------------------------------------

rom::Family build_small_family(double tol = 1e-2) {
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = tol;
    opt.training_grid_per_dim = 3;
    opt.max_members = 3;
    return pmor::FamilyBuilder(nltl_design(), opt).build().family;
}

std::string save_f64(const rom::Family& fam, const std::string& name) {
    const std::string path = (std::filesystem::temp_directory_path() / name).string();
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::f64;
    rom::save_family_artifact(rom::compress_family(fam, copt), path);
    return path;
}

TEST(FamilyIo, F64ArtifactRoundTripIsExact) {
    const rom::Family fam = build_small_family();
    const std::string path = save_f64(fam, "atmor_family.atmor-fam");
    const rom::FamilyArtifact loaded = rom::FamilyArtifact::open(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.family_id(), fam.family_id);
    EXPECT_EQ(loaded.tol(), fam.tol);
    EXPECT_EQ(loaded.training_grid_per_dim(), fam.training_grid_per_dim);
    EXPECT_EQ(loaded.max_training_error(), fam.max_training_error);
    EXPECT_EQ(loaded.converged(), fam.converged);
    ASSERT_EQ(loaded.space().dims(), fam.space.dims());
    for (int d = 0; d < fam.space.dims(); ++d) {
        EXPECT_EQ(loaded.space().descriptor(d).name, fam.space.descriptor(d).name);
        EXPECT_EQ(loaded.space().descriptor(d).min, fam.space.descriptor(d).min);
        EXPECT_EQ(loaded.space().descriptor(d).max, fam.space.descriptor(d).max);
        EXPECT_EQ(loaded.space().descriptor(d).scale, fam.space.descriptor(d).scale);
    }
    ASSERT_EQ(loaded.member_count(), static_cast<int>(fam.members.size()));
    for (std::size_t m = 0; m < fam.members.size(); ++m) {
        const auto member = loaded.member(static_cast<int>(m));
        EXPECT_EQ(member->coords, fam.members[m].coords);
        EXPECT_EQ(member->certified_error, fam.members[m].certified_error);
        EXPECT_EQ(member->coverage_radius, fam.members[m].coverage_radius);
        EXPECT_EQ(member->model.order, fam.members[m].model.order);
        // The reduced system round-trips bit-exact at the f64 tier.
        EXPECT_EQ(la::max_abs(member->model.rom.g1() - fam.members[m].model.rom.g1()), 0.0);
        EXPECT_EQ(la::max_abs(member->model.rom.b() - fam.members[m].model.rom.b()), 0.0);
        EXPECT_EQ(la::max_abs(member->model.rom.c() - fam.members[m].model.rom.c()), 0.0);
    }
    ASSERT_EQ(loaded.cells().size(), fam.cells.size());
    for (std::size_t c = 0; c < fam.cells.size(); ++c) {
        EXPECT_EQ(loaded.cells()[c].coords, fam.cells[c].coords);
        EXPECT_EQ(loaded.cells()[c].best, fam.cells[c].best);
        EXPECT_EQ(loaded.cells()[c].best_error, fam.cells[c].best_error);
    }
}

TEST(FamilyIo, KindTagsKeepModelAndFamilyArtifactsApart) {
    const rom::Family fam = build_small_family();
    const std::string family_path = save_f64(fam, "atmor_family_kind.atmor-fam");
    std::string family_bytes;
    {
        std::ifstream in(family_path, std::ios::binary);
        family_bytes.assign(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
    }
    std::remove(family_path.c_str());
    // A family artifact fed to the model loader is a typed corrupt error,
    // not a misparse.
    try {
        (void)rom::deserialize_model(family_bytes);
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt);
    }
    // And vice versa.
    const std::string model_path =
        (std::filesystem::temp_directory_path() / "atmor_family_kind.atmor-rom").string();
    rom::save_model(fam.members.front().model, model_path);
    try {
        (void)rom::FamilyArtifact::open(model_path);
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt);
    }
    std::remove(model_path.c_str());
}

// ---------------------------------------------------------------------------
// Parametric serving.
// ---------------------------------------------------------------------------

TEST(ServeParametric, CertifiedMemberPathServesWithCellCertificate) {
    const rom::Family fam = build_small_family();
    ASSERT_TRUE(fam.converged);
    auto engine = rom::ServeEngine(std::make_shared<rom::Registry>());
    (void)test::host(engine, fam);
    std::vector<Complex> grid;
    for (int g = 1; g <= 8; ++g) grid.emplace_back(0.0, 0.25 * g);

    const Point query{fam.cells[1].coords};  // exactly on a training cell
    const rom::ServeResponse ans = test::parametric(engine, fam.family_id, query, grid);
    ASSERT_TRUE(ans.ok()) << ans.error.message;
    EXPECT_FALSE(ans.fallback);
    EXPECT_EQ(ans.member, fam.cells[1].best);
    EXPECT_EQ(ans.response.size(), grid.size());
    EXPECT_LE(ans.certificate.estimated_error, fam.tol);
    EXPECT_EQ(ans.certificate.estimated_error, fam.cells[1].best_error);
    EXPECT_EQ(ans.certificate.tol, fam.tol);
    EXPECT_EQ(ans.certificate.method, "adaptive");

    const rom::ServeStats stats = engine.stats();
    EXPECT_EQ(stats.parametric_queries, 1);
    EXPECT_EQ(stats.parametric_fallbacks, 0);
}

TEST(ServeParametric, F64ArtifactAnswersBitIdenticallyToTheInMemoryMembers) {
    // What lets in-memory families be served as f64 artifacts: every served
    // answer IS the original in-memory member ROM's output H1 sweep, to the
    // bit, and its certificate is the in-memory coverage cell's.
    const rom::Family fam = build_small_family();
    rom::ServeEngine engine(std::make_shared<rom::Registry>());
    const rom::FamilyArtifact art = test::host(engine, fam);
    const std::vector<Complex> grid{Complex(0.0, 0.5), Complex(0.0, 1.0), Complex(0.0, 1.5)};
    std::vector<Point> queries = fam.space.offset_grid(3);
    queries.push_back(fam.space.center());
    for (const Point& q : queries) {
        const rom::ServeResponse ans = test::parametric(engine, fam.family_id, q, grid);
        ASSERT_TRUE(ans.ok()) << ans.error.message;
        ASSERT_FALSE(ans.fallback);
        const rom::FamilyMember& m = fam.members[static_cast<std::size_t>(ans.member)];
        const std::vector<la::ZMatrix> expected =
            volterra::TransferEvaluator(m.model.rom).output_h1_sweep(grid);
        ASSERT_EQ(ans.response.size(), expected.size());
        for (std::size_t g = 0; g < grid.size(); ++g) {
            ASSERT_EQ(ans.response[g].rows(), expected[g].rows());
            ASSERT_EQ(ans.response[g].cols(), expected[g].cols());
            for (int r = 0; r < expected[g].rows(); ++r)
                for (int c = 0; c < expected[g].cols(); ++c)
                    EXPECT_EQ(ans.response[g](r, c), expected[g](r, c));
        }
        const int cell = art.locate(q);
        ASSERT_GE(cell, 0);
        EXPECT_EQ(ans.member, fam.cells[static_cast<std::size_t>(cell)].best);
        EXPECT_EQ(ans.certificate.estimated_error,
                  fam.cells[static_cast<std::size_t>(cell)].best_error);
    }
}

TEST(ServeParametric, UncoveredQueryRoutesToFallbackBuildOnce) {
    // An impossible tolerance: no member can certify anything, so every
    // query is a rejection.
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive(1e-13);
    opt.tol = 1e-13;
    opt.training_grid_per_dim = 3;
    opt.max_members = 1;
    const rom::Family fam = pmor::FamilyBuilder(nltl_design(), opt).build().family;
    ASSERT_FALSE(fam.converged);

    auto registry = std::make_shared<rom::Registry>();
    rom::ServeEngine engine(registry);
    const rom::FamilyArtifact art = test::host(engine, fam);
    const std::vector<Complex> grid{Complex(0.0, 1.0)};
    const Point query{33.0};

    // Without a host fallback the rejection is a typed error.
    EXPECT_EQ(test::parametric(engine, fam.family_id, query, grid).error.code,
              util::ErrorCode::precondition);

    const pmor::FamilyDesign design = nltl_design();
    rom::ParametricOptions popt;
    popt.fallback_build = [&](const Point& p) {
        mor::AdaptiveResult r = mor::reduce_adaptive(design.build_system(p), fast_adaptive());
        return std::move(r.model);
    };
    engine.host_family(art, popt);
    const rom::ServeResponse ans = test::parametric(engine, fam.family_id, query, grid);
    ASSERT_TRUE(ans.ok()) << ans.error.message;
    EXPECT_TRUE(ans.fallback);
    EXPECT_EQ(ans.member, -1);
    // The fallback certificate is the freshly built model's own a-posteriori
    // estimate (the on-demand adaptive run converged to ITS tolerance).
    EXPECT_GT(ans.certificate.estimated_error, 0.0);
    EXPECT_LE(ans.certificate.estimated_error, fast_adaptive().tol);
    EXPECT_EQ(registry->stats().builds, 1);

    // The same uncovered point served again resolves from the registry.
    (void)test::parametric(engine, fam.family_id, query, grid);
    EXPECT_EQ(registry->stats().builds, 1);
    rom::ServeStats stats = engine.stats();
    EXPECT_EQ(stats.parametric_queries, 2);
    EXPECT_EQ(stats.parametric_fallbacks, 2);
    // Parametric traffic must NOT masquerade as keyed frequency sweeps.
    EXPECT_EQ(stats.frequency_queries, 0);

    // A DIFFERENT effective tolerance at the same point is a different
    // fallback key: the looser cached model must not be silently reused
    // (both tolerances here sit below anything a member certifies, so both
    // queries take the rejection path).
    (void)test::parametric(engine, fam.family_id, query, grid, /*tol=*/1e-5);
    EXPECT_EQ(registry->stats().builds, 2);

    // With an explicit fallback_key the host opts back into sharing (e.g.
    // pmor::member_key when the builder's accuracy is fixed).
    rom::ParametricOptions keyed = popt;
    keyed.fallback_key = [&](const Point& p) {
        return pmor::member_key(design, fast_adaptive(), p);
    };
    engine.host_family(art, keyed);
    (void)test::parametric(engine, fam.family_id, query, grid, /*tol=*/1e-5);
    const long builds_after_keyed = registry->stats().builds;
    // Different tol, same keyed builder accuracy: shared.
    (void)test::parametric(engine, fam.family_id, query, grid, /*tol=*/1e-6);
    EXPECT_EQ(registry->stats().builds, builds_after_keyed);
}

TEST(ServeParametric, BadInputsAreTypedErrors) {
    const rom::Family fam = build_small_family();
    auto engine = rom::ServeEngine(std::make_shared<rom::Registry>());
    (void)test::host(engine, fam);
    const auto code = [&](const std::string& id, Point coords, std::vector<Complex> grid) {
        return test::parametric(engine, id, std::move(coords), std::move(grid)).error.code;
    };
    // Empty frequency grid.
    EXPECT_EQ(code(fam.family_id, {40.0}, {}), util::ErrorCode::precondition);
    // Point outside the box / wrong arity.
    const std::vector<Complex> grid{Complex(0.0, 1.0)};
    EXPECT_EQ(code(fam.family_id, {19.0}, grid), util::ErrorCode::precondition);
    EXPECT_EQ(code(fam.family_id, {40.0, 1.0}, grid), util::ErrorCode::precondition);
    // A family that is neither hosted nor in the registry.
    EXPECT_EQ(code("no_such_family", {40.0}, grid), util::ErrorCode::serve_unresolved);
    // Families with no members, or whose coverage table references a
    // missing member, never become artifacts: compression rejects them
    // (and the reader rejects such a table on disk).
    rom::Family empty;
    empty.family_id = "empty";
    EXPECT_THROW((void)rom::compress_family(empty), util::PreconditionError);
    rom::Family bogus = fam;
    bogus.cells.front().best = static_cast<int>(bogus.members.size()) + 3;
    EXPECT_THROW((void)rom::compress_family(bogus), util::PreconditionError);
}

}  // namespace
}  // namespace atmor
