// Scenario scale-out suite: the power-grid and mixer circuit families, the
// multi-tone / AM excitations and the two-tone intermodulation predictor,
// sparse-grid and Monte-Carlo parameter sampling, and batched parametric
// serving.
//
// The structural claims (stamps, symmetry, sampling geometry) are pinned
// directly; the numerical claims ride the same cross-checks the rest of the
// suite uses -- backend conformance at 1e-8, thread bit-identity through
// reduce_adaptive, steady-state harmonic fits against the Volterra
// predictions, and batch-vs-loop identity for the serving layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "circuits/mixer.hpp"
#include "circuits/power_grid.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "la/solver_backend.hpp"
#include "mor/adaptive.hpp"
#include "pmor/family_builder.hpp"
#include "pmor/param_space.hpp"
#include "rom/registry.hpp"
#include "rom/serve_engine.hpp"
#include "test_helpers.hpp"
#include "test_serve_helpers.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "volterra/transfer.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::Vec;
using la::ZMatrix;
using pmor::Point;
using volterra::Qldae;
using volterra::TransferEvaluator;

// ---------------------------------------------------------------------------
// Circuit structure.
// ---------------------------------------------------------------------------

TEST(Scenarios, PowerGridLiftsToSparseQldae) {
    circuits::PowerGridOptions opt;
    opt.rows = 6;
    opt.cols = 7;
    opt.clamps = 3;
    EXPECT_EQ(circuits::power_grid_nodes(opt), 42);
    const circuits::ExpNodalSystem sys = circuits::power_grid(opt);
    const Qldae q = sys.to_qldae();
    // Lifting adds one auxiliary state per clamp diode.
    EXPECT_EQ(q.order(), 42 + 3);
    EXPECT_EQ(q.inputs(), 1);
    EXPECT_EQ(q.outputs(), 1);
    // The mesh conductance is a 5-point stencil: the lifted G1 must stay
    // sparse-first so SparseLu, under the minimum-degree order a mesh takes,
    // is the backend the family serves on.
    EXPECT_TRUE(q.g1_op().is_sparse());
    EXPECT_TRUE(q.has_quadratic());  // clamp lifting stamps G2 rows

    // Invalid meshes are typed errors, not silent degenerate systems.
    circuits::PowerGridOptions bad = opt;
    bad.rows = 1;
    EXPECT_THROW((void)circuits::power_grid(bad), util::PreconditionError);
    bad = opt;
    bad.clamps = 100;
    EXPECT_THROW((void)circuits::power_grid(bad), util::PreconditionError);
    bad = opt;
    bad.pitch_resistance = 0.0;
    EXPECT_THROW((void)circuits::power_grid(bad), util::PreconditionError);
}

TEST(Scenarios, PowerGridLargeMeshReducesSparseFirst) {
    // The large-sparse regime at sanitizer-friendly scale: 40x40 = 1600
    // nodes by default, scaled up by ATMOR_LARGE_MESH (the ASan and TSan CI
    // jobs run 72 -> 5184 nodes, the bench_scenarios regime) so the sparse
    // stamping, the minimum-degree-ordered LU with its concurrent band
    // factorizations, and the k1-only Krylov path get lifetime, UB and race
    // coverage at real mesh sizes. Light pitch RC keeps the far-corner
    // observation above the noise floor at any of these sizes (the band
    // response decays like e^{-L sqrt(omega R C)} across L pitches).
    int side = 40;
    if (const char* env = std::getenv("ATMOR_LARGE_MESH")) side = std::atoi(env);
    circuits::PowerGridOptions opt;
    opt.rows = side;
    opt.cols = side;
    opt.clamps = 8;
    opt.pitch_resistance = 0.02;
    opt.decap = 0.2;
    opt.load_conductance = 0.02;
    const Qldae full = circuits::power_grid(opt).to_qldae();
    ASSERT_EQ(full.order(), side * side + 8);
    ASSERT_TRUE(full.g1_op().is_sparse());

    mor::AdaptiveOptions a;
    a.tol = 1e-2;
    a.omega_min = 0.25;
    a.omega_max = 2.0;
    a.band_grid = 5;
    a.max_points = 3;
    // k1-only subspaces: second-order moment work scales with n^2 and the
    // mesh axis exists to stress the sparse LINEAR stack.
    a.point_order = rom::PointOrder{8, 0, 0};
    a.trim_orders = false;
    const mor::AdaptiveResult r = mor::reduce_adaptive(full, a);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.model.order, full.order() / 10);
}

TEST(Scenarios, PowerGridKeyIsStable) {
    circuits::PowerGridOptions a;
    circuits::PowerGridOptions b;
    EXPECT_EQ(a.key(), b.key());
    b.clamp_alpha = 9.0;
    EXPECT_NE(a.key(), b.key());
}

TEST(Scenarios, MixerMixingProductIsACrossStateQuadratic) {
    circuits::MixerOptions opt;
    opt.rf_sections = 3;
    opt.lo_sections = 2;
    opt.if_sections = 2;
    EXPECT_EQ(circuits::mixer_order(opt), 7);
    const Qldae q = circuits::mixer(opt);
    EXPECT_EQ(q.order(), 7);
    EXPECT_EQ(q.inputs(), 2);
    EXPECT_EQ(q.outputs(), 1);
    ASSERT_TRUE(q.has_quadratic());

    // The mixing product H2(s1, s2) across the (RF, LO) input pair is the
    // point of the circuit; with gm2 = 0 it vanishes identically.
    const TransferEvaluator te(q);
    const Complex sa(0.0, 1.1), sb(0.0, 0.7);
    const int pair_rf_lo = 0 * 2 + 1;
    EXPECT_GT(std::abs(te.output_h2(sa, sb)(0, pair_rf_lo)), 1e-6);

    circuits::MixerOptions linear = opt;
    linear.gm2 = 0.0;
    const TransferEvaluator te_lin(circuits::mixer(linear));
    EXPECT_LT(std::abs(te_lin.output_h2(sa, sb)(0, pair_rf_lo)), 1e-14);

    circuits::MixerOptions bad = opt;
    bad.rf_sections = 1;
    EXPECT_THROW((void)circuits::mixer(bad), util::PreconditionError);
}

// ---------------------------------------------------------------------------
// Cross-backend conformance and thread determinism for the new stampers.
// ---------------------------------------------------------------------------

double rel_diff(const ZMatrix& a, const ZMatrix& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double num = 0.0;
    double den = 0.0;
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) {
            num += std::norm(a(i, j) - b(i, j));
            den += std::norm(a(i, j));
        }
    return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

std::vector<Qldae> scenario_zoo() {
    std::vector<Qldae> zoo;
    circuits::PowerGridOptions pg;
    pg.rows = 5;
    pg.cols = 5;
    pg.clamps = 2;
    zoo.push_back(circuits::power_grid(pg).to_qldae());
    circuits::MixerOptions mx;
    mx.rf_sections = 2;
    mx.lo_sections = 2;
    mx.if_sections = 2;
    zoo.push_back(circuits::mixer(mx));
    return zoo;
}

TEST(Scenarios, NewStampersConformAcrossBackends) {
    const std::vector<Complex> probes{Complex(0.0, 0.4), Complex(0.0, 1.3),
                                      Complex(0.8, 0.6)};
    for (const Qldae& sys : scenario_zoo()) {
        const TransferEvaluator reference(sys, std::make_shared<la::DenseLuBackend>(16));
        for (const auto& other_backend :
             std::vector<std::shared_ptr<la::SolverBackend>>{
                 std::make_shared<la::SparseLuBackend>(16),
                 std::make_shared<la::SchurBackend>(16)}) {
            const TransferEvaluator other(sys, other_backend);
            for (const Complex s : probes) {
                EXPECT_LT(rel_diff(reference.output_h1(s), other.output_h1(s)), 1e-8)
                    << other_backend->name() << " H1 diverges (n = " << sys.order() << ")";
                EXPECT_LT(rel_diff(reference.output_h2(s, s), other.output_h2(s, s)), 1e-8)
                    << other_backend->name() << " H2 diverges (n = " << sys.order() << ")";
            }
            EXPECT_LT(rel_diff(reference.output_h2(probes[0], probes[2]),
                               other.output_h2(probes[0], probes[2])),
                      1e-8)
                << other_backend->name() << " mixed H2 diverges (n = " << sys.order() << ")";
        }
    }
}

class ScenarioThreadSweep : public ::testing::Test {
protected:
    void TearDown() override {
        util::ThreadPool::set_global_threads(util::ThreadPool::default_thread_count());
    }
};

TEST_F(ScenarioThreadSweep, AdaptiveReductionOfNewFamiliesIsBitIdenticalAcrossThreads) {
    mor::AdaptiveOptions opt;
    opt.tol = 1e-2;
    opt.omega_min = 0.25;
    opt.omega_max = 2.0;
    opt.band_grid = 7;
    opt.max_points = 3;
    opt.point_order = rom::PointOrder{3, 1, 0};

    for (const Qldae& sys : scenario_zoo()) {
        util::ThreadPool::set_global_threads(1);
        const mor::AdaptiveResult serial = core::reduce_adaptive(sys, opt);
        for (const int threads : {2, 8}) {
            util::ThreadPool::set_global_threads(threads);
            const mor::AdaptiveResult parallel = core::reduce_adaptive(sys, opt);
            ASSERT_EQ(serial.refinements, parallel.refinements) << "n = " << sys.order();
            ASSERT_EQ(serial.error_history.size(), parallel.error_history.size());
            for (std::size_t i = 0; i < serial.error_history.size(); ++i)
                ASSERT_EQ(serial.error_history[i], parallel.error_history[i])
                    << "n = " << sys.order() << " threads = " << threads << " step " << i;
            const Matrix& g1a = serial.model.rom.g1();
            const Matrix& g1b = parallel.model.rom.g1();
            for (int i = 0; i < g1a.rows(); ++i)
                for (int j = 0; j < g1a.cols(); ++j)
                    ASSERT_EQ(g1a(i, j), g1b(i, j))
                        << "reduced G1 differs at " << threads << " threads";
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-tone / AM excitations.
// ---------------------------------------------------------------------------

TEST(Scenarios, WaveformSpecsMatchTheCircuitFactories) {
    const std::vector<double> amps{0.3, 0.2, 0.05};
    const std::vector<double> freqs{1.5, 2.25, 0.4};
    const std::vector<double> phases{0.1, -0.4, 2.0};
    const ode::InputFn factory = circuits::multi_tone_input(amps, freqs, phases);
    const ode::InputFn spec =
        rom::WaveformSpec::multi_tone(amps, freqs, phases).instantiate();
    const ode::InputFn am_factory = circuits::am_input(0.5, 3.0, 0.25, 0.8);
    const ode::InputFn am_spec = rom::WaveformSpec::am(0.5, 3.0, 0.25, 0.8).instantiate();
    for (double t = 0.0; t < 2.0; t += 0.17) {
        EXPECT_EQ(factory(t)[0], spec(t)[0]) << "multi_tone diverges at t = " << t;
        EXPECT_EQ(am_factory(t)[0], am_spec(t)[0]) << "am diverges at t = " << t;
    }
    // Default phases are zero.
    const ode::InputFn no_phase = circuits::multi_tone_input({0.3}, {1.5});
    EXPECT_EQ(no_phase(0.0)[0], 0.0);
    EXPECT_NEAR(no_phase(1.0 / 6.0)[0], 0.3 * std::sin(M_PI / 2.0), 1e-15);

    // Invalid shapes are typed errors at construction.
    EXPECT_THROW((void)circuits::multi_tone_input({}, {}), util::PreconditionError);
    EXPECT_THROW((void)circuits::multi_tone_input({1.0}, {1.0, 2.0}),
                 util::PreconditionError);
    EXPECT_THROW((void)circuits::am_input(1.0, 2.0, 0.5, 1.5), util::PreconditionError);
    EXPECT_THROW((void)rom::WaveformSpec::multi_tone({1.0}, {1.0, 2.0}).instantiate(),
                 util::PreconditionError);
    EXPECT_THROW((void)rom::WaveformSpec::am(1.0, 0.0, 0.5, 0.5).instantiate(),
                 util::PreconditionError);
}

/// Least-squares fit of DC + sum_k (p_k cos(w_k t) + q_k sin(w_k t)) over the
/// given frequencies; returns the complex amplitude of e^{j w_k t} for each,
/// C_k = (p_k - j q_k)/2, so x(t) = Re[2 C_k e^{j w_k t}] + ...
std::vector<Complex> fit_components(const std::vector<double>& t,
                                    const std::vector<double>& x,
                                    const std::vector<double>& omegas) {
    const int rows = static_cast<int>(t.size());
    const int nw = static_cast<int>(omegas.size());
    Matrix a(rows, 1 + 2 * nw);
    for (int r = 0; r < rows; ++r) {
        a(r, 0) = 1.0;
        for (int k = 0; k < nw; ++k) {
            a(r, 1 + 2 * k) =
                std::cos(omegas[static_cast<std::size_t>(k)] * t[static_cast<std::size_t>(r)]);
            a(r, 2 + 2 * k) =
                std::sin(omegas[static_cast<std::size_t>(k)] * t[static_cast<std::size_t>(r)]);
        }
    }
    const Vec coef = test::least_squares(a, x);
    std::vector<Complex> out(omegas.size() + 1);
    out[0] = Complex(coef[0], 0.0);  // DC
    for (int k = 0; k < nw; ++k)
        out[static_cast<std::size_t>(k) + 1] =
            0.5 * Complex(coef[1 + 2 * k], -coef[2 + 2 * k]);
    return out;
}

TEST(Scenarios, IntermodPredictionMatchesMixerSteadyState) {
    // Two-tone steady state of the mixer: RF tone at wa, LO tone at wb. The
    // Volterra predictions for the fundamentals and the wa +- wb mixing
    // products must match the simulated spectrum (the IM3 lines are fourth
    // order in the drive here and fall below the fit's noise floor).
    circuits::MixerOptions opt;
    opt.rf_sections = 2;
    opt.lo_sections = 2;
    opt.if_sections = 2;
    opt.leak = 0.5;  // fast settling keeps the RK4 window short
    const Qldae sys = circuits::mixer(opt);
    const TransferEvaluator te(sys);

    volterra::Tone rf;
    rf.omega = 1.1;
    rf.amplitude = 0.08;
    rf.input = 0;
    volterra::Tone lo;
    lo.omega = 0.9;
    lo.amplitude = 0.08;
    lo.input = 1;
    const volterra::TwoToneIntermod pred = volterra::predict_intermod(te, rf, lo);

    auto f = [&](double time, const Vec& x) {
        return sys.rhs(x, Vec{rf.amplitude * std::sin(rf.omega * time),
                              lo.amplitude * std::sin(lo.omega * time)});
    };
    Vec x(static_cast<std::size_t>(sys.order()), 0.0);
    const double t_settle = 60.0;
    x = test::rk4_integrate(f, x, 0.0, t_settle, 24000);

    // Sample two periods of the slowest product (wa - wb = 0.2).
    const int samples = 700;
    const double window = 2.0 * 2.0 * M_PI / (rf.omega - lo.omega);
    std::vector<double> ts, ys;
    double t = t_settle;
    const double h = window / samples;
    for (int sidx = 0; sidx < samples; ++sidx) {
        ts.push_back(t);
        ys.push_back(sys.output(x)[0]);
        x = test::rk4_integrate(f, x, t, t + h, 30);
        t += h;
    }
    const std::vector<Complex> fit = fit_components(
        ts, ys, {rf.omega, lo.omega, rf.omega + lo.omega, rf.omega - lo.omega});

    EXPECT_NEAR(std::abs(fit[1] - pred.fundamental_a), 0.0,
                2e-2 * std::abs(pred.fundamental_a) + 1e-9);
    EXPECT_NEAR(std::abs(fit[2] - pred.fundamental_b), 0.0,
                2e-2 * std::abs(pred.fundamental_b) + 1e-9);
    ASSERT_GT(std::abs(pred.sum), 1e-6);  // the mixing product genuinely exists
    ASSERT_GT(std::abs(pred.diff), 1e-6);
    EXPECT_NEAR(std::abs(fit[3] - pred.sum), 0.0, 8e-2 * std::abs(pred.sum) + 1e-9);
    EXPECT_NEAR(std::abs(fit[4] - pred.diff), 0.0, 8e-2 * std::abs(pred.diff) + 1e-9);
    EXPECT_NEAR(std::abs(fit[0] - pred.dc), 0.0, 8e-2 * std::abs(pred.dc) + 1e-9);
}

TEST(Scenarios, IntermodSweepMatchesPointwise) {
    circuits::MixerOptions opt;
    opt.rf_sections = 2;
    opt.lo_sections = 2;
    opt.if_sections = 2;
    const TransferEvaluator te(circuits::mixer(opt));
    volterra::Tone rf;
    rf.omega = 1.3;
    rf.amplitude = 0.1;
    rf.input = 0;
    std::vector<volterra::Tone> los;
    for (int k = 0; k < 4; ++k) {
        volterra::Tone lo;
        lo.omega = 0.5 + 0.2 * k;
        lo.amplitude = 0.05;
        lo.phase = 0.1 * k;
        lo.input = 1;
        los.push_back(lo);
    }
    const std::vector<volterra::TwoToneIntermod> sweep =
        volterra::predict_intermod_sweep(te, rf, los);
    ASSERT_EQ(sweep.size(), los.size());
    for (std::size_t k = 0; k < los.size(); ++k) {
        const volterra::TwoToneIntermod one = volterra::predict_intermod(te, rf, los[k]);
        EXPECT_EQ(sweep[k].sum, one.sum) << "sweep diverges at tone " << k;
        EXPECT_EQ(sweep[k].im3_low, one.im3_low);
        EXPECT_EQ(sweep[k].im3_high, one.im3_high);
    }
}

// ---------------------------------------------------------------------------
// Sparse-grid and Monte-Carlo sampling.
// ---------------------------------------------------------------------------

pmor::ParamSpace four_axis_space() {
    return pmor::ParamSpace({{"a", 0.0, 1.0, pmor::Scale::linear},
                             {"b", 2.0, 6.0, pmor::Scale::linear},
                             {"c", 0.1, 10.0, pmor::Scale::log},
                             {"d", -1.0, 1.0, pmor::Scale::linear}});
}

TEST(Scenarios, SparseGridIsNestedUniqueAndPolynomiallySized) {
    const pmor::ParamSpace space = four_axis_space();
    const std::vector<Point> sparse = space.sparse_grid(2);
    // Smolyak count for d = 4, level 2 over the nested midpoint hierarchy:
    // 1 + d*2 + [d*2 + C(d,2)*4] = 41, versus 3^4 = 81 factorial points.
    EXPECT_EQ(sparse.size(), 41u);
    EXPECT_EQ(space.grid(3).size(), 81u);

    std::set<std::string> keys;
    for (const Point& p : sparse) {
        EXPECT_TRUE(space.contains(p));
        keys.insert(space.key(p));
    }
    EXPECT_EQ(keys.size(), sparse.size()) << "sparse grid repeated a point";

    // Nesting: every level-1 point survives into level 2.
    for (const Point& p : space.sparse_grid(1)) {
        EXPECT_TRUE(keys.count(space.key(p)))
            << "level-1 point " << space.key(p) << " missing from level 2";
    }
    // Level 1 = center + one-axis endpoint excursions: 1 + 2d points.
    EXPECT_EQ(space.sparse_grid(1).size(), 9u);

    EXPECT_THROW((void)space.sparse_grid(0), util::PreconditionError);
}

TEST(Scenarios, MonteCarloSamplingIsSeededAndInside) {
    const pmor::ParamSpace space = four_axis_space();
    const std::vector<Point> a = space.monte_carlo(32, 7);
    const std::vector<Point> b = space.monte_carlo(32, 7);
    const std::vector<Point> c = space.monte_carlo(32, 8);
    ASSERT_EQ(a.size(), 32u);
    EXPECT_EQ(a, b) << "same seed must reproduce bit-identically";
    EXPECT_NE(a, c) << "different seeds must differ";
    for (const Point& p : a) EXPECT_TRUE(space.contains(p));
    // Log axis samples log-uniformly: the geometric mean lands near the
    // geometric center, far from the arithmetic one.
    double log_mean = 0.0;
    for (const Point& p : a) log_mean += std::log(p[2]);
    log_mean = std::exp(log_mean / static_cast<double>(a.size()));
    EXPECT_GT(log_mean, 0.3);
    EXPECT_LT(log_mean, 3.5);
}

// ---------------------------------------------------------------------------
// FamilyBuilder over sparse-grid candidates + batched parametric serving.
// ---------------------------------------------------------------------------

pmor::FamilyDesign mixer_design() {
    circuits::MixerOptions base;
    base.rf_sections = 2;
    base.lo_sections = 2;
    base.if_sections = 2;
    pmor::OptionsBinder<circuits::MixerOptions> binder(base);
    binder.param("gm2", &circuits::MixerOptions::gm2, 0.4, 1.2);
    return pmor::make_design("mixer_gm2", binder,
                             [](const circuits::MixerOptions& o) { return circuits::mixer(o); });
}

mor::AdaptiveOptions fast_adaptive(double tol = 2e-3) {
    mor::AdaptiveOptions a;
    a.tol = tol;
    a.omega_min = 0.25;
    a.omega_max = 2.0;
    a.band_grid = 7;
    a.max_points = 2;
    a.point_order = rom::PointOrder{3, 1, 0};
    a.trim_orders = false;
    return a;
}

TEST(Scenarios, FamilyBuilderConsumesSparseGridCandidates) {
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = 1e-2;
    opt.sampling = pmor::TrainingSampling::sparse_grid;
    opt.max_members = 5;
    const pmor::FamilyBuildResult result = pmor::FamilyBuilder(mixer_design(), opt).build();

    // 1-D Smolyak level 2 = the 5-point nested hierarchy {0.5, 0, 1, 0.25,
    // 0.75}; each candidate becomes a coverage cell.
    EXPECT_EQ(result.stats.candidates, 5);
    EXPECT_EQ(result.family.cells.size(), 5u);
    EXPECT_TRUE(result.family.converged);
    // No single per-axis resolution exists for a sparse family.
    EXPECT_EQ(result.family.training_grid_per_dim, 0);
    for (const rom::CoverageCell& cell : result.family.cells) {
        ASSERT_GE(cell.best, 0);
        EXPECT_LE(cell.best_error, opt.tol);
    }
}

TEST(Scenarios, ParametricBatchMatchesPerPointLoop) {
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = 1e-2;
    opt.training_grid_per_dim = 3;
    opt.max_members = 3;
    const rom::Family fam = pmor::FamilyBuilder(mixer_design(), opt).build().family;
    ASSERT_TRUE(fam.converged);

    std::vector<Complex> grid;
    for (int g = 1; g <= 6; ++g) grid.emplace_back(0.0, 0.3 * g);
    const std::vector<Point> queries = fam.space.monte_carlo(9, 123);

    rom::ServeEngine engine(std::make_shared<rom::Registry>());
    (void)test::host(engine, fam);
    const rom::ServeResponse batch = test::parametric_batch(engine, fam.family_id, queries, grid);
    ASSERT_TRUE(batch.ok()) << batch.error.message;
    ASSERT_EQ(batch.response.size(), queries.size() * grid.size());
    ASSERT_EQ(batch.batch_member.size(), queries.size());
    ASSERT_EQ(batch.batch_error.size(), queries.size());
    ASSERT_EQ(batch.batch_fallback.size(), queries.size());
    EXPECT_EQ(engine.stats().parametric_queries, static_cast<long>(queries.size()));

    // Per-point routing and answers are identical to looping single-point
    // queries, and the batch certificate is the worst point's.
    rom::ServeEngine loop_engine(std::make_shared<rom::Registry>());
    (void)test::host(loop_engine, fam);
    double worst = -1.0;
    for (std::size_t p = 0; p < queries.size(); ++p) {
        const rom::ServeResponse one =
            test::parametric(loop_engine, fam.family_id, queries[p], grid);
        EXPECT_EQ(batch.batch_member[static_cast<std::size_t>(p)], one.member);
        EXPECT_EQ(batch.batch_error[p], one.certificate.estimated_error);
        EXPECT_EQ(batch.batch_fallback[p] != 0, one.fallback);
        for (std::size_t g = 0; g < grid.size(); ++g)
            EXPECT_EQ(batch.response[p * grid.size() + g](0, 0), one.response[g](0, 0))
                << "batch sweep diverges at point " << p << " grid " << g;
        worst = std::max(worst, one.certificate.estimated_error);
    }
    EXPECT_EQ(batch.certificate.estimated_error, worst);
}

TEST(Scenarios, BatchWireFormServesHostedFamilyAndRejectsEmptyBatch) {
    pmor::FamilyBuildOptions opt;
    opt.adaptive = fast_adaptive();
    opt.tol = 1e-2;
    opt.training_grid_per_dim = 3;
    opt.max_members = 3;
    const rom::Family fam = pmor::FamilyBuilder(mixer_design(), opt).build().family;
    ASSERT_TRUE(fam.converged);
    const std::vector<Point> queries = fam.space.monte_carlo(4, 9);

    rom::ServeEngine engine(std::make_shared<rom::Registry>());
    (void)test::host(engine, fam);

    rom::ServeRequest req;
    rom::ParametricBatchRequest body;
    body.family_id = "mixer_gm2";
    body.coords = queries;
    for (int g = 1; g <= 3; ++g) body.grid.emplace_back(0.0, 0.4 * g);
    req.body = body;
    // Round-trip the request bytes like the daemon does before dispatch.
    const rom::ServeResponse resp =
        engine.serve(rom::decode_request(rom::encode_request(req)));
    ASSERT_TRUE(resp.ok()) << resp.error.message;
    EXPECT_EQ(resp.kind, rom::RequestKind::parametric_batch);
    EXPECT_EQ(resp.response.size(), queries.size() * 3u);
    EXPECT_EQ(resp.batch_member.size(), queries.size());
    for (const double e : resp.batch_error) EXPECT_LE(e, opt.tol);

    // An empty batch is a typed precondition, not a silent empty answer.
    std::get<rom::ParametricBatchRequest>(req.body).coords.clear();
    const rom::ServeResponse empty = engine.serve(req);
    EXPECT_EQ(empty.error.code, util::ErrorCode::precondition);
    EXPECT_EQ(empty.kind, rom::RequestKind::parametric_batch);

    // An unknown family stays a typed unresolved error in batch form too.
    std::get<rom::ParametricBatchRequest>(req.body).coords = queries;
    std::get<rom::ParametricBatchRequest>(req.body).family_id = "nonesuch";
    EXPECT_EQ(engine.serve(req).error.code, util::ErrorCode::serve_unresolved);
}

}  // namespace
}  // namespace atmor
