// rom::ServeEngine: the online path. A warm engine must answer concurrent
// frequency-sweep and transient queries with ZERO reductions and ZERO
// full-order factorisations -- asserted through the registry/backend
// counters, exactly as the acceptance criterion demands.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/nltl.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "ode/transient.hpp"
#include "rom/serve_engine.hpp"
#include "test_qldae_helpers.hpp"
#include "test_serve_helpers.hpp"
#include "util/rng.hpp"
#include "volterra/transfer.hpp"

namespace atmor {
namespace {

constexpr int kFullOrder = 16;

volterra::Qldae full_system() {
    util::Rng rng(11);
    test::QldaeOptions qopt;
    qopt.n = kFullOrder;
    qopt.nl_scale = 0.05;  // mild nonlinearity: frozen-Jacobian Newton converges
    return test::random_qldae(qopt, rng);
}

/// One in-process build recipe ("m", whatever its params), built through
/// the registry on an engine miss like any spec.
struct Fixture {
    volterra::Qldae sys = full_system();
    std::shared_ptr<rom::Registry> registry;
    rom::ServeEngine engine;
    std::atomic<int> builds{0};
    const rom::ModelRef m = test::spec_ref("m");

    explicit Fixture(const rom::RegistryOptions& ropt = {}, const rom::ServeOptions& sopt = {})
        : registry(std::make_shared<rom::Registry>(ropt)), engine(registry, sopt) {
        engine.set_spec_resolver([this](const rom::BuildSpec&) {
            ++builds;
            core::AtMorOptions mor;
            mor.k1 = 4;
            mor.k2 = 2;
            mor.k3 = 0;
            core::MorResult r = core::reduce_associated(sys, mor);
            r.provenance.source = "test:serve";
            return r;
        });
    }

    /// The served model (resident in the registry once a query built it).
    [[nodiscard]] std::shared_ptr<const rom::ReducedModel> model() const {
        return registry->cached(m.cache_key());
    }
};

rom::TransientSpec transient_spec() {
    rom::TransientSpec topt;
    topt.t_end = 0.4;
    topt.dt = 1e-2;
    return topt;
}

TEST(RomServe, FrequencyResponseMatchesDirectEvaluation) {
    Fixture f;
    std::vector<la::Complex> grid;
    for (int g = 0; g < 6; ++g) grid.emplace_back(0.0, 0.3 * (g + 1));
    const auto swept = test::sweep(f.engine, f.m, grid).response;
    const volterra::TransferEvaluator te(f.model()->rom);
    ASSERT_EQ(swept.size(), grid.size());
    for (std::size_t g = 0; g < grid.size(); ++g) {
        const la::ZMatrix direct = te.output_h1(grid[g]);
        for (int i = 0; i < direct.rows(); ++i)
            for (int j = 0; j < direct.cols(); ++j)
                EXPECT_LT(std::abs(swept[g](i, j) - direct(i, j)), 1e-12);
    }
    EXPECT_EQ(f.builds.load(), 1);
}

TEST(RomServe, TransientBatchTracksTheRom) {
    Fixture f;
    rom::TransientSpec topt = transient_spec();
    topt.t_end = 0.5;
    std::vector<ode::InputFn> inputs = {circuits::sine_input(0.05, 1.0),
                                        circuits::step_input(0.05, 0.1)};
    const auto served = test::transients(f.engine, f.m, inputs, topt).transients;
    ASSERT_EQ(served.size(), inputs.size());

    // Reference: the same waveforms simulated directly on the ROM (fresh
    // Jacobian). The engine's zero-state warm start is a different but
    // equally converged Newton path, so compare within the Newton tolerance
    // headroom rather than bitwise.
    for (std::size_t w = 0; w < inputs.size(); ++w) {
        const auto direct = ode::simulate(f.model()->rom, inputs[w], topt.to_options());
        ASSERT_EQ(served[w].t.size(), direct.t.size());
        EXPECT_LT(ode::peak_relative_error(direct, served[w]), 1e-7);
    }
    EXPECT_EQ(f.builds.load(), 1);
}

TEST(RomServe, WarmEngineServesConcurrentlyWithZeroFullOrderWork) {
    Fixture f;
    std::vector<la::Complex> grid;
    for (int g = 0; g < 8; ++g) grid.emplace_back(0.0, 0.25 * (g + 1));
    const rom::TransientSpec topt = transient_spec();

    // Warm up: one build, one warm Jacobian stamp, factor caches filled.
    (void)test::sweep(f.engine, f.m, grid);
    (void)test::transients(f.engine, f.m, {circuits::sine_input(0.05, 1.0)}, topt);
    const rom::ServeStats warm = f.engine.stats();
    const int rom_order = f.model()->order;
    ASSERT_LT(rom_order, kFullOrder);

    // Concurrent mixed queries against the warm engine.
    constexpr int kThreads = 6;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            if (t % 2 == 0) {
                (void)test::sweep(f.engine, f.m, grid);
            } else {
                (void)test::transients(f.engine, f.m,
                                       {circuits::sine_input(0.04 + 0.01 * t, 1.0)}, topt);
            }
        });
    for (auto& t : threads) t.join();

    const rom::ServeStats stats = f.engine.stats();
    // Zero reductions while warm...
    EXPECT_EQ(f.builds.load(), 1);
    EXPECT_EQ(stats.registry.builds, 1);
    EXPECT_EQ(stats.registry.builds, warm.registry.builds);
    // ...zero full-order factorisations EVER inside the engine (the serving
    // backends never see the full system)...
    EXPECT_LE(stats.solver.max_factor_dim, rom_order);
    // ...and the repeated grid replays the factor caches instead of
    // refactoring: no new cached-path misses after warm-up.
    EXPECT_EQ(stats.solver.cache_misses, warm.solver.cache_misses);
    EXPECT_GT(stats.solver.cache_hits, warm.solver.cache_hits);
    // Latency accounting saw every query.
    EXPECT_EQ(stats.frequency_queries, 1 + kThreads / 2);
    EXPECT_EQ(stats.transient_queries, 1 + kThreads / 2);
    EXPECT_GT(stats.busy_seconds, 0.0);
}

TEST(RomServe, WarmJacobianIsReplayedAcrossBatches) {
    Fixture f;
    rom::TransientSpec topt = transient_spec();
    (void)test::transients(f.engine, f.m, {circuits::sine_input(0.05, 1.0)}, topt);
    const long after_first = f.engine.stats().solver.factorizations;
    for (int rep = 0; rep < 3; ++rep)
        (void)test::transients(f.engine, f.m, {circuits::sine_input(0.05 + 0.01 * rep, 1.0)},
                               topt);
    // The mild waveforms converge on the frozen warm Jacobian, so replayed
    // batches add ZERO factorisations.
    EXPECT_EQ(f.engine.stats().solver.factorizations, after_first);

    // A different step size gets its own warm start: exactly one restamp...
    topt.dt = 5e-3;
    (void)test::transients(f.engine, f.m, {circuits::sine_input(0.05, 1.0)}, topt);
    EXPECT_EQ(f.engine.stats().solver.factorizations, after_first + 1);
    // ...and alternating between the two configurations replays BOTH (the
    // per-configuration warm map; a single slot would restamp every switch).
    for (int rep = 0; rep < 3; ++rep) {
        topt.dt = (rep % 2 == 0) ? 1e-2 : 5e-3;
        (void)test::transients(f.engine, f.m, {circuits::sine_input(0.05, 1.0)}, topt);
    }
    EXPECT_EQ(f.engine.stats().solver.factorizations, after_first + 1);
}

/// Bit-for-bit equality of two sweep answers.
bool same_bits(const std::vector<la::ZMatrix>& a, const std::vector<la::ZMatrix>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t g = 0; g < a.size(); ++g) {
        if (a[g].rows() != b[g].rows() || a[g].cols() != b[g].cols()) return false;
        const std::size_t n = static_cast<std::size_t>(a[g].rows()) *
                              static_cast<std::size_t>(a[g].cols()) * sizeof(la::Complex);
        if (n != 0 && std::memcmp(a[g].data(), b[g].data(), n) != 0) return false;
    }
    return true;
}

TEST(RomServe, RotatingMoreModelsThanTheRegistryHoldsBuildsEachOnce) {
    // Nine spec models served round-robin against a registry whose memory
    // tier holds eight: the engine keeps a state per model and asks the
    // registry only when it holds none, so nothing is rebuilt or refactored
    // after the first round.
    Fixture f;
    ASSERT_EQ(f.registry->options().max_memory_models, 8u);
    constexpr int kModels = 9;
    const std::vector<la::Complex> grid = {la::Complex(0.0, 0.4), la::Complex(0.0, 1.2)};
    std::vector<std::vector<la::ZMatrix>> first(kModels);
    long factorizations = 0;
    for (int round = 0; round < 3; ++round) {
        for (int m = 0; m < kModels; ++m) {
            const rom::ServeResponse resp =
                test::sweep(f.engine, test::spec_ref("m", {static_cast<double>(m)}), grid);
            ASSERT_EQ(resp.error.code, util::ErrorCode::ok) << resp.error.message;
            if (round == 0)
                first[static_cast<std::size_t>(m)] = resp.response;
            else
                EXPECT_TRUE(same_bits(resp.response, first[static_cast<std::size_t>(m)]))
                    << "round " << round << " model " << m;
        }
        EXPECT_EQ(f.builds.load(), kModels) << "round " << round;
        if (round == 0)
            factorizations = f.engine.stats().solver.factorizations;
        else
            EXPECT_EQ(f.engine.stats().solver.factorizations, factorizations)
                << "round " << round;
    }
    EXPECT_EQ(f.engine.stats().registry.builds, kModels);
}

TEST(RomServe, EvictedStatesAnswerTheSameAndKeepCountersMonotonic) {
    // One state per shard: serving more models than there are shards evicts
    // states, and a later request re-resolves its model through the registry
    // (which holds them all). The answers must not change, and the solver
    // counters of evicted states fold into the totals instead of vanishing.
    rom::RegistryOptions ropt;
    ropt.max_memory_models = 64;
    rom::ServeOptions sopt;
    sopt.max_model_states = 16;
    Fixture f(ropt, sopt);
    constexpr int kModels = 24;
    const std::vector<la::Complex> grid = {la::Complex(0.0, 0.4), la::Complex(0.0, 1.2)};
    std::vector<std::vector<la::ZMatrix>> first(kModels);
    la::SolverStats last;
    for (int round = 0; round < 2; ++round)
        for (int m = 0; m < kModels; ++m) {
            const rom::ServeResponse resp =
                test::sweep(f.engine, test::spec_ref("m", {static_cast<double>(m)}), grid);
            ASSERT_EQ(resp.error.code, util::ErrorCode::ok) << resp.error.message;
            if (round == 0)
                first[static_cast<std::size_t>(m)] = resp.response;
            else
                EXPECT_TRUE(same_bits(resp.response, first[static_cast<std::size_t>(m)]))
                    << "model " << m;
            const la::SolverStats now = f.engine.stats().solver;
            const std::string at = "round " + std::to_string(round) + " model " + std::to_string(m);
            EXPECT_GE(now.factorizations, last.factorizations) << at;
            EXPECT_GE(now.cache_misses, last.cache_misses) << at;
            EXPECT_GE(now.cache_hits, last.cache_hits) << at;
            EXPECT_GE(now.solves, last.solves) << at;
            EXPECT_GE(now.max_factor_dim, last.max_factor_dim) << at;
            last = now;
        }
    // 24 models in 16 shards of one state each: some states were evicted
    // and re-resolved, all from the registry's memory tier.
    EXPECT_GT(f.registry->stats().lookups, kModels);
    EXPECT_EQ(f.builds.load(), kModels);
}

TEST(RomServe, EmptyQueriesAreTypedErrors) {
    // An empty waveform batch or frequency grid is a caller bug surfaced as
    // a typed precondition error, never a silent empty answer (and never a
    // registry resolution / model build).
    Fixture f;
    EXPECT_EQ(test::transients(f.engine, f.m, {}, transient_spec()).error.code,
              util::ErrorCode::precondition);
    EXPECT_EQ(test::sweep(f.engine, f.m, {}).error.code, util::ErrorCode::precondition);
    EXPECT_EQ(f.builds.load(), 0);
    EXPECT_EQ(f.engine.stats().transient_queries, 0);
    EXPECT_EQ(f.engine.stats().frequency_queries, 0);
}

TEST(RomServe, NonFiniteHorizonIsAPreconditionError) {
    // An infinite or NaN horizon or step, or one whose step count does not
    // fit in a long, is the caller's fault: a typed precondition answer,
    // never an internal error. Rejected horizons leave the warm cache alone,
    // so a valid request served before and after answers bit-identically.
    Fixture f;
    const std::vector<ode::InputFn> drive = {circuits::sine_input(0.05, 1.0)};
    const rom::ServeResponse before = test::transients(f.engine, f.m, drive, transient_spec());
    ASSERT_EQ(before.error.code, util::ErrorCode::ok) << before.error.message;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::pair<double, double> bad[] = {
        {inf, 1e-2}, {0.4, inf}, {nan, 1e-2}, {0.4, nan},
        {1e20, 1e-3},  // 1e23 steps: past the range of long
    };
    for (const auto& [t_end, dt] : bad) {
        rom::TransientSpec topt = transient_spec();
        topt.t_end = t_end;
        topt.dt = dt;
        const rom::ServeResponse resp = test::transients(f.engine, f.m, drive, topt);
        EXPECT_EQ(resp.error.code, util::ErrorCode::precondition)
            << "t_end = " << t_end << ", dt = " << dt << ": " << resp.error.message;
        EXPECT_TRUE(resp.transients.empty());
    }
    const rom::ServeResponse after = test::transients(f.engine, f.m, drive, transient_spec());
    ASSERT_EQ(after.error.code, util::ErrorCode::ok) << after.error.message;
    ASSERT_EQ(after.transients.size(), 1u);
    EXPECT_EQ(after.transients[0].t, before.transients[0].t);
    EXPECT_EQ(after.transients[0].y, before.transients[0].y);
}

TEST(RomServe, DivergingTransientIsAnInternalError) {
    // A drive that blows the ROM's state up is a numerical breakdown: a typed
    // internal answer with no transients, never an ok answer carrying a NaN
    // trace. The failed batch leaves the warm state alone, so a valid
    // request answers bit-identically before and after it.
    Fixture f;
    const std::vector<ode::InputFn> drive = {circuits::sine_input(0.05, 1.0)};
    const rom::ServeResponse before = test::transients(f.engine, f.m, drive, transient_spec());
    ASSERT_EQ(before.error.code, util::ErrorCode::ok) << before.error.message;
    const rom::ServeResponse blown =
        test::transients(f.engine, f.m, {circuits::step_input(1e150)}, transient_spec());
    EXPECT_EQ(blown.error.code, util::ErrorCode::internal) << blown.error.message;
    EXPECT_TRUE(blown.transients.empty());
    const rom::ServeResponse after = test::transients(f.engine, f.m, drive, transient_spec());
    ASSERT_EQ(after.error.code, util::ErrorCode::ok) << after.error.message;
    ASSERT_EQ(after.transients.size(), 1u);
    EXPECT_EQ(after.transients[0].t, before.transients[0].t);
    EXPECT_EQ(after.transients[0].y, before.transients[0].y);
}

/// An 8-stage NLTL ROM with k1 first-order moments at s0 = 1.
rom::ReducedModel nltl_rom(int k1) {
    circuits::NltlOptions copt;
    copt.stages = 8;
    core::AtMorOptions mor;
    mor.k1 = k1;
    mor.k2 = 2;
    mor.k3 = 0;
    mor.expansion_points = {la::Complex(1.0, 0.0)};
    return core::reduce_associated(circuits::current_source_line(copt).to_qldae(), mor);
}

TEST(RomServe, ReplacedArtifactIsServedFromItsFile) {
    // An artifact ref is served from its file. An engine whose registry has
    // a disk tier must not copy the model it loaded into that directory, or
    // a later engine over the same directory would keep serving the copy
    // after the file is replaced.
    const std::filesystem::path tmp = std::filesystem::temp_directory_path();
    const std::string dir = (tmp / "atmor_serve_stale_registry").string();
    const std::string path = (tmp / "atmor_serve_stale_plant.atmor-rom").string();
    std::filesystem::remove_all(dir);
    rom::RegistryOptions ropt;
    ropt.artifact_dir = dir;
    const rom::ModelRef ref = rom::ModelRef::from_artifact(path);
    const std::vector<la::Complex> grid = {la::Complex(0.0, 0.7)};
    const auto h1 = [&](rom::ServeEngine& engine) {
        const rom::ServeResponse resp = test::sweep(engine, ref, grid);
        EXPECT_EQ(resp.error.code, util::ErrorCode::ok) << resp.error.message;
        return resp.response.empty() ? la::Complex(0.0) : resp.response[0](0, 0);
    };

    rom::save_model(nltl_rom(3), path);
    rom::ServeEngine first(std::make_shared<rom::Registry>(ropt));
    const la::Complex old_h1 = h1(first);
    rom::save_model(nltl_rom(6), path);

    rom::ServeEngine later(std::make_shared<rom::Registry>(ropt));
    rom::ServeEngine memory_only(std::make_shared<rom::Registry>());
    const la::Complex new_h1 = h1(memory_only);
    EXPECT_NE(new_h1, old_h1);
    const la::Complex served = h1(later);
    EXPECT_EQ(served.real(), new_h1.real());
    EXPECT_EQ(served.imag(), new_h1.imag());
    // The engine that served the old file serves the new one too: its state
    // is keyed on the file's identity, not only its path.
    const la::Complex first_after = h1(first);
    EXPECT_EQ(first_after.real(), new_h1.real());
    EXPECT_EQ(first_after.imag(), new_h1.imag());
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    EXPECT_EQ(first.stats().registry.lookups, 0);

    // A path that no longer exists answers io_open_failed, as a first
    // request for it does.
    std::filesystem::remove(path);
    EXPECT_EQ(test::sweep(first, ref, grid).error.code, util::ErrorCode::io_open_failed);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace atmor
