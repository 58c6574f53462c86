// Concurrency contracts of the sharded rom::ServeEngine (run under TSan in
// CI): a mixed 8-thread query storm over shared and distinct models must
// produce answers BIT-IDENTICAL to serial replay, cross-request coalescing
// must merge concurrent sweeps without losing or double-counting a single
// per-request stat, and a slow single-flight build must never hold a lock
// that blocks warm serves of already-resident models.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "ode/transient.hpp"
#include "rom/serve_engine.hpp"
#include "test_qldae_helpers.hpp"
#include "test_serve_helpers.hpp"
#include "util/rng.hpp"

namespace atmor {
namespace {

constexpr int kFullOrder = 16;
constexpr int kThreads = 8;

volterra::Qldae full_system() {
    util::Rng rng(23);
    test::QldaeOptions qopt;
    qopt.n = kFullOrder;
    qopt.nl_scale = 0.05;
    return test::random_qldae(qopt, rng);
}

/// The in-process build recipe: spec params[0] seeds the expansion point,
/// so distinct seeds are distinct models.
struct Fixture {
    volterra::Qldae sys = full_system();
    std::shared_ptr<rom::Registry> registry = std::make_shared<rom::Registry>();
    std::atomic<int> builds{0};

    rom::ReducedModel build(const rom::BuildSpec& spec) {
        ++builds;
        core::AtMorOptions mor;
        mor.k1 = 4;
        mor.k2 = 2;
        mor.k3 = 0;
        mor.expansion_points = {la::Complex(1.0 + 0.2 * spec.params.at(0), 0.0)};
        core::MorResult r = core::reduce_associated(sys, mor);
        r.provenance.source = "test:concurrent";
        return r;
    }

    /// An engine over the shared registry that resolves this recipe.
    std::unique_ptr<rom::ServeEngine> engine(rom::ServeOptions opt = {}) {
        auto e = std::make_unique<rom::ServeEngine>(registry, opt);
        e->set_spec_resolver([this](const rom::BuildSpec& spec) { return build(spec); });
        return e;
    }
};

rom::ModelRef model(const std::string& name, int seed_point = 0) {
    return test::spec_ref(name, {static_cast<double>(seed_point)});
}

/// Four 8-point grids with pairwise overlap, so coalesced batches have
/// shared shifts to dedup AND private shifts to scatter.
std::vector<std::vector<la::Complex>> overlapping_grids() {
    std::vector<std::vector<la::Complex>> grids(4);
    for (int g = 0; g < 4; ++g)
        for (int j = 0; j < 8; ++j)
            grids[static_cast<std::size_t>(g)].emplace_back(0.0, 0.25 * (j + 1 + g));
    return grids;
}

bool identical(const std::vector<la::ZMatrix>& a, const std::vector<la::ZMatrix>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t g = 0; g < a.size(); ++g) {
        if (a[g].rows() != b[g].rows() || a[g].cols() != b[g].cols()) return false;
        for (int r = 0; r < a[g].rows(); ++r)
            for (int c = 0; c < a[g].cols(); ++c)
                if (a[g](r, c) != b[g](r, c)) return false;
    }
    return true;
}

/// Release-together start gate: every worker parks on the shared future and
/// main releases them only once all are parked, so the storm actually
/// overlaps instead of serialising on thread-spawn latency.
struct StartGate {
    std::promise<void> open;
    std::shared_future<void> go = open.get_future().share();
    std::atomic<int> parked{0};

    void wait() {
        parked.fetch_add(1);
        go.wait();
    }
    void release(int expected) {
        while (parked.load() < expected) std::this_thread::yield();
        open.set_value();
    }
};

TEST(ServeConcurrent, MixedStressIsBitIdenticalToSerialReplayWithExactStats) {
    Fixture f;
    const auto engine = f.engine();
    const auto grids = overlapping_grids();
    rom::TransientSpec topt;
    topt.t_end = 0.4;
    topt.dt = 1e-2;
    topt.method = ode::Method::trapezoidal;

    // Threads 0-3 hammer ONE shared model (sweeps racing into the
    // coalescer); threads 4-7 each own a distinct model (shard
    // independence). Odd threads add transient batches on the same keys, so
    // the warm-start map and the sweep path race on the same ModelState.
    constexpr int kReps = 4;
    const auto ref_of = [](int t) {
        return t < 4 ? model("hot") : model("m" + std::to_string(t), t);
    };
    std::vector<std::vector<std::vector<la::ZMatrix>>> answers(
        kThreads, std::vector<std::vector<la::ZMatrix>>(kReps));
    StartGate gate;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            gate.wait();
            for (int rep = 0; rep < kReps; ++rep) {
                answers[static_cast<std::size_t>(t)][static_cast<std::size_t>(rep)] =
                    test::sweep(*engine, ref_of(t),
                                grids[static_cast<std::size_t>((t + rep) % 4)])
                        .response;
                if (t % 2 == 1)
                    (void)test::transients(*engine, ref_of(t),
                                           {circuits::sine_input(0.03 + 0.01 * t, 1.0)}, topt);
            }
        });
    gate.release(kThreads);
    for (std::thread& th : threads) th.join();

    // Bit-identity: a fresh engine over the SAME registry (same model
    // instances) replays every request serially; coalescing and shard
    // scheduling must not have changed a single bit.
    const auto serial = f.engine();
    for (int t = 0; t < kThreads; ++t)
        for (int rep = 0; rep < kReps; ++rep)
            EXPECT_TRUE(identical(
                answers[static_cast<std::size_t>(t)][static_cast<std::size_t>(rep)],
                test::sweep(*serial, ref_of(t), grids[static_cast<std::size_t>((t + rep) % 4)])
                    .response))
                << "thread " << t << " rep " << rep;

    // Exact accounting: coalescing must neither lose nor double-count a
    // request. Every sweep grid has 8 points; 4 odd threads ran kReps
    // transient batches of one waveform each.
    const rom::ServeStats stats = engine->stats();
    EXPECT_EQ(stats.frequency_queries, kThreads * kReps);
    EXPECT_EQ(stats.frequency_points, kThreads * kReps * 8);
    EXPECT_EQ(stats.transient_queries, 4 * kReps);
    EXPECT_EQ(stats.transient_waveforms, 4 * kReps);
    EXPECT_GT(stats.busy_seconds, 0.0);
    EXPECT_GT(stats.max_query_seconds, 0.0);
    // Single-flight: 5 distinct keys -> exactly 5 builds despite 4 threads
    // racing on the shared one.
    EXPECT_EQ(f.builds.load(), 5);
    EXPECT_EQ(stats.registry.builds, 5);
    // Serving never factored above reduced order.
    const int rom_order = test::certificate(*serial, model("hot")).certificate.order;
    ASSERT_GT(rom_order, 0);
    EXPECT_LE(stats.solver.max_factor_dim, rom_order);
}

TEST(ServeConcurrent, CoalescedBatchesAreEquivalentAndAccounted) {
    Fixture f;
    // A deliberate collection window: the first sweep leader waits 250 ms,
    // so the whole gated storm provably lands in its batch.
    rom::ServeOptions opt;
    opt.coalesce_window_seconds = 0.25;
    const auto engine = f.engine(opt);
    const auto grids = overlapping_grids();
    (void)test::certificate(*engine, model("hot"));  // build outside the timed storm

    std::vector<std::vector<la::ZMatrix>> answers(kThreads);
    StartGate gate;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            gate.wait();
            // Threads 0-5 request grid 0, threads 6-7 grid 1 (7 of its 8
            // points shared with grid 0): the union has 9 unique shifts
            // for 64 requested points when one batch captures the storm.
            answers[static_cast<std::size_t>(t)] =
                test::sweep(*engine, model("hot"), grids[t < 6 ? 0 : 1]).response;
        });
    gate.release(kThreads);
    for (std::thread& th : threads) th.join();

    // Equivalence: every thread got exactly the serial answer for ITS grid.
    const auto serial = f.engine();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_TRUE(identical(answers[static_cast<std::size_t>(t)],
                              test::sweep(*serial, model("hot"), grids[t < 6 ? 0 : 1]).response))
            << "thread " << t;

    const rom::ServeStats stats = engine->stats();
    // All 8 requests accounted at their REQUESTED size...
    EXPECT_EQ(stats.frequency_queries, kThreads);
    EXPECT_EQ(stats.frequency_points, kThreads * 8);
    // ...while the released-together storm demonstrably merged: followers
    // joined a leader's batch and shared shifts were evaluated once. (The
    // exact split depends on scheduling; the gate + 250 ms window make at
    // least one join and one full-grid dedup effectively certain.)
    EXPECT_GE(stats.coalesced_queries, 1);
    EXPECT_GE(stats.coalesced_batches, 1);
    EXPECT_GE(stats.deduped_points, 6);
    EXPECT_EQ(f.builds.load(), 1);
}

TEST(ServeConcurrent, SlowSingleFlightBuildDoesNotBlockWarmServes) {
    Fixture f;
    // The "cold" recipe parks mid-build until RELEASED: the latch (not a
    // timing heuristic) proves any lock it held would stall the warm serves
    // issued while it is parked.
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> release_f = release.get_future().share();
    rom::ServeEngine engine{f.registry};
    engine.set_spec_resolver([&](const rom::BuildSpec& spec) {
        if (spec.recipe != "cold") return f.build(spec);
        entered.set_value();
        release_f.wait();
        core::AtMorOptions mor;
        mor.k1 = 4;
        mor.k2 = 2;
        mor.k3 = 0;
        core::MorResult r = core::reduce_associated(f.sys, mor);
        r.provenance.source = "test:slow";
        return rom::ReducedModel(r);
    });
    std::vector<la::Complex> grid;
    for (int j = 0; j < 6; ++j) grid.emplace_back(0.0, 0.3 * (j + 1));
    (void)test::sweep(engine, model("warm"), grid);  // make resident

    std::thread cold([&] { (void)test::sweep(engine, test::spec_ref("cold"), grid); });
    entered.get_future().wait();  // the build is now in flight and parked

    // Warm serves of the RESIDENT model must complete while the build is
    // parked -- asserted by finishing BEFORE the latch is released.
    for (int q = 0; q < 3; ++q) {
        std::future<std::vector<la::ZMatrix>> warm_answer =
            std::async(std::launch::async,
                       [&] { return test::sweep(engine, model("warm"), grid).response; });
        ASSERT_EQ(warm_answer.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "warm serve " << q << " stalled behind the in-flight build";
        EXPECT_EQ(warm_answer.get().size(), grid.size());
    }
    // A second tenant joining the in-flight build must also not disturb the
    // warm path: it blocks on the build's future, holding no registry lock.
    std::thread joiner([&] { (void)test::sweep(engine, test::spec_ref("cold"), grid); });
    {
        std::future<std::vector<la::ZMatrix>> warm_answer =
            std::async(std::launch::async,
                       [&] { return test::sweep(engine, model("warm"), grid).response; });
        ASSERT_EQ(warm_answer.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "warm serve stalled behind a coalesced waiter";
    }

    release.set_value();
    cold.join();
    joiner.join();
    // Single flight across both cold tenants: the parked builder ran once
    // (the joiner either coalesced onto it or hit the memory tier after).
    EXPECT_EQ(engine.stats().registry.builds, 2);  // "warm" + one "cold"
}

}  // namespace
}  // namespace atmor
