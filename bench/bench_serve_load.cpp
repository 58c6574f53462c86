// Tail-latency load bench for the concurrent rom::ServeEngine: the
// single-stream medians of bench_rom_serve say nothing about serving cost
// under a realistic request mix, so this bench drives the engine from a
// POOL of client threads and reports the distribution, not the middle.
//
// Three phases:
//   1. SATURATION (closed loop): a fixed count of warm mixed queries is
//      drained by 1 worker and by N workers; the throughput ratio is the
//      concurrency win the sharded engine + cross-request coalescing buy.
//   2. OPEN LOOP: a precomputed Poisson arrival schedule replays a mixed
//      workload -- warm frequency sweeps (half against ONE hot model, so
//      concurrent requests coalesce), warm certified parametric queries,
//      transient batches, cold fallback builds at uncovered points, and
//      concurrent registry writes -- across N workers. Latency is measured
//      from the SCHEDULED arrival, so queueing delay counts (the honest
//      tail), into per-class util::LatencyHistograms (p50/p95/p99).
//   3. REPLAY: every warm sweep/parametric answer recorded during the
//      concurrent run is re-issued serially; the bits must match exactly --
//      the coalescing bit-identity contract, asserted here and in
//      tests/test_serve_concurrent.cpp.
//
// Gates (recorded like scaling_gate_enforced in bench_parallel_scaling;
// enforced only with hardware_concurrency >= 8 and >= 8 workers):
//   * saturation throughput at N workers >= 3x the 1-worker value;
//   * warm-query p99 <= 10x warm-query p50 under the mixed workload.
// Unconditional invariants: bit-identity, exact per-request stats
// accounting (coalescing must never lose or double-count a request), and
// factor dim pinned at reduced order while serving.
//
//   usage: bench_serve_load [workers] [requests_per_class] [--threads N]
//                           [--json-out=PATH] [--daemon]
//
// --daemon adds a fourth phase: the same mixed workload (spelled as wire
// ServeRequests -- WaveformSpecs instead of input closures) served by a
// net::Daemon over loopback from N
// concurrent clients. Every wire answer is compared byte-for-byte against
// a fresh in-process reference engine (the unified-API contract), the
// admission path is probed with an over-budget tenant (typed Overloaded,
// never a drop), and the daemon must drain to requests == responses on
// stop. Latencies land in daemon_* JSON fields under the same tail rules.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "circuits/nltl.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "mor/adaptive.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "pmor/family_builder.hpp"
#include "rom/registry.hpp"
#include "rom/serve_engine.hpp"
#include "util/latency.hpp"
#include "util/timer.hpp"

namespace {

using namespace atmor;

using Clock = std::chrono::steady_clock;

enum class Cls : int { warm_freq = 0, warm_parametric, transient, cold_fallback, registry_write };
constexpr int kClasses = 5;
const char* kClassNames[kClasses] = {"warm_freq", "warm_parametric", "transient",
                                     "cold_fallback", "registry_write"};

struct Request {
    Cls cls;
    int item;               ///< per-class item index (grid/point/key selector)
    double arrival_seconds; ///< offset from the open-loop epoch
};

/// Spread `grid_count` 16-point sweep grids with ~75% pairwise overlap, so
/// coalesced neighbours share (and dedup) most of their shifts.
std::vector<std::vector<la::Complex>> make_grids(int grid_count) {
    std::vector<std::vector<la::Complex>> grids(static_cast<std::size_t>(grid_count));
    for (int g = 0; g < grid_count; ++g)
        for (int j = 0; j < 16; ++j)
            grids[static_cast<std::size_t>(g)].emplace_back(0.0, 0.05 * (j + 1 + 2 * g));
    return grids;
}

}  // namespace

int main(int argc, char** argv) {
    bench::init_threads(argc, argv);
    const std::string json_path = bench::json_out_arg(argc, argv, "BENCH_serve_load.json");
    bool run_daemon = false;
    for (int i = 1; i < argc;) {
        if (std::string(argv[i]) == "--daemon") {
            run_daemon = true;
            for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
            --argc;
        } else {
            ++i;
        }
    }
    const int workers = std::max(1, bench::arg_int(argc, argv, 1, 8));
    const int per_class = std::max(8, bench::arg_int(argc, argv, 2, 48));

    std::printf("=== serve load: %d workers, ~%d requests/class ===\n", workers, per_class);

    // ---------------------------------------------------------------------
    // Offline setup: a small certified family plus a handful of keyed
    // models (one designated HOT -- half the sweep traffic lands on it, so
    // concurrent requests coalesce).
    // ---------------------------------------------------------------------
    circuits::NltlOptions base;
    base.stages = 12;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 32.0, 48.0)
        .param("resistance", &circuits::NltlOptions::resistance, 0.98, 1.06);
    const pmor::FamilyDesign design =
        pmor::make_design("nltl_load", binder, [](const circuits::NltlOptions& o) {
            return circuits::current_source_line(o).to_qldae();
        });
    pmor::FamilyBuildOptions fopt;
    fopt.tol = 1e-1;
    fopt.max_members = 4;
    fopt.training_grid_per_dim = 3;
    fopt.adaptive.tol = 2e-3;
    fopt.adaptive.omega_min = 0.25;
    fopt.adaptive.omega_max = 2.0;
    fopt.adaptive.band_grid = 9;
    fopt.adaptive.max_points = 3;
    fopt.adaptive.point_order = rom::PointOrder{4, 2, 0};
    const rom::Family family = pmor::FamilyBuilder(design, fopt).build().family;
    std::printf("family: %zu members (tol %g)\n", family.members.size(), fopt.tol);

    // The build-spec catalog: "nltl_load" = keyed model m (one designated
    // HOT), "nltl_load_write" = a fresh registry-write model per request.
    // Deterministic, so every engine (and the daemon) builds the same bits.
    const volterra::Qldae plant = circuits::current_source_line(base).to_qldae();
    constexpr int kKeyedModels = 4;
    const auto model_spec = [](const char* recipe, int m) {
        return rom::ModelRef::from_spec(rom::BuildSpec{recipe, {static_cast<double>(m)}});
    };
    const auto resolver = [&](const rom::BuildSpec& spec) -> rom::ReducedModel {
        core::AtMorOptions mor;
        mor.k3 = 0;
        if (spec.recipe == "nltl_load") {
            mor.k1 = 4;
            mor.k2 = 2;
            mor.expansion_points = {la::Complex(1.0 + 0.3 * spec.params.at(0), 0.0)};
        } else if (spec.recipe == "nltl_load_write") {
            mor.k1 = 3;
            mor.k2 = 2;
            mor.expansion_points = {la::Complex(0.8 + 0.01 * spec.params.at(0), 0.0)};
        } else {
            throw rom::UnresolvedError("bench catalog: unknown recipe '" + spec.recipe + "'");
        }
        core::MorResult r = core::reduce_associated(plant, mor);
        r.provenance.source = spec.key();
        return r;
    };

    // Memory tier sized to the workload: cold-fallback and registry-write
    // churn must not evict the warm keyed models mid-run.
    rom::RegistryOptions ropt;
    ropt.max_memory_models = 256;
    auto registry = std::make_shared<rom::Registry>(ropt);
    rom::ServeEngine engine(registry);
    engine.set_spec_resolver(resolver);

    const auto grids = make_grids(4);
    rom::ParametricOptions popt;
    popt.fallback_build = [&](const pmor::Point& p) {
        mor::AdaptiveResult r = mor::reduce_adaptive(design.build_system(p), fopt.adaptive);
        r.model.provenance.source = pmor::member_key(design, fopt.adaptive, p);
        return std::move(r.model);
    };
    const rom::FamilyArtifact hosted = bench::host_family(engine, family, popt);
    /// Another engine over the shared registry, serving the same catalog.
    const auto twin_engine = [&] {
        auto eng = std::make_unique<rom::ServeEngine>(registry);
        eng->set_spec_resolver(resolver);
        eng->host_family(hosted, popt);
        return eng;
    };

    // Warm parametric probes: held-out points a member certifies (screened
    // through a throwaway engine so the measured engine's counters stay
    // exactly accountable). Cold-fallback points come from a finer offset
    // grid queried at the MEMBER tolerance, which no cell certifies.
    bench::InvariantChecker inv;
    const auto setup_engine = twin_engine();
    std::vector<pmor::Point> warm_points;
    for (const pmor::Point& p : design.space.offset_grid(3)) {
        const rom::ServeResponse r =
            bench::serve_point(*setup_engine, family.family_id, p, grids[0]);
        if (r.ok() && !r.fallback) warm_points.push_back(p);
    }
    const double cold_tol = fopt.adaptive.tol;
    // Keep only points the routing rule REJECTS at the member tolerance
    // (nearest cell's certified error above it), so every cold request
    // provably takes the fallback path and the accounting below is exact.
    std::vector<pmor::Point> cold_points;
    for (const pmor::Point& p : design.space.offset_grid(7)) {
        std::size_t nearest = 0;
        for (std::size_t c = 1; c < family.cells.size(); ++c)
            if (family.space.distance(p, family.cells[c].coords) <
                family.space.distance(p, family.cells[nearest].coords))
                nearest = c;
        if (family.cells[nearest].best < 0 || family.cells[nearest].best_error > cold_tol)
            cold_points.push_back(p);
    }
    inv.require(!cold_points.empty(), "some points reject at the member tolerance");
    if (cold_points.empty()) return 1;

    inv.require(!warm_points.empty(), "some held-out points are member-certified");
    if (warm_points.empty()) return 1;

    std::vector<ode::InputFn> waveforms;
    for (int s = 0; s < 2; ++s)
        waveforms.push_back(
            circuits::pulse_input(0.4 + 0.05 * s, 0.5, 1.0, 2.0 + 0.2 * s, 1.5));
    rom::TransientSpec topt;
    topt.t_end = 5.0;
    topt.dt = 1e-2;
    topt.record_stride = 50;

    // Per-class request handlers against an engine. warm_freq item i: even
    // -> the HOT model 0 (coalescing pressure), odd -> spread across the
    // other models; the grid cycles the overlapping variants either way.
    const auto do_warm_freq = [&](rom::ServeEngine& eng, int i) {
        const int k = (i % 2 == 0) ? 0 : 1 + (i / 2) % (kKeyedModels - 1);
        rom::ServeRequest req;
        req.body = rom::FrequencySweepRequest{model_spec("nltl_load", k),
                                              grids[static_cast<std::size_t>(i % 4)]};
        return eng.serve(req).response;
    };
    const auto do_warm_parametric = [&](rom::ServeEngine& eng, int i) {
        return bench::serve_point(eng, family.family_id,
                                  warm_points[static_cast<std::size_t>(i) % warm_points.size()],
                                  grids[static_cast<std::size_t>(i % 4)]);
    };
    const auto do_transient = [&](rom::ServeEngine& eng, int i) {
        rom::TransientBatchRequest tb;
        tb.model = model_spec("nltl_load", i % kKeyedModels);
        tb.raw_inputs = waveforms;
        tb.options = topt;
        rom::ServeRequest req;
        req.body = std::move(tb);
        return eng.serve(req);
    };
    const auto do_cold_fallback = [&](rom::ServeEngine& eng, int i) {
        return bench::serve_point(eng, family.family_id,
                                  cold_points[static_cast<std::size_t>(i) % cold_points.size()],
                                  grids[0], cold_tol);
    };
    const auto do_registry_write = [&](rom::ServeEngine& eng, int i) {
        // A fresh model per request: the build + insert path, concurrent
        // with warm serves (the single-flight fairness scenario).
        rom::ServeRequest req;
        req.body = rom::CertificateRequest{model_spec("nltl_load_write", i)};
        return eng.serve(req);
    };

    // ---------------------------------------------------------------------
    // Phase 1 -- closed-loop saturation: drain a fixed count of warm mixed
    // queries with 1 worker, then with N. (Workers run the engine's public
    // API; the sweep itself still fans out on the global pool.)
    // ---------------------------------------------------------------------
    const int saturation_requests = 4 * per_class;
    const auto warm_op = [&](int i) {
        switch (i % 4) {
            case 0:
            case 2: (void)do_warm_freq(engine, i); break;
            case 1: (void)do_warm_parametric(engine, i); break;
            default: (void)do_transient(engine, i); break;
        }
    };
    int closed_freq = 0, closed_par = 0, closed_tr = 0;
    for (int i = 0; i < saturation_requests; ++i) {
        if (i % 4 == 0 || i % 4 == 2)
            ++closed_freq;
        else if (i % 4 == 1)
            ++closed_par;
        else
            ++closed_tr;
    }
    const auto drain = [&](int nworkers) {
        std::atomic<int> next{0};
        util::Timer t;
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(nworkers));
        for (int w = 0; w < nworkers; ++w)
            pool.emplace_back([&] {
                for (int i = next.fetch_add(1); i < saturation_requests;
                     i = next.fetch_add(1))
                    warm_op(i);
            });
        for (std::thread& th : pool) th.join();
        return t.seconds();
    };
    for (int i = 0; i < 8; ++i) warm_op(i);  // warm every class's caches
    const double t1 = drain(1);
    const double tn = drain(workers);
    // Two closed-loop drains + the 8 warm-up ops all hit `engine`.
    const int closed_rounds = 2;
    const double throughput_1 = saturation_requests / t1;
    const double throughput_n = saturation_requests / tn;
    const double scaling = throughput_n / throughput_1;
    std::printf("\nsaturation: 1 worker %.0f req/s, %d workers %.0f req/s (%.2fx)\n",
                throughput_1, workers, throughput_n, scaling);

    // ---------------------------------------------------------------------
    // Phase 2 -- open-loop mixed workload. Arrival schedule: Poisson
    // (exponential inter-arrival, fixed seed), offered at ~2/3 of the
    // workers' serial capacity estimated from warm-up costs, so queues form
    // and drain -- the regime where p99 means something.
    // ---------------------------------------------------------------------
    std::vector<Request> schedule;
    const int cold_count = std::max(2, per_class / 8);
    const int write_count = std::max(2, per_class / 8);
    const int transient_count = std::max(4, per_class / 2);
    for (int i = 0; i < per_class; ++i) schedule.push_back({Cls::warm_freq, i, 0.0});
    for (int i = 0; i < per_class; ++i) schedule.push_back({Cls::warm_parametric, i, 0.0});
    for (int i = 0; i < transient_count; ++i) schedule.push_back({Cls::transient, i, 0.0});
    for (int i = 0; i < cold_count; ++i) schedule.push_back({Cls::cold_fallback, i, 0.0});
    for (int i = 0; i < write_count; ++i) schedule.push_back({Cls::registry_write, i, 0.0});

    const double freq_cost =
        bench::median_timed([&] { (void)do_warm_freq(*setup_engine, 0); }, 3);
    const double par_cost =
        bench::median_timed([&] { (void)do_warm_parametric(*setup_engine, 0); }, 3);
    util::Timer tr_timer;
    (void)do_transient(*setup_engine, 0);
    const double tr_cost = tr_timer.seconds();
    // Sacrificial samples (item index past the scheduled range) so the
    // estimate never warms a scheduled cold key.
    util::Timer cold_timer;
    (void)do_cold_fallback(*setup_engine, cold_count);
    const double cold_cost = cold_timer.seconds();
    util::Timer write_timer;
    (void)do_registry_write(*setup_engine, write_count);
    const double write_cost = write_timer.seconds();
    const double serial_estimate = per_class * (freq_cost + par_cost) +
                                   transient_count * tr_cost + cold_count * cold_cost +
                                   write_count * write_cost;
    const double duration = std::max(0.2, 1.5 * serial_estimate / workers);
    std::printf("open loop: %zu requests over %.2f s (serial estimate %.2f s)\n",
                schedule.size(), duration, serial_estimate);

    std::mt19937 rng(42);
    std::shuffle(schedule.begin(), schedule.end(), rng);
    {
        std::exponential_distribution<double> exp_gap(1.0);
        double t = 0.0;
        for (Request& r : schedule) {
            t += exp_gap(rng);
            r.arrival_seconds = t;
        }
        for (Request& r : schedule) r.arrival_seconds *= duration / t;  // normalise span
    }

    std::vector<util::LatencyHistogram> hist(kClasses);
    util::LatencyHistogram warm_hist;  // warm_freq + warm_parametric combined
    // Per-request answer slots for the bit-identity replay (distinct slots,
    // no synchronisation needed).
    std::vector<std::vector<la::ZMatrix>> freq_answers(static_cast<std::size_t>(per_class));
    std::vector<rom::ServeResponse> par_answers(static_cast<std::size_t>(per_class));

    {
        std::atomic<int> next{0};
        const Clock::time_point epoch = Clock::now() + std::chrono::milliseconds(10);
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&] {
                for (int i = next.fetch_add(1); i < static_cast<int>(schedule.size());
                     i = next.fetch_add(1)) {
                    const Request& req = schedule[static_cast<std::size_t>(i)];
                    const Clock::time_point arrival =
                        epoch + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(req.arrival_seconds));
                    std::this_thread::sleep_until(arrival);
                    switch (req.cls) {
                        case Cls::warm_freq:
                            freq_answers[static_cast<std::size_t>(req.item)] =
                                do_warm_freq(engine, req.item);
                            break;
                        case Cls::warm_parametric:
                            par_answers[static_cast<std::size_t>(req.item)] =
                                do_warm_parametric(engine, req.item);
                            break;
                        case Cls::transient: (void)do_transient(engine, req.item); break;
                        case Cls::cold_fallback:
                            (void)do_cold_fallback(engine, req.item);
                            break;
                        case Cls::registry_write:
                            (void)do_registry_write(engine, req.item);
                            break;
                    }
                    // Open-loop latency: completion minus SCHEDULED arrival,
                    // so time spent queued behind a busy engine counts.
                    const double seconds =
                        std::chrono::duration<double>(Clock::now() - arrival).count();
                    hist[static_cast<int>(req.cls)].record(seconds);
                    if (req.cls == Cls::warm_freq || req.cls == Cls::warm_parametric)
                        warm_hist.record(seconds);
                }
            });
        for (std::thread& th : pool) th.join();
    }

    // ---------------------------------------------------------------------
    // Phase 3 -- serial replay: the coalescing bit-identity contract.
    // ---------------------------------------------------------------------
    bool bits_ok = true;
    const auto serial_engine = twin_engine();
    const auto same = [](const std::vector<la::ZMatrix>& a, const std::vector<la::ZMatrix>& b) {
        if (a.size() != b.size()) return false;
        for (std::size_t g = 0; g < a.size(); ++g) {
            if (a[g].rows() != b[g].rows() || a[g].cols() != b[g].cols()) return false;
            for (int r = 0; r < a[g].rows(); ++r)
                for (int c = 0; c < a[g].cols(); ++c)
                    if (a[g](r, c) != b[g](r, c)) return false;
        }
        return true;
    };
    for (int i = 0; i < per_class; ++i) {
        bits_ok = bits_ok &&
                  same(freq_answers[static_cast<std::size_t>(i)], do_warm_freq(*serial_engine, i));
        const rom::ServeResponse serial = do_warm_parametric(*serial_engine, i);
        bits_ok = bits_ok && serial.member == par_answers[static_cast<std::size_t>(i)].member &&
                  same(par_answers[static_cast<std::size_t>(i)].response, serial.response);
    }
    inv.require(bits_ok, "concurrent (possibly coalesced) answers are bit-identical to "
                         "serial replay");

    // ---------------------------------------------------------------------
    // Accounting: coalescing must never lose or double-count a request.
    // ---------------------------------------------------------------------
    const rom::ServeStats stats = engine.stats();
    long expected_freq = 0, expected_points = 0;
    const auto count_freq = [&](int i) {
        ++expected_freq;
        expected_points += static_cast<long>(grids[static_cast<std::size_t>(i % 4)].size());
    };
    for (int round = 0; round < closed_rounds; ++round)
        for (int i = 0; i < saturation_requests; ++i)
            if (i % 4 == 0 || i % 4 == 2) count_freq(i);
    for (int i = 0; i < 8; ++i)
        if (i % 4 == 0 || i % 4 == 2) count_freq(i);
    for (int i = 0; i < per_class; ++i) count_freq(i);
    const long expected_par =
        static_cast<long>(closed_rounds * closed_par + 2) +  // +2 warm-up ops (i=1,5)
        per_class + cold_count;
    const long expected_tr = static_cast<long>(closed_rounds * closed_tr + 2) + transient_count;
    const bool accounting_ok =
        stats.frequency_queries == expected_freq && stats.frequency_points == expected_points &&
        stats.parametric_queries == expected_par && stats.parametric_fallbacks == cold_count &&
        stats.transient_queries == expected_tr &&
        stats.transient_waveforms == 2 * expected_tr;
    inv.require(accounting_ok, "engine counters match the issued request counts exactly");
    inv.require(stats.solver.max_factor_dim < plant.order(),
                "serving never factors at full order");
    std::printf("\ncoalescing: %ld joined queries, %ld merged batches, %ld deduped points\n",
                stats.coalesced_queries, stats.coalesced_batches, stats.deduped_points);
    if (!accounting_ok)
        std::fprintf(stderr,
                     "counters: freq %ld/%ld points %ld/%ld par %ld/%ld fall %ld/%d tr %ld/%ld\n",
                     stats.frequency_queries, expected_freq, stats.frequency_points,
                     expected_points, stats.parametric_queries, expected_par,
                     stats.parametric_fallbacks, cold_count, stats.transient_queries,
                     expected_tr);

    // ---------------------------------------------------------------------
    // Phase 4 (--daemon) -- the same mix over loopback, spelled as wire
    // requests. The daemon runs its OWN engine + registry; a fresh serial
    // reference engine resolves the same BuildSpecs, so byte-equality of
    // the responses pins the unified in-process/on-the-wire API.
    // ---------------------------------------------------------------------
    bool daemon_bits_ok = true;
    bool daemon_drain_ok = true;
    bool daemon_admission_ok = true;
    long daemon_request_count = 0;
    util::LatencyHistogram daemon_hist;
    if (run_daemon) {
        const auto make_serving_engine = [&] {
            auto eng = std::make_shared<rom::ServeEngine>(
                std::make_shared<rom::Registry>(ropt));
            eng->set_spec_resolver(resolver);
            eng->host_family(hosted, popt);  // fallback hooks live daemon-side
            return eng;
        };

        std::vector<rom::WaveformSpec> wire_waveforms;
        for (int s = 0; s < 2; ++s)
            wire_waveforms.push_back(
                rom::WaveformSpec::pulse(0.4 + 0.05 * s, 0.5, 1.0, 2.0 + 0.2 * s, 1.5));
        const auto wire_request = [&](Cls cls, int i) {
            rom::ServeRequest req;
            req.tenant = "bench";
            switch (cls) {
                case Cls::warm_freq: {
                    const int k = (i % 2 == 0) ? 0 : 1 + (i / 2) % (kKeyedModels - 1);
                    req.body = rom::FrequencySweepRequest{
                        model_spec("nltl_load", k), grids[static_cast<std::size_t>(i % 4)]};
                    break;
                }
                case Cls::warm_parametric: {
                    rom::ParametricQueryRequest pq;
                    pq.family_id = family.family_id;
                    pq.coords = warm_points[static_cast<std::size_t>(i) % warm_points.size()];
                    pq.grid = grids[static_cast<std::size_t>(i % 4)];
                    req.body = pq;
                    break;
                }
                case Cls::transient: {
                    rom::TransientBatchRequest tb;
                    tb.model = model_spec("nltl_load", i % kKeyedModels);
                    tb.inputs = wire_waveforms;
                    tb.options = topt;
                    req.body = tb;
                    break;
                }
                case Cls::cold_fallback: {
                    rom::ParametricQueryRequest pq;
                    pq.family_id = family.family_id;
                    pq.coords = cold_points[static_cast<std::size_t>(i) % cold_points.size()];
                    pq.grid = grids[0];
                    pq.tol = cold_tol;
                    req.body = pq;
                    break;
                }
                default:
                    req.body = rom::CertificateRequest{model_spec("nltl_load_write", i)};
                    break;
            }
            return req;
        };

        // Round-robin interleave of the open-loop class mix.
        std::vector<rom::ServeRequest> wire_requests;
        {
            std::vector<std::pair<Cls, int>> counts = {
                {Cls::warm_freq, per_class},
                {Cls::warm_parametric, per_class},
                {Cls::transient, std::max(4, per_class / 2)},
                {Cls::cold_fallback, std::max(2, per_class / 8)},
                {Cls::registry_write, std::max(2, per_class / 8)}};
            for (int i = 0; true; ++i) {
                bool any = false;
                for (auto& [cls, n] : counts)
                    if (i < n) {
                        wire_requests.push_back(wire_request(cls, i));
                        any = true;
                    }
                if (!any) break;
            }
        }
        daemon_request_count = static_cast<long>(wire_requests.size());

        auto daemon_engine = make_serving_engine();
        net::DaemonOptions dopt;
        dopt.workers = workers;
        dopt.max_queue_depth = wire_requests.size() + 1;  // measure, don't shed
        net::Daemon daemon(daemon_engine, dopt);
        daemon.start();
        std::printf("\ndaemon: %zu wire requests x %d clients on 127.0.0.1:%u\n",
                    wire_requests.size(), workers, daemon.port());

        std::vector<std::string> wire_answers(wire_requests.size());
        {
            std::vector<std::thread> clients;
            clients.reserve(static_cast<std::size_t>(workers));
            for (int c = 0; c < workers; ++c) {
                clients.emplace_back([&, c] {
                    net::ServeClient client("127.0.0.1", daemon.port());
                    for (std::size_t i = static_cast<std::size_t>(c); i < wire_requests.size();
                         i += static_cast<std::size_t>(workers)) {
                        const auto t0 = Clock::now();
                        wire_answers[i] =
                            client.call_raw(rom::encode_request(wire_requests[i]));
                        daemon_hist.record(std::chrono::duration<double>(Clock::now() - t0)
                                               .count());
                    }
                });
            }
            for (std::thread& t : clients) t.join();
        }

        // Over-budget tenant: a second daemon on the SAME engine with a
        // starved token bucket. Exactly `burst` requests pass; the rest must
        // come back as typed serve_overloaded responses on a live
        // connection, never a drop or a disconnect.
        {
            net::DaemonOptions lopt;
            lopt.workers = 1;
            lopt.tenant_rate = 0.001;
            lopt.tenant_burst = 2.0;
            net::Daemon limited(daemon_engine, lopt);
            limited.start();
            net::ServeClient probe("127.0.0.1", limited.port());
            int ok = 0, typed_overloaded = 0;
            for (int i = 0; i < 6; ++i) {
                rom::ServeRequest req;
                req.tenant = "overbudget";
                req.body = rom::CertificateRequest{model_spec("nltl_load", 0)};
                const rom::ServeResponse resp = probe.call(req);
                if (resp.ok())
                    ++ok;
                else if (resp.error.code == util::ErrorCode::serve_overloaded)
                    ++typed_overloaded;
            }
            limited.request_stop();
            limited.wait();
            daemon_admission_ok = ok == 2 && typed_overloaded == 4 &&
                                  limited.stats().overloaded_tenant == 4;
            inv.require(daemon_admission_ok,
                        "over-budget tenant gets typed Overloaded rejections");
        }

        daemon.request_stop();
        daemon.wait();
        const net::DaemonStats dstats = daemon.stats();
        daemon_drain_ok = dstats.requests_admitted == daemon_request_count &&
                          dstats.responses_sent == dstats.requests_admitted &&
                          dstats.protocol_errors == 0;
        inv.require(daemon_drain_ok, "daemon drains to requests == responses on stop");

        // Serial reference: a fresh engine answers the SAME wire requests
        // in-process; encode_response of its answers must equal the bytes
        // the daemon sent (the unified-API analogue of phase 3).
        auto reference = make_serving_engine();
        for (std::size_t i = 0; i < wire_requests.size(); ++i) {
            const std::string expected =
                rom::encode_response(reference->serve(wire_requests[i]));
            if (wire_answers[i] != expected) daemon_bits_ok = false;
        }
        inv.require(daemon_bits_ok,
                    "wire answers are bit-identical to in-process serve() answers");
        std::printf("daemon latency: p50 %.3e s, p95 %.3e s, p99 %.3e s; "
                    "bits %s, drain %s, admission %s\n",
                    daemon_hist.percentile(50.0), daemon_hist.percentile(95.0),
                    daemon_hist.percentile(99.0), daemon_bits_ok ? "ok" : "MISMATCH",
                    daemon_drain_ok ? "ok" : "BROKEN", daemon_admission_ok ? "ok" : "BROKEN");
    }

    // ---------------------------------------------------------------------
    // Gates + JSON.
    // ---------------------------------------------------------------------
    const unsigned hw = std::thread::hardware_concurrency();
    const bool gate_enforced = hw >= 8 && workers >= 8;
    const bool scaling_ok = !gate_enforced || scaling >= 3.0;
    const double warm_p50 = warm_hist.percentile(50.0);
    const double warm_p99 = warm_hist.percentile(99.0);
    const double tail_ratio = warm_p50 > 0.0 ? warm_p99 / warm_p50 : 0.0;
    const bool tail_ok = !gate_enforced || tail_ratio <= 10.0;
    inv.require(scaling_ok, "saturation throughput scales >= 3x at 8 workers");
    inv.require(tail_ok, "warm p99 stays within 10x of warm p50");
    std::printf("warm latency: p50 %.3e s, p99 %.3e s (ratio %.1fx); gates %s\n", warm_p50,
                warm_p99, tail_ratio, gate_enforced ? "ENFORCED" : "recorded only");
    for (int c = 0; c < kClasses; ++c)
        std::printf("  %-16s n=%-5ld p50 %.3e  p95 %.3e  p99 %.3e  max %.3e\n", kClassNames[c],
                    hist[c].count(), hist[c].percentile(50.0), hist[c].percentile(95.0),
                    hist[c].percentile(99.0), hist[c].max_seconds());

    bench::Json json;
    json.str("bench", "serve_load");
    bench::add_env_header(json);
    json.num("workers", workers);
    json.num("requests_per_class", per_class);
    json.num("open_loop_requests", static_cast<long>(schedule.size()));
    json.num("open_loop_duration_seconds", duration);
    json.num("saturation_requests", saturation_requests);
    json.num("saturation_throughput_1w_rps", throughput_1);
    json.num("saturation_throughput_nw_rps", throughput_n);
    json.num("serve_scaling_ratio", scaling);
    json.boolean("serve_scaling_gate_enforced", gate_enforced);
    json.boolean("serve_scaling_ok", scaling_ok);
    json.num("warm_tail_ratio", tail_ratio);
    json.boolean("warm_tail_gate_enforced", gate_enforced);
    json.boolean("warm_tail_ok", tail_ok);
    bench::add_latency_fields(json, "warm", warm_hist);
    for (int c = 0; c < kClasses; ++c)
        bench::add_latency_fields(json, kClassNames[c], hist[c]);
    json.num("coalesced_queries", stats.coalesced_queries);
    json.num("coalesced_batches", stats.coalesced_batches);
    json.num("deduped_points", stats.deduped_points);
    json.boolean("bit_identity_ok", bits_ok);
    json.boolean("stats_accounting_ok", accounting_ok);
    if (run_daemon) {
        json.num("daemon_requests", daemon_request_count);
        bench::add_latency_fields(json, "daemon", daemon_hist);
        json.boolean("daemon_bit_identity_ok", daemon_bits_ok);
        json.boolean("daemon_drain_ok", daemon_drain_ok);
        json.boolean("daemon_admission_typed_ok", daemon_admission_ok);
    }
    if (!bench::write_json(json, json_path)) return 1;
    return inv.exit_code();
}
