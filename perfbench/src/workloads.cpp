// The three workloads. Each times its set-up from process start to its
// first timed operation, runs its timed loop for --seconds, then its
// correctness checks. run.py runs the set-up alone in two more processes
// (--setup-only), and setup_s is the median of the three.
//
//   build      closed loop of cold pipeline passes (bench.hpp) against one
//              daemon: moment chains, sparse LU, mor/pmor, rom writes and
//              cold opens do the work.
//   transient  ServeEngine::serve transient batches on the three paper ROMs
//              against ode::simulate_batch on their full models.
//   wire       open-loop Poisson arrivals at a fixed ladder of absolute
//              rates over <= 4 connections to a warm loopback daemon.
//
// Every workload ends with the wire ladder on its own fresh artifacts (in
// `build` and `transient` a shorter one), so latency_p50_ms means the same
// thing in all three; `build` and `wire` then run rounds of the transient
// workload's rate loop (RateLoop), so the waveform rates do too.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "pmor/family_builder.hpp"
#include "rom/family_artifact.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

std::string dir_for(const Ctx& ctx, const std::string& name) { return ctx.work_dir + "/" + name; }

/// Rate-loop rounds `build` and `wire` run after their timed phase.
constexpr int kRateRounds = 6;

/// Record setup_s, timed from process start and scaled to the reference
/// host speed. True when the run stops here.
bool end_setup(Ctx& ctx) {
    const double seconds = process_timer().seconds();
    for (int i = 0; i < 5; ++i) ctx.speed.sample(now_s());
    ctx.metrics.set("setup_s", seconds * ctx.speed.factor(0.0, now_s()), "s");
    return ctx.setup_only;
}

void report_engine(Ctx& ctx, const rom::ServeStats& s, const rom::ServeStats& base) {
    Metrics& m = ctx.metrics;
    const double fq = static_cast<double>(s.frequency_queries - base.frequency_queries);
    const double fp = static_cast<double>(s.frequency_points - base.frequency_points);
    const double cq = static_cast<double>(s.coalesced_queries - base.coalesced_queries);
    const double dp = static_cast<double>(s.deduped_points - base.deduped_points);
    const double lookups = static_cast<double>(s.registry.lookups - base.registry.lookups);
    const double hits = static_cast<double>(s.registry.memory_hits - base.registry.memory_hits);
    m.set("rom.frequency_queries", fq, "count");
    m.set("rom.coalesced_queries", cq, "count");
    m.set("rom.coalesced_ratio", fq > 0 ? cq / fq : 0.0, "ratio");
    m.set("rom.frequency_points", fp, "count");
    m.set("rom.deduped_points", dp, "count");
    m.set("rom.dedup_ratio", fp > 0 ? dp / fp : 0.0, "ratio");
    m.set("rom.registry_lookups", lookups, "count");
    m.set("rom.registry_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
    m.set("rom.registry_builds", static_cast<double>(s.registry.builds - base.registry.builds),
          "count");
    const la::SolverStats& v = s.solver;
    const double lk = static_cast<double>(v.cache_hits + v.cache_misses -
                                          base.solver.cache_hits - base.solver.cache_misses);
    m.set("la.factorizations",
          static_cast<double>(v.factorizations - base.solver.factorizations), "count");
    m.set("la.solves", static_cast<double>(v.solves - base.solver.solves), "count");
    m.set("la.cache_lookups", lk, "count");
    m.set("la.cache_hit_ratio",
          lk > 0 ? static_cast<double>(v.cache_hits - base.solver.cache_hits) / lk : 0.0,
          "ratio");
    m.set("la.max_factor_dim", v.max_factor_dim, "count");
}

void report_daemon(Ctx& ctx, const net::DaemonStats& d) {
    Metrics& m = ctx.metrics;
    m.set("net.admitted", static_cast<double>(d.requests_admitted), "count");
    m.set("net.responses", static_cast<double>(d.responses_sent), "count");
    m.set("net.overloaded", static_cast<double>(d.overloaded_queue + d.overloaded_tenant),
          "count");
    m.set("net.protocol_errors", static_cast<double>(d.protocol_errors), "count");
}

void check_drained(Ctx& ctx, const net::DaemonStats& d) {
    ctx.ledger.check(d.requests_admitted == d.responses_sent && d.protocol_errors == 0,
                     "daemon drains to requests_admitted == responses_sent (" +
                         std::to_string(d.requests_admitted) + " vs " +
                         std::to_string(d.responses_sent) + ")");
}

/// The transient request for one paper circuit's ROM artifact: wire-form
/// WaveformSpecs for single-input drives, in-process closures otherwise.
rom::ServeRequest transient_request(const PaperCircuit& pc, const std::string& path,
                                    const std::vector<Wave>& waves) {
    rom::TransientBatchRequest tb;
    tb.model = rom::ModelRef::from_artifact(path);
    tb.options = pc.transient;
    for (const Wave& w : waves) {
        if (w.parts.size() == 1)
            tb.inputs.push_back(w.parts.front());
        else
            tb.raw_inputs.push_back(w.instantiate());
    }
    rom::ServeRequest req;
    req.body = std::move(tb);
    return req;
}

// ---------------------------------------------------------------------------
// The wire ladder.
// ---------------------------------------------------------------------------

/// The fixed ladder of absolute request rates [1/s], doubling from the
/// nominal rate, with each rung's share of --seconds in `wire`. Latency is
/// reported at the nominal rung. The ladder stops after the first rung at or
/// above the nominal one that misses the limit; the offered rate of the
/// highest rung that passes is net.max_rate_rps.
struct LadderRung {
    double rate;
    double share;
};
constexpr LadderRung kLadder[] = {{250.0, 0.5},   {500.0, 0.05},   {1000.0, 0.05},
                                  {2000.0, 0.05}, {4000.0, 0.05},  {8000.0, 0.05},
                                  {16000.0, 0.05}, {32000.0, 0.05}};
constexpr int kRungs = static_cast<int>(sizeof(kLadder) / sizeof(kLadder[0]));
constexpr int kNominal = 0;
/// p99 limit 20 ms (the nominal rung's p99 stayed under 8 ms even with
/// heavy host steal); lag may rise by 10 ms across a rung.
constexpr LadderLimits kLimits{0.020, 0.010};
/// `build` and `transient` run the same ladder at this share of its length.
constexpr double kShortLadder = 0.5;
/// A rung whose generator runs this far behind is overloaded: it stops
/// sending. Unsent requests are misses, and at the nominal rung failures.
constexpr double kAbortLag = 0.25;
constexpr double kSpin = 200e-6;  ///< senders spin this long before a send is due
constexpr int kHotPool = 96;    // > the engine's 64-slot factorisation cache
constexpr int kColdPool = 128;

/// Request classes of the wire mix.
enum Kind { hot_sweep, cold_sweep, parametric, mc_batch, certificate, transient, kKinds };
constexpr const char* kKindNames[kKinds] = {"hot_sweep",  "cold_sweep",  "parametric",
                                            "mc_batch",   "certificate", "transient"};
/// A hot-sweep arrival is a burst of kBurst requests at one instant, over
/// windows 4 shifts apart in one pool: they reach the engine together, so
/// they coalesce and share points.
constexpr int kBurst = 4;
/// Arrival weights. By request the mix is 25% hot sweeps, 25% cold sweeps,
/// 20% parametric queries, 5% Monte-Carlo batches, 20% certificates and
/// 5% transient batches.
constexpr double kArrivalWeight[kKinds] = {25.0 / kBurst, 25.0, 20.0, 5.0, 20.0, 5.0};

/// Mean requests per arrival.
double requests_per_arrival() {
    double w = 0.0;
    for (double x : kArrivalWeight) w += x;
    return (w + (kBurst - 1) * kArrivalWeight[hot_sweep]) / w;
}

struct WirePlan {
    std::vector<std::string> rom_paths;  ///< nltl (hot), varistor, rf
    std::vector<std::vector<la::Complex>> pools;  ///< per ROM: shift pool
    std::string family_id;
    std::string family_path;
    double family_tol = 0.0;
    std::vector<pmor::Point> points;  ///< held-out points a member certifies
};

/// Shift pools for the pass's three ROM artifacts.
void add_roms(Ctx& ctx, const PassResult& pass, WirePlan& plan) {
    for (std::size_t c = 0; c < paper_circuits().size(); ++c) {
        plan.rom_paths.push_back(pass.artifacts[c].path);
        plan.pools.push_back(random_grid(ctx.rng, c == 0 ? kHotPool : kColdPool, 0.05, 2.0));
    }
}

/// The `build` and `transient` ladder plan: the pass's fresh artifacts, with
/// the mesh family serving the parametric kinds.
WirePlan pass_plan(Ctx& ctx, const PassResult& pass) {
    WirePlan plan;
    add_roms(ctx, pass, plan);
    const Artifact& mesh = pass.artifacts.back();
    plan.family_id = mesh.family_id;
    plan.family_path = mesh.path;
    plan.family_tol = mesh.family_tol;
    const pmor::FamilyDesign design = mesh_design(mesh.family_id);
    for (int p = 0; p < 48; ++p) plan.points.push_back(random_point(ctx.rng, design.space));
    return plan;
}

/// Draw one arrival: appends its requests to `out` and returns their kind.
int draw_arrival(std::mt19937_64& rng, const WirePlan& plan, std::vector<rom::ServeRequest>* out) {
    double total = 0.0;
    for (double x : kArrivalWeight) total += x;
    double u = uniform(rng, 0.0, total);
    int kind = 0;
    while (kind + 1 < kKinds && u >= kArrivalWeight[kind]) u -= kArrivalWeight[kind++];
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(uniform(rng, 0.0, static_cast<double>(n))) % n;
    };
    const auto sweep = [&](std::size_t model, std::vector<la::Complex> grid) {
        rom::ServeRequest req;
        req.body = rom::FrequencySweepRequest{rom::ModelRef::from_artifact(plan.rom_paths[model]),
                                              std::move(grid)};
        out->push_back(std::move(req));
    };
    switch (kind) {
        case hot_sweep: {
            const std::size_t start = 4 * pick(kHotPool / 4);
            for (std::size_t b = 0; b < kBurst; ++b) {
                std::vector<la::Complex> grid;
                for (std::size_t j = 0; j < 16; ++j)
                    grid.push_back(plan.pools[0][(start + 4 * b + j) % kHotPool]);
                sweep(0, std::move(grid));
            }
            break;
        }
        case cold_sweep: {
            // Disjoint 16-point blocks of another model's pool.
            const std::size_t m = 1 + pick(plan.rom_paths.size() - 1);
            const std::size_t block = pick(kColdPool / 16);
            sweep(m, std::vector<la::Complex>(plan.pools[m].begin() + 16 * block,
                                              plan.pools[m].begin() + 16 * (block + 1)));
            break;
        }
        case parametric:
            out->push_back(family_request(plan.family_id, plan.points[pick(plan.points.size())],
                                          band_grid(8, 0.25, 2.0)));
            break;
        case mc_batch: {
            rom::ParametricBatchRequest pb;
            pb.family_id = plan.family_id;
            for (int p = 0; p < 8; ++p) pb.coords.push_back(plan.points[pick(plan.points.size())]);
            pb.grid = band_grid(8, 0.25, 2.0);
            pb.allow_fallback = false;
            rom::ServeRequest req;
            req.body = std::move(pb);
            out->push_back(std::move(req));
            break;
        }
        case certificate: {
            rom::ServeRequest req;
            req.body = rom::CertificateRequest{
                rom::ModelRef::from_artifact(plan.rom_paths[pick(plan.rom_paths.size())])};
            out->push_back(std::move(req));
            break;
        }
        default: {
            rom::TransientBatchRequest tb;
            tb.model = rom::ModelRef::from_artifact(plan.rom_paths[0]);
            for (int w = 0; w < 2; ++w) {
                const double on = uniform(rng, 0.1, 0.3);
                tb.inputs.push_back(rom::WaveformSpec::pulse(uniform(rng, 0.4, 0.6), on, 0.2,
                                                             on + 0.3, 0.2));
            }
            tb.options.t_end = 1.0;
            tb.options.dt = 1e-2;
            tb.options.record_stride = 10;
            rom::ServeRequest req;
            req.body = std::move(tb);
            out->push_back(std::move(req));
            break;
        }
    }
    for (rom::ServeRequest& req : *out) req.tenant = "perfbench";
    return kind;
}

/// Keeps every vCPU busy while a rung runs, at SCHED_IDLE priority: any
/// other thread that wakes preempts a spinner at once, but the vCPU never
/// halts. On a shared VM, waking a halted vCPU goes through the hypervisor,
/// and those wake-ups (three per request: the daemon's IO thread, a
/// worker, the client) set the latency at low rates. Their cost moved the
/// nominal p50 by 30% between runs minutes apart, with the host's core
/// speed unchanged.
class Spinners {
public:
    explicit Spinners(int n) {
        for (int i = 0; i < n; ++i)
            threads_.emplace_back([this] {
                sched_param param{};
                (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
                while (!stop_.load(std::memory_order_relaxed)) {
                }
            });
    }
    ~Spinners() {
        stop_.store(true);
        for (std::thread& t : threads_) t.join();
    }
    Spinners(const Spinners&) = delete;
    Spinners& operator=(const Spinners&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

/// One rung as run: its calls, schedule and per-call timings.
struct RungRun {
    double rate = 0.0;
    double span = 0.0;
    std::vector<WireCall> calls;
    std::vector<int> kinds;
    std::vector<double> scheduled, sent, done;  ///< seconds from the rung epoch
    std::vector<char> unsent;                    ///< skipped after the rung fell behind
};

RungRun run_rung(Ctx& ctx, std::vector<net::ServeClient>& clients, double rate, double span,
                 const WirePlan& plan, long* next_id) {
    RungRun run;
    run.rate = rate;
    run.span = span;
    std::exponential_distribution<double> gap(rate / requests_per_arrival());
    std::vector<rom::ServeRequest> reqs;
    for (double t = gap(ctx.rng); t < span; t += gap(ctx.rng)) {
        reqs.clear();
        const int kind = draw_arrival(ctx.rng, plan, &reqs);
        for (rom::ServeRequest& req : reqs) {
            WireCall call;
            call.request = std::move(req);
            call.payload = rom::encode_request(call.request);
            call.request_id = (*next_id)++;
            run.calls.push_back(std::move(call));
            run.kinds.push_back(kind);
            run.scheduled.push_back(t);
        }
    }
    const std::size_t n = run.calls.size();
    run.sent.assign(n, 0.0);
    run.done.assign(n, 0.0);
    run.unsent.assign(n, 0);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> behind{false};
    const Spinners spinners(static_cast<int>(clients.size()));
    const double epoch = now_s() + 0.02;
    std::vector<std::thread> senders;
    for (std::size_t c = 0; c < clients.size(); ++c)
        senders.emplace_back([&, c] {
            for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
                const double due = epoch + run.scheduled[i];
                const double wait = due - now_s();
                // Sleep, then spin the last stretch, so the send time is the
                // schedule's and not the sender thread's wake-up latency.
                if (wait > kSpin)
                    std::this_thread::sleep_for(std::chrono::duration<double>(wait - kSpin));
                while (now_s() < due) {
                }
                if (behind.load() || -wait > kAbortLag) {
                    behind.store(true);
                    run.unsent[i] = 1;
                    continue;
                }
                run.sent[i] = now_s() - epoch;
                {
                    Scope s(ctx.tracer, "net.call", run.calls[i].request_id);
                    send(clients[c], run.calls[i]);
                }
                run.done[i] = now_s() - epoch;
            }
        });
    for (std::thread& t : senders) t.join();
    return run;
}

/// A transport-level answer that decodes to a success.
bool answered_ok(const WireCall& c) {
    if (!c.error.empty() || c.answer.empty()) return false;
    try {
        return rom::decode_response(c.answer).ok();
    } catch (const std::exception&) {
        return false;
    }
}

/// The rung as the ladder rule sees it: `ok[k]` says whether call k was
/// answered correctly; unsent and failed calls are misses.
Rung to_rung(const RungRun& run, const std::vector<char>& ok) {
    Rung r;
    r.rate = run.rate;
    r.offered_rate = static_cast<double>(run.calls.size()) / run.span;
    for (std::size_t k = 0; k < run.calls.size(); ++k) {
        if (run.unsent[k]) {
            ++r.failed;
            continue;
        }
        r.lag.push_back(run.sent[k] - run.scheduled[k]);
        if (ok[k])
            r.latency.add(run.done[k] - run.scheduled[k]);
        else
            ++r.failed;
    }
    return r;
}

/// What a ladder measured beyond the metrics it sets.
struct LadderResult {
    rom::ServeStats base, stats;  ///< engine counters around the nominal rung
    Samples plain_nominal;        ///< traced runs: the nominal rung again, untraced
    Samples nominal;              ///< latency at the nominal rung
};

/// Run the ladder against `host` over ctx.threads connections, lowest rate
/// first, stopping after the first rung at or above the nominal rate that
/// misses the limit. Then replay every sent request serially on a fresh
/// in-process engine: each answer must be byte-identical, and the ladder
/// must cause no registry builds. Sets latency_p50_ms and the per-layer wire
/// and serve() metrics.
LadderResult serve_ladder(Ctx& ctx, Host& host, const WirePlan& plan, double scale,
                          bool repeat_nominal) {
    LadderResult out;
    std::vector<net::ServeClient> clients;
    for (int c = 0; c < ctx.threads; ++c) clients.emplace_back("127.0.0.1", host.daemon->port());
    const long builds_before = host.engine->stats().registry.builds;
    long next_id = 1000000;
    std::vector<RungRun> runs;
    for (int i = 0; i < kRungs; ++i) {
        if (i == kNominal) out.base = host.engine->stats();
        runs.push_back(run_rung(ctx, clients, kLadder[i].rate, scale * kLadder[i].share * ctx.seconds,
                                plan, &next_id));
        if (i == kNominal) out.stats = host.engine->stats();
        for (int k = 0; k < 2; ++k) ctx.speed.sample(now_s());
        std::vector<char> ok;
        for (std::size_t k = 0; k < runs.back().calls.size(); ++k)
            ok.push_back(!runs.back().unsent[k] && answered_ok(runs.back().calls[k]));
        if (i >= kNominal && !rung_passes(to_rung(runs.back(), ok), kLimits)) break;
    }
    if (repeat_nominal) {
        ctx.tracer.set_enabled(false);
        const RungRun plain = run_rung(ctx, clients, kLadder[kNominal].rate,
                                       scale * kLadder[kNominal].share * ctx.seconds, plan,
                                       &next_id);
        ctx.tracer.set_enabled(true);
        for (std::size_t k = 0; k < plain.calls.size(); ++k)
            if (!plain.unsent[k]) out.plain_nominal.add(plain.done[k] - plain.scheduled[k]);
    }
    ctx.ledger.check(host.engine->stats().registry.builds == builds_before,
                     "no registry builds while serving the ladder");

    auto reference = make_engine("");
    reference->host_family(rom::FamilyArtifact::open(plan.family_path));
    std::vector<Samples> serve_us(kKinds);
    std::vector<Rung> rungs;
    Samples wire_low, serve_low;
    for (std::size_t ri = 0; ri < runs.size(); ++ri) {
        const RungRun& run = runs[ri];
        std::vector<char> ok(run.calls.size(), 0);
        std::vector<Samples> by_kind(kKinds);
        for (std::size_t k = 0; k < run.calls.size(); ++k) {
            const WireCall& c = run.calls[k];
            if (run.unsent[k]) {
                if (static_cast<int>(ri) <= kNominal)
                    ctx.ledger.fail("request " + std::to_string(c.request_id) +
                                    " not sent: the generator fell behind at the nominal rate");
                continue;
            }
            const double t0 = now_s();
            const std::string expected = rom::encode_response(reference->serve(c.request));
            const double served = now_s() - t0;
            serve_us[static_cast<std::size_t>(run.kinds[k])].add(1e6 * served);
            ok[k] = c.answer == expected && answered_ok(c);
            ctx.ledger.check(ok[k], "wire answer " + std::to_string(c.request_id) +
                                        " differs from serial replay or failed" +
                                        (c.error.empty() ? "" : ": " + c.error));
            if (ok[k])
                by_kind[static_cast<std::size_t>(run.kinds[k])].add(run.done[k] -
                                                                     run.scheduled[k]);
            if (ri == 0) {
                wire_low.add(run.done[k] - run.sent[k]);
                serve_low.add(served);
            }
        }
        rungs.push_back(to_rung(run, ok));
        const Rung& rung = rungs.back();
        Samples lag;
        for (double v : rung.lag) lag.add(v);
        std::printf("rung %6.0f/s: offered %7.1f/s, %zu answers, %ld misses, p50 %.3f ms, "
                    "p75 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms, lag p99 %.3f ms, %s\n",
                    rung.rate, rung.offered_rate, rung.latency.count(), rung.failed,
                    1e3 * rung.latency.median(), 1e3 * rung.latency.percentile(75.0),
                    1e3 * rung.latency.percentile(90.0), 1e3 * rung.latency.percentile(95.0),
                    1e3 * rung_p99(rung), 1e3 * lag.percentile(99.0),
                    rung_passes(rung, kLimits) ? "meets the limit" : "MISSES the limit");
        for (int k = 0; k < kKinds; ++k) {
            const Samples& s = by_kind[static_cast<std::size_t>(k)];
            std::printf("    %-12s %5zu answers, p50 %.3f ms, p90 %.3f ms\n", kKindNames[k],
                        s.count(), 1e3 * s.median(), 1e3 * s.percentile(90.0));
        }
    }

    const Rung& nominal = rungs.at(kNominal);
    out.nominal = nominal.latency;
    const Tail tail = tail_of(nominal.latency);
    const int best = highest_passing_rung(rungs, kLimits);
    const double max_rate = best >= 0 ? rungs[static_cast<std::size_t>(best)].offered_rate : 0.0;
    Samples lag;
    for (double v : nominal.lag) lag.add(v);
    Samples freq = serve_us[hot_sweep];
    freq.merge(serve_us[cold_sweep]);
    Metrics& m = ctx.metrics;
    m.set("latency_p50_ms", 1e3 * nominal.latency.median(), "ms");
    m.set("net.max_rate_rps", max_rate, "1/s");
    m.set("net.latency_tail_ms", 1e3 * tail.value, "ms");
    m.set("net.latency_tail_pct", tail.percentile, "pct");
    m.set("net.latency_samples", static_cast<double>(tail.count), "count");
    m.set("net.gen_lag_ms", 1e3 * lag.percentile(99.0), "ms");
    m.set("net.wire_overhead_us", 1e6 * (wire_low.median() - serve_low.median()), "us");
    m.set("rom.serve_freq_us", freq.median(), "us");
    m.set("rom.serve_parametric_us", serve_us[parametric].median(), "us");
    m.set("rom.serve_batch_us", serve_us[mc_batch].median(), "us");
    m.set("rom.serve_certificate_us", serve_us[certificate].median(), "us");
    m.set("rom.serve_transient_us", serve_us[transient].median(), "us");
    std::printf("ladder: nominal %.0f/s: p50 %.3f ms, p%g %.3f ms (%zu samples, %zu beyond); "
                "highest passing rung %.0f/s (offered %.1f/s)\n",
                kLadder[kNominal].rate, 1e3 * nominal.latency.median(), tail.percentile,
                1e3 * tail.value, tail.count, tail.beyond, best >= 0 ? kLadder[best].rate : 0.0,
                max_rate);
    const double fq = static_cast<double>(out.stats.frequency_queries - out.base.frequency_queries);
    std::printf("ladder: nominal rung coalesced %ld of %.0f sweeps, deduped %ld points\n",
                out.stats.coalesced_queries - out.base.coalesced_queries, fq,
                out.stats.deduped_points - out.base.deduped_points);
    return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// build
// ---------------------------------------------------------------------------

void run_build(Ctx& ctx) {
    // Set-up: daemon start, a stamp and a k3 = 0 reduction of every paper
    // circuit, a stamp of the mesh, and a warm-up pass over a small NLTL
    // (stamp -> reduce -> save -> first answer), so the timed passes start
    // warm.
    auto host = std::make_unique<Host>(dir_for(ctx, "build"), ctx.threads);
    for (const PaperCircuit& pc : paper_circuits()) {
        ctx.speed.sample(now_s());
        core::AtMorOptions linear_quadratic = pc.mor;
        linear_quadratic.k3 = 0;
        (void)core::reduce_associated(pc.stamp(), linear_quadratic);
    }
    const pmor::FamilyDesign mesh = mesh_design("warm-mesh");
    (void)mesh.build_system(mesh.space.center());
    const pmor::FamilyDesign warm = nltl_family_design("warm");
    core::AtMorOptions mor;
    mor.k1 = 4;
    mor.k2 = 2;
    mor.k3 = 0;
    mor.expansion_points = {la::Complex(1.0, 0.0)};
    const std::string path = host->dir + "/warm" + rom::kArtifactExtension;
    rom::save_model(core::reduce_associated(warm.build_system(warm.space.center()), mor), path);
    {
        net::ServeClient client("127.0.0.1", host->daemon->port());
        rom::ServeRequest req;
        req.body = rom::CertificateRequest{rom::ModelRef::from_artifact(path)};
        ctx.ledger.check(client.call(req).ok(), "build warm-up answer");
    }
    if (end_setup(ctx)) {
        check_drained(ctx, host->stop());
        return;
    }

    // Timed closed loop: one cold pass at a time until --seconds elapsed
    // (at least two, so every cold metric is a median).
    std::vector<PassResult> passes;
    Samples traced_pass, plain_pass;
    const double t_start = now_s();
    while (passes.size() < 2 || now_s() - t_start < ctx.seconds) {
        // The traced run alternates untraced and traced passes, so the span
        // overhead is measured on identical work.
        const bool traced = ctx.trace && passes.size() % 2 == 1;
        ctx.tracer.set_enabled(traced);
        const double p0 = now_s();
        passes.push_back(cold_pass(ctx, *host, "p" + std::to_string(passes.size())));
        (traced ? traced_pass : plain_pass).add(now_s() - p0);
    }
    ctx.tracer.set_enabled(ctx.trace);
    const LadderResult lr =
        serve_ladder(ctx, *host, pass_plan(ctx, passes.back()), kShortLadder, false);
    const net::DaemonStats dstats = host->stop();
    check_drained(ctx, dstats);
    verify_and_report(ctx, passes);
    RateLoop rates(ctx, passes.back());
    rates.run(kRateRounds, 0.0);
    rates.report();

    if (ctx.trace) {
        ctx.metrics.set("trace.overhead_frac",
                        traced_pass.empty() ? 0.0 : traced_pass.median() / plain_pass.median() - 1.0,
                        "ratio");
        report_engine(ctx, lr.stats, lr.base);
        // In `build` the solver layer works inside the reductions.
        const la::SolverStats& v = passes.back().reduce_solver;
        const double lk = static_cast<double>(v.cache_hits + v.cache_misses);
        ctx.metrics.set("la.factorizations", static_cast<double>(v.factorizations), "count");
        ctx.metrics.set("la.solves", static_cast<double>(v.solves), "count");
        ctx.metrics.set("la.cache_lookups", lk, "count");
        ctx.metrics.set("la.cache_hit_ratio", lk > 0 ? v.cache_hits / lk : 0.0, "ratio");
        ctx.metrics.set("la.max_factor_dim", v.max_factor_dim, "count");
        report_daemon(ctx, dstats);
        host.reset();
        probe_layers(ctx, passes.back());
    }
}

// ---------------------------------------------------------------------------
// The waveform rates
// ---------------------------------------------------------------------------

RateLoop::RateLoop(Ctx& ctx, const PassResult& pass)
    : ctx_(ctx),
      pass_(pass),
      engine_(make_engine("")),
      rom_s_(paper_circuits().size()),
      full_s_(paper_circuits().size()) {
    const std::vector<PaperCircuit>& circuits = paper_circuits();
    for (std::size_t c = 0; c < circuits.size(); ++c) {
        const rom::ServeResponse warm = engine_->serve(
            transient_request(circuits[c], pass.artifacts[c].path, {circuits[c].draw({ctx.rng})}));
        ctx.ledger.check(warm.ok(), circuits[c].name + " transient warm-up");
    }
    base_ = engine_->stats();
}

void RateLoop::run(int min_rounds, double seconds) {
    util::ThreadPool::set_global_threads(1);
    const long first = rounds_;
    const double t_start = now_s();
    while (rounds_ - first < min_rounds || now_s() - t_start < seconds) {
        const bool traced = ctx_.trace && rounds_ % 2 == 1;
        ctx_.tracer.set_enabled(traced);
        const double r0 = now_s();
        round();
        (traced ? traced_round_ : plain_round_).add(now_s() - r0);
    }
    ctx_.tracer.set_enabled(ctx_.trace);
    util::ThreadPool::set_global_threads(ctx_.threads);

    int max_order = 0;
    for (const Artifact& a : pass_.artifacts)
        if (a.model) max_order = std::max(max_order, a.model->order);
    const int dim = engine_->stats().solver.max_factor_dim;
    ctx_.ledger.check(dim <= max_order, "transient serving factors at ROM order (max_factor_dim " +
                                            std::to_string(dim) + ")");
}

void RateLoop::round() {
    const std::vector<PaperCircuit>& circuits = paper_circuits();
    // A probe sample before every transient and after the last one: each
    // transient is scaled by the two samples right around it, since a core
    // of a shared host runs at ~60% speed for a second or two at a time.
    const auto probe = [&] {
        const double at = now_s();
        ctx_.speed.sample(at);
        return at;
    };
    double at = probe();
    for (std::size_t c = 0; c < circuits.size(); ++c) {
        const PaperCircuit& pc = circuits[c];
        const long id = rounds_ * 16 + static_cast<long>(c);
        double rom_batch = 0.0, full_batch = 0.0;
        for (int b = 0; b < kBatch; ++b) {
            const Wave wave = pc.draw({ctx_.rng, b, kBatch});
            const rom::ServeRequest req = transient_request(pc, pass_.artifacts[c].path, {wave});
            const std::vector<ode::InputFn> input{wave.instantiate()};
            double t0 = thread_cpu_s();
            rom::ServeResponse resp;
            {
                Scope span(ctx_.tracer, "rom.serve_transient", id);
                resp = engine_->serve(req);
            }
            double t1 = thread_cpu_s();
            const double at_rom = probe();
            rom_batch += t1 - t0;
            rom_s_[c].add((t1 - t0) * ctx_.speed.factor(at, at_rom));

            std::vector<ode::TransientResult> full;
            t0 = thread_cpu_s();
            {
                Scope span(ctx_.tracer, "ode.full_batch", id);
                full = ode::simulate_batch(*pass_.fulls[c], input, pc.transient.to_options());
            }
            t1 = thread_cpu_s();
            at = probe();
            full_batch += t1 - t0;
            full_s_[c].add((t1 - t0) * ctx_.speed.factor(at_rom, at));

            if (!ctx_.ledger.check(resp.ok() && resp.transients.size() == 1,
                                   pc.name + " transient request: " + resp.error.message))
                continue;
            const ode::TransientResult& y = resp.transients.front();
            const double err = ode::peak_relative_error(full.front(), y);
            ctx_.ledger.check(err <= pc.tol, pc.name + " ROM trace error " + std::to_string(err) +
                                                 " above tolerance");
            counters_.steps += y.steps;
            counters_.newton_iterations += y.newton_iterations;
            counters_.factorizations += y.factorizations;
        }
        batch_s_.add(rom_batch);
        full_batch_s_.add(full_batch);
    }
    ++rounds_;
}

void RateLoop::report() const {
    const std::vector<PaperCircuit>& circuits = paper_circuits();
    Metrics& m = ctx_.metrics;
    m.set("rom_waveforms_per_s", mix_rate(rom_s_), "1/s");
    m.set("full_waveforms_per_s", mix_rate(full_s_), "1/s");
    std::printf("waveform rates: %ld rounds of %d drives per circuit, ROM %.2f/s, full %.2f/s "
                "at the reference host speed\n",
                rounds_, kBatch, mix_rate(rom_s_), mix_rate(full_s_));
    for (std::size_t c = 0; c < circuits.size(); ++c)
        std::printf("    %-9s ms per waveform at the reference speed: ROM mean %.2f (p50 %.2f), "
                    "full mean %.2f (p50 %.2f)\n",
                    circuits[c].name.c_str(), 1e3 * rom_s_[c].mean(), 1e3 * rom_s_[c].median(),
                    1e3 * full_s_[c].mean(), 1e3 * full_s_[c].median());
    if (!ctx_.trace) return;
    m.set("rom.transient_batch_ms", 1e3 * batch_s_.median(), "ms");
    m.set("ode.full_batch_s", full_batch_s_.median(), "s");
    const ode::TransientResult& n = counters_;
    m.set("ode.steps", static_cast<double>(n.steps), "count");
    m.set("ode.newton_iterations", static_cast<double>(n.newton_iterations), "count");
    m.set("ode.newton_per_step",
          n.steps > 0 ? static_cast<double>(n.newton_iterations) / static_cast<double>(n.steps)
                      : 0.0,
          "ratio");
    m.set("ode.rhs_calls_computed", static_cast<double>(n.newton_iterations + n.steps), "count");
    m.set("ode.refactorizations", static_cast<double>(n.factorizations), "count");
}

// ---------------------------------------------------------------------------
// transient
// ---------------------------------------------------------------------------

void run_transient(Ctx& ctx) {
    // Set-up: a cold pass (daemon start, reductions, artifacts, first
    // answers), then the rate loop's in-process engine, warmed on every ROM
    // artifact.
    auto host = std::make_unique<Host>(dir_for(ctx, "transient"), ctx.threads);
    std::vector<PassResult> passes;
    passes.reserve(3);  // the set-up pass and two later ones; `pass` stays valid
    passes.push_back(cold_pass(ctx, *host, "s0"));
    const PassResult& pass = passes.front();
    RateLoop rates(ctx, pass);
    if (end_setup(ctx)) {
        check_drained(ctx, host->stop());
        return;
    }

    // Timed closed loop: rate rounds for --seconds.
    rates.run(1, ctx.seconds);
    const rom::ServeStats stats = rates.stats();
    (void)serve_ladder(ctx, *host, pass_plan(ctx, pass), kShortLadder, false);
    // Two more cold passes, so the cold metrics are medians of three.
    for (const char* tag : {"s1", "s2"}) passes.push_back(cold_pass(ctx, *host, tag));
    const net::DaemonStats dstats = host->stop();
    check_drained(ctx, dstats);
    verify_and_report(ctx, passes);
    rates.report();

    if (ctx.trace) {
        const Samples& traced = rates.traced_rounds();
        ctx.metrics.set("trace.overhead_frac",
                        traced.empty() ? 0.0 : traced.median() / rates.plain_rounds().median() - 1.0,
                        "ratio");
        report_engine(ctx, stats, rates.base_stats());
        report_daemon(ctx, dstats);
        host.reset();
        probe_layers(ctx, pass);
    }
}

// ---------------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------------

namespace {

struct WireHost {
    std::unique_ptr<Host> host;
    WirePlan plan;
    PassResult pass;
};

/// The wire set-up: cold pass, the hosted NLTL family, the request plan and
/// a warm-up touching every model, member and transient configuration.
WireHost wire_setup(Ctx& ctx) {
    WireHost w;
    w.host = std::make_unique<Host>(dir_for(ctx, "wire"), ctx.threads);
    w.pass = cold_pass(ctx, *w.host, "w0");
    WirePlan& plan = w.plan;
    add_roms(ctx, w.pass, plan);

    plan.family_id = "nltl-family";
    const pmor::FamilyDesign design = nltl_family_design(plan.family_id);
    const pmor::FamilyBuildResult built = pmor::FamilyBuilder(design, nltl_family_options()).build();
    ctx.ledger.check(built.family.converged, "NLTL family converges");
    plan.family_tol = built.family.tol;
    plan.family_path = w.host->engine->registry()->family_artifact_path(plan.family_id);
    rom::save_family_artifact(rom::compress_family(built.family), plan.family_path);

    // Held-out points: seeded draws that a member certifies (screened on a
    // throwaway engine, so the daemon sees only generated requests).
    auto screen = make_engine("");
    screen->host_family(rom::FamilyArtifact::open(plan.family_path));
    for (int tries = 0; tries < 256 && plan.points.size() < 48; ++tries) {
        pmor::Point p = random_point(ctx.rng, design.space);
        if (certified(screen->serve(family_request(plan.family_id, p, band_grid(8, 0.25, 2.0))),
                      plan.family_tol))
            plan.points.push_back(std::move(p));
    }
    ctx.ledger.check(plan.points.size() >= 8, "enough member-certified NLTL family points");

    // Warm-up over the wire: every ROM per kind, every certified point
    // (materialises each member), the transient configuration.
    net::ServeClient client("127.0.0.1", w.host->daemon->port());
    std::vector<rom::ServeRequest> warm;
    for (const std::string& path : plan.rom_paths) {
        rom::ServeRequest req;
        req.body = rom::CertificateRequest{rom::ModelRef::from_artifact(path)};
        warm.push_back(req);
    }
    for (const pmor::Point& p : plan.points)
        warm.push_back(family_request(plan.family_id, p, band_grid(8, 0.25, 2.0)));
    std::mt19937_64 warm_rng(ctx.seed ^ 0x9e3779b97f4a7c15ULL);
    for (int k = 0; k < 64; ++k) (void)draw_arrival(warm_rng, plan, &warm);
    for (const rom::ServeRequest& req : warm)
        ctx.ledger.check(client.call(req).ok(), "wire warm-up answer");
    return w;
}

}  // namespace

void run_wire(Ctx& ctx) {
    WireHost w = wire_setup(ctx);
    if (end_setup(ctx)) {
        check_drained(ctx, w.host->stop());
        return;
    }

    // Timed phase: the full ladder, then two more cold passes, so the cold
    // metrics are medians of three, then the rate rounds.
    const LadderResult lr = serve_ladder(ctx, *w.host, w.plan, 1.0, ctx.trace);
    const std::vector<PassResult> passes{w.pass, cold_pass(ctx, *w.host, "w1"),
                                         cold_pass(ctx, *w.host, "w2")};
    const net::DaemonStats dstats = w.host->stop();
    check_drained(ctx, dstats);
    verify_and_report(ctx, passes);
    RateLoop rates(ctx, w.pass);
    rates.run(kRateRounds, 0.0);
    rates.report();

    if (ctx.trace) {
        ctx.metrics.set("trace.overhead_frac",
                        lr.nominal.median() / lr.plain_nominal.median() - 1.0, "ratio");
        report_engine(ctx, lr.stats, lr.base);
        report_daemon(ctx, dstats);
        w.host.reset();
        probe_layers(ctx, w.pass);
    }
}

}  // namespace perfbench
