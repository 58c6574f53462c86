// Circuits, serving plumbing and the cold pipeline pass shared by every
// workload (see bench.hpp).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "circuits/nltl.hpp"
#include "circuits/power_grid.hpp"
#include "circuits/rf_receiver.hpp"
#include "circuits/varistor.hpp"
#include "circuits/waveforms.hpp"
#include "la/solver_backend.hpp"
#include "rom/family_artifact.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Bookkeeping.
// ---------------------------------------------------------------------------

void Ledger::fail(const std::string& what) {
    attempted_.fetch_add(1);
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    if (reported_++ < 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
    auto it = index_.find(name);
    if (it != index_.end()) {
        items_[it->second].second = {value, unit};
        return;
    }
    index_[name] = items_.size();
    items_.push_back({name, {value, unit}});
}

double now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double uniform(std::mt19937_64& rng, double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
}

std::vector<la::Complex> random_grid(std::mt19937_64& rng, int n, double lo, double hi) {
    std::vector<la::Complex> grid;
    for (int i = 0; i < n; ++i) grid.emplace_back(0.0, uniform(rng, lo, hi));
    return grid;
}

std::vector<la::Complex> band_grid(int n, double lo, double hi) {
    std::vector<la::Complex> grid;
    for (int i = 0; i < n; ++i) grid.emplace_back(0.0, lo + (hi - lo) * i / std::max(1, n - 1));
    return grid;
}

pmor::Point random_point(std::mt19937_64& rng, const pmor::ParamSpace& space) {
    pmor::Point p;
    for (const pmor::ParamDescriptor& d : space.descriptors())
        p.push_back(uniform(rng, d.min, d.max));
    return p;
}

rom::ServeRequest family_request(const std::string& family_id, pmor::Point coords,
                                 std::vector<la::Complex> grid) {
    rom::ParametricQueryRequest pq;
    pq.family_id = family_id;
    pq.coords = std::move(coords);
    pq.grid = std::move(grid);
    pq.allow_fallback = false;
    rom::ServeRequest req;
    req.body = std::move(pq);
    return req;
}

// ---------------------------------------------------------------------------
// Circuits.
// ---------------------------------------------------------------------------

ode::InputFn Wave::instantiate() const {
    if (parts.size() == 1) return parts.front().instantiate();
    std::vector<ode::InputFn> fns;
    for (const rom::WaveformSpec& p : parts) fns.push_back(p.instantiate());
    return circuits::combine_inputs(std::move(fns));
}

const std::vector<PaperCircuit>& paper_circuits() {
    static const std::vector<PaperCircuit> all = [] {
        std::vector<PaperCircuit> c(3);

        // Fig. 3: current-driven NLTL, 35 stages -> lifted n = 70.
        c[0].name = "nltl";
        c[0].stamp = [] {
            circuits::NltlOptions o;
            o.stages = 35;
            return circuits::current_source_line(o).to_qldae();
        };
        c[0].mor.k1 = 6;
        c[0].mor.k2 = 3;
        c[0].mor.k3 = 2;
        c[0].mor.expansion_points = {la::Complex(1.0, 0.0)};
        c[0].transient.t_end = 15.0;
        c[0].transient.dt = 2e-3;
        c[0].transient.record_stride = 50;
        c[0].tol = 1e-2;
        c[0].draw = [](const DriveDraw& d) {
            const double on = d(0.3, 0.8);
            const double hold = d(3.0, 5.0);
            return Wave{{rom::WaveformSpec::pulse(d(0.4, 0.6), on, 1.0, on + 1.0 + hold, 1.5)}};
        };

        // Fig. 5: cubic ZnO varistor ladder, 30 sections -> n = 60, hit by
        // surges of several amplitudes (kV above the 200 V bias).
        c[1].name = "varistor";
        c[1].stamp = [] {
            circuits::VaristorOptions o;
            o.sections = 30;
            return circuits::varistor_circuit(o).system;
        };
        c[1].mor.k1 = 4;
        c[1].mor.k2 = 2;
        c[1].mor.k3 = 2;
        c[1].transient.t_end = 15.0;
        c[1].transient.dt = 2e-3;
        c[1].transient.record_stride = 50;
        c[1].tol = 1e-1;
        c[1].draw = [](const DriveDraw& d) {
            return Wave{{rom::WaveformSpec::surge(d(4.0, 9.6), 1.0, 5.0)}};
        };

        // Fig. 4: two-input RF receiver (signal + interferer), n = 173, k3 = 0.
        c[2].name = "rf";
        c[2].stamp = [] { return circuits::rf_receiver(circuits::RfReceiverOptions{}); };
        c[2].mor.k1 = 4;
        c[2].mor.k2 = 3;
        c[2].mor.k3 = 0;
        c[2].transient.t_end = 20.0;
        c[2].transient.dt = 5e-3;
        c[2].transient.record_stride = 25;
        c[2].tol = 5e-2;
        c[2].draw = [](const DriveDraw& d) {
            return Wave{{rom::WaveformSpec::sine(d(0.15, 0.25), d(0.04, 0.06)),
                         rom::WaveformSpec::sine(d(0.04, 0.08), d(0.10, 0.14))}};
        };
        return c;
    }();
    return all;
}

pmor::FamilyDesign mesh_design(const std::string& family_id) {
    // Light pitch resistance and decap keep the 72x72 mesh observable over
    // the [0.25, 2] band (the bench_scenarios configuration).
    circuits::PowerGridOptions g;
    g.rows = 72;
    g.cols = 72;
    g.clamps = 8;
    g.pitch_resistance = 0.02;
    g.decap = 0.2;
    g.load_conductance = 0.02;
    pmor::OptionsBinder<circuits::PowerGridOptions> binder(g);
    binder.param("clamp_alpha", &circuits::PowerGridOptions::clamp_alpha, 6.0, 10.0);
    return pmor::make_design(family_id, binder, [](const circuits::PowerGridOptions& o) {
        return circuits::power_grid(o).to_qldae();
    });
}

pmor::FamilyBuildOptions mesh_options() {
    pmor::FamilyBuildOptions f;
    f.tol = 5e-2;
    f.max_members = 2;
    f.training_grid_per_dim = 2;
    f.adaptive.tol = 1e-2;
    f.adaptive.omega_min = 0.25;
    f.adaptive.omega_max = 2.0;
    f.adaptive.band_grid = 5;
    f.adaptive.max_points = 3;
    f.adaptive.point_order = rom::PointOrder{8, 0, 0};
    f.adaptive.trim_orders = false;
    return f;
}

pmor::FamilyDesign nltl_family_design(const std::string& family_id) {
    circuits::NltlOptions base;
    base.stages = 12;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 32.0, 48.0)
        .param("resistance", &circuits::NltlOptions::resistance, 0.98, 1.06);
    return pmor::make_design(family_id, binder, [](const circuits::NltlOptions& o) {
        return circuits::current_source_line(o).to_qldae();
    });
}

pmor::FamilyBuildOptions nltl_family_options() {
    pmor::FamilyBuildOptions f;
    f.tol = 1e-1;
    f.max_members = 9;  // one per training point at worst: always converges
    f.training_grid_per_dim = 3;
    f.adaptive.tol = 2e-3;
    f.adaptive.omega_min = 0.25;
    f.adaptive.omega_max = 2.0;
    f.adaptive.band_grid = 9;
    f.adaptive.max_points = 3;
    f.adaptive.point_order = rom::PointOrder{4, 2, 0};
    return f;
}

// ---------------------------------------------------------------------------
// Serving.
// ---------------------------------------------------------------------------

std::shared_ptr<rom::ServeEngine> make_engine(const std::string& dir) {
    rom::RegistryOptions ropt;
    ropt.artifact_dir = dir;
    ropt.max_memory_models = 256;
    return std::make_shared<rom::ServeEngine>(std::make_shared<rom::Registry>(ropt));
}

Host::Host(std::string artifact_dir, int workers) : dir(std::move(artifact_dir)) {
    std::filesystem::create_directories(dir);
    engine = make_engine(dir);
    net::DaemonOptions opt;
    opt.workers = workers;
    opt.max_queue_depth = 1u << 16;  // measure, never shed
    daemon = std::make_unique<net::Daemon>(engine, opt);
    daemon->start();
}

Host::~Host() { (void)stop(); }

net::DaemonStats Host::stop() {
    if (!stopped_) {
        stopped_ = true;
        daemon->request_stop();
        daemon->wait();
    }
    return daemon->stats();
}

void send(net::ServeClient& client, WireCall& call) {
    try {
        call.answer = client.call_raw(call.payload);
    } catch (const std::exception& e) {
        call.error = e.what();
    }
}

bool certified(const rom::ServeResponse& resp, double tol) {
    if (!resp.ok()) return false;
    if (resp.kind == rom::RequestKind::parametric_batch) {
        for (std::size_t p = 0; p < resp.batch_member.size(); ++p)
            if (resp.batch_fallback[p] != 0 || resp.batch_member[p] < 0 ||
                resp.batch_error[p] > tol)
                return false;
        return !resp.batch_member.empty();
    }
    return !resp.fallback && resp.member >= 0 && resp.certificate.estimated_error <= tol;
}

// ---------------------------------------------------------------------------
// The cold pipeline pass.
// ---------------------------------------------------------------------------

namespace {

constexpr int kColdOpens = 4;  ///< first answers per ROM artifact (the original + copies)
constexpr int kCheckWaveforms = 2;

void add_solver(la::SolverStats& into, const la::SolverStats& s) {
    into.factorizations += s.factorizations;
    into.cache_misses += s.cache_misses;
    into.cache_hits += s.cache_hits;
    into.solves += s.solves;
    into.max_factor_dim = std::max(into.max_factor_dim, s.max_factor_dim);
}

WireCall make_call(rom::ServeRequest req, long id) {
    WireCall call;
    call.request = std::move(req);
    call.payload = rom::encode_request(call.request);
    call.request_id = id;
    return call;
}

rom::ServeRequest sweep_request(const std::string& path, std::vector<la::Complex> grid) {
    rom::ServeRequest req;
    req.body = rom::FrequencySweepRequest{rom::ModelRef::from_artifact(path), std::move(grid)};
    return req;
}

}  // namespace

PassResult cold_pass(Ctx& ctx, Host& host, const std::string& tag) {
    PassResult out;
    Tracer& tr = ctx.tracer;
    net::ServeClient client("127.0.0.1", host.daemon->port());
    long request_id = 0;

    const auto first_answer = [&](rom::ServeRequest req, double t_saved) {
        WireCall call = make_call(std::move(req), request_id++);
        {
            Scope span(tr, "net.first_answer", call.request_id);
            send(client, call);
        }
        out.first_answer_s.add(now_s() - t_saved);
        out.calls.push_back(std::move(call));
    };

    // -- The three paper circuits: stamp -> reduce -> check -> save -> answer.
    // Each item runs between two pairs of host speed samples, which scale its
    // time to the reference host speed.
    const auto probe = [&] {
        for (int i = 0; i < 2; ++i) ctx.speed.sample(now_s());
    };
    for (const PaperCircuit& pc : paper_circuits()) {
        const double p0 = now_s();
        probe();
        Scope item(tr, "bench.item", request_id);
        const StealFreeTimer item_timer;
        const double t0 = now_s();
        auto full = std::make_shared<volterra::Qldae>([&] {
            Scope span(tr, "circuits.stamp");
            return pc.stamp();
        }());
        out.stamp_s += now_s() - t0;

        core::AtMorOptions mor = pc.mor;
        mor.backend = la::make_resolvent_backend(full->g1_op());  // the default, kept for stats
        const double tr0 = now_s();
        auto model = [&] {
            Scope span(tr, "core.reduce_associated");
            return std::make_shared<rom::ReducedModel>(core::reduce_associated(*full, mor));
        }();
        out.core_reduce_s += now_s() - tr0;
        model->provenance.source = "perfbench:" + pc.name;
        add_solver(out.reduce_solver, mor.backend->stats());

        // Accuracy check, one seeded drive at a time (a batch of one runs on
        // the calling thread, so the pool's scheduling stays out of reduce_s).
        const ode::TransientOptions topt = pc.transient.to_options();
        for (int k = 0; k < kCheckWaveforms; ++k) {
            const std::vector<ode::InputFn> input{pc.draw({ctx.rng}).instantiate()};
            std::vector<ode::TransientResult> yr, yf;
            {
                Scope span(tr, "ode.rom_batch");
                yr = ode::simulate_batch(model->rom, input, topt);
            }
            {
                Scope span(tr, "ode.full_batch");
                yf = ode::simulate_batch(*full, input, topt);
            }
            const double err = ode::peak_relative_error(yf.front(), yr.front());
            ctx.ledger.check(err <= pc.tol, pc.name + " ROM transient error " +
                                                std::to_string(err) + " above tolerance");
        }

        Artifact a;
        a.name = pc.name;
        a.path = host.dir + "/" + tag + "-" + pc.name + rom::kArtifactExtension;
        const double ts = now_s();
        {
            Scope span(tr, "rom.save_model");
            rom::save_model(*model, a.path);
        }
        const double t_saved = now_s();
        out.save_s += t_saved - ts;
        const double reduce_s = item_timer.seconds();
        a.bytes = std::filesystem::file_size(a.path);
        a.model = model;
        first_answer(sweep_request(a.path, band_grid(16, 0.05, 2.0)), t_saved);
        // Byte copies under new names are artifacts the engine has not seen
        // either: more cold-open samples per reduction.
        for (int k = 1; k < kColdOpens; ++k) {
            const std::string copy = host.dir + "/" + tag + "-" + pc.name + "-copy" +
                                     std::to_string(k) + rom::kArtifactExtension;
            std::filesystem::copy_file(a.path, copy);
            first_answer(sweep_request(copy, band_grid(16, 0.05, 2.0)), now_s());
        }
        out.artifacts.push_back(a);
        out.fulls.push_back(full);
        probe();
        out.reduce_s.push_back(reduce_s * ctx.speed.factor(p0, now_s()));
    }

    // -- The mesh family: build -> compress -> save -> answer.
    pmor::ParamSpace mesh_space;
    const double p0 = now_s();
    probe();
    {
        Scope item(tr, "bench.item", request_id);
        const StealFreeTimer item_timer;
        Artifact a;
        a.name = "mesh";
        a.family_id = "mesh-" + tag;
        const pmor::FamilyDesign design = mesh_design(a.family_id);
        pmor::FamilyBuildResult built;
        {
            Scope span(tr, "pmor.family_build");
            built = pmor::FamilyBuilder(design, mesh_options()).build();
        }
        out.family_stats = built.stats;
        ctx.ledger.check(built.family.converged, "mesh family converges under its tolerance");
        a.family_tol = built.family.tol;
        rom::CompressedFamily cf;
        const double tc = now_s();
        {
            Scope span(tr, "rom.compress_family");
            cf = rom::compress_family(built.family);
        }
        const double ts = now_s();
        out.compress_s = ts - tc;
        a.path = host.engine->registry()->family_artifact_path(a.family_id);
        {
            Scope span(tr, "rom.save_family");
            rom::save_family_artifact(cf, a.path);
        }
        const double t_saved = now_s();
        out.save_s += t_saved - ts;
        const double family_s = item_timer.seconds();
        a.bytes = std::filesystem::file_size(a.path);
        mesh_space = design.space;
        first_answer(family_request(a.family_id, random_point(ctx.rng, mesh_space),
                                    band_grid(16, 0.25, 2.0)),
                     t_saved);
        out.artifacts.push_back(a);
        probe();
        out.family_s = family_s * ctx.speed.factor(p0, now_s());
    }
    for (const Artifact& a : out.artifacts) out.artifact_bytes += static_cast<double>(a.bytes);
    return out;
}

namespace {

/// Check every first answer of `pass` against a fresh serial in-process
/// engine (byte-identical) and certify the family answers.
void verify_pass(Ctx& ctx, const PassResult& pass) {
    // A fresh in-process engine with no disk tier: ROM artifacts resolve by
    // path, the family is hosted from its file.
    auto reference = make_engine("");
    double family_tol = 0.0;
    for (const Artifact& a : pass.artifacts)
        if (!a.family_id.empty()) {
            reference->host_family(rom::FamilyArtifact::open(a.path));
            family_tol = a.family_tol;
        }
    for (const WireCall& call : pass.calls) {
        const bool same =
            call.error.empty() && call.answer == rom::encode_response(reference->serve(call.request));
        bool ok = same && rom::decode_response(call.answer).ok();
        if (ok && call.request.kind() == rom::RequestKind::parametric_query)
            ok = certified(rom::decode_response(call.answer), family_tol);
        ctx.ledger.check(ok, "first answer " + std::to_string(call.request_id) +
                                 (same ? " not certified" : " differs from in-process serve") +
                                 (call.error.empty() ? "" : ": " + call.error));
    }
}

}  // namespace

void verify_and_report(Ctx& ctx, const std::vector<PassResult>& passes) {
    const std::size_t circuits = paper_circuits().size();
    Samples family, bytes, first;
    std::vector<Samples> reduce(circuits);
    for (const PassResult& p : passes) {
        verify_pass(ctx, p);
        family.add(p.family_s);
        bytes.add(p.artifact_bytes);
        first.merge(p.first_answer_s);
        for (std::size_t c = 0; c < circuits; ++c) reduce[c].add(p.reduce_s[c]);
        std::printf("cold pass at the reference host speed: reduce %.3f + %.3f + %.3f s, family "
                    "%.3f s; first answers p50 %.3f ms\n",
                    p.reduce_s[0], p.reduce_s[1], p.reduce_s[2], p.family_s,
                    1e3 * p.first_answer_s.median());
    }
    // Per-circuit medians, summed: a slow stretch of the host that hits one
    // circuit in one pass is left out.
    double reduce_s = 0.0;
    for (const Samples& r : reduce) reduce_s += r.median();
    Metrics& m = ctx.metrics;
    m.set("reduce_s", reduce_s, "s");
    m.set("family_s", family.median(), "s");
    m.set("artifact_bytes", bytes.median(), "B");
    m.set("rom.first_answer_ms", 1e3 * first.median(), "ms");
    const Tail ft = tail_of(first);
    std::printf("first answers: p50 %.3f ms, p%g %.3f ms (%zu samples, %zu beyond)\n",
                1e3 * first.median(), ft.percentile, 1e3 * ft.value, ft.count, ft.beyond);
}

}  // namespace perfbench
