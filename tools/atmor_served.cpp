// atmor-served: the network-facing ROM-serving daemon (and its own smoke
// client). One binary, two modes:
//
//   serve (default)
//     atmor-served [--port=N] [--workers=N] [--queue-depth=N] [--rate=R]
//                  [--burst=B] [--artifact-dir=DIR] [--host-family=PATH]...
//                  [--demo-family]
//     Binds a net::Daemon over a rom::ServeEngine, registers the build-spec
//     catalog below, hosts the named family artifacts (and/or the built-in
//     demo family), prints the bound port, and serves until SIGTERM/SIGINT
//     -- on which it DRAINS (every admitted request answered, every response
//     flushed) and exits 0 with a stats line.
//
//   smoke
//     atmor-served --smoke=HOST:PORT [--demo-family]
//     Issues one of every request kind through net::ServeClient and
//     compares the raw response bytes against a LOCAL reference engine
//     running the same catalog -- the wire answer must be bit-identical to
//     the in-process answer. Models are named by build spec and by artifact
//     path: the demo model is saved to an absolute path in the working
//     directory, which the daemon must reach on the same host. The file is
//     then replaced with another model and swept once more by the same
//     path: the daemon must answer the new model, byte-equal to a fresh
//     in-process engine. Exits nonzero on any mismatch (the CI daemon smoke
//     step).
//
// The spec catalog ("nltl" recipe) is registered HERE, not in the library:
// the serving layers stay circuit-agnostic, and a deployment exposes
// exactly the builds it is willing to run for remote callers.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "mor/adaptive.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "pmor/family_builder.hpp"
#include "rom/family_codec.hpp"
#include "rom/io.hpp"
#include "rom/serve_engine.hpp"

namespace {

using namespace atmor;

// ---------------------------------------------------------------------------
// Build-spec catalog: "nltl" = [stages, diode_alpha, resistance, k1, k2,
// s0_re]. Deterministic (fixed reduction pipeline, provenance keyed by the
// spec), so a daemon-side build and a reference-side build yield the same
// model bits -- the property the smoke mode pins.
// ---------------------------------------------------------------------------
rom::ReducedModel build_from_spec(const rom::BuildSpec& spec) {
    if (spec.recipe != "nltl" || spec.params.size() != 6)
        throw rom::UnresolvedError("atmor-served: unknown recipe '" + spec.recipe +
                                   "' (catalog: nltl[stages, diode_alpha, resistance, "
                                   "k1, k2, s0_re])");
    circuits::NltlOptions copt;
    copt.stages = static_cast<int>(spec.params[0]);
    copt.diode_alpha = spec.params[1];
    copt.resistance = spec.params[2];
    const volterra::Qldae plant = circuits::current_source_line(copt).to_qldae();
    core::AtMorOptions mor;
    mor.k1 = static_cast<int>(spec.params[3]);
    mor.k2 = static_cast<int>(spec.params[4]);
    mor.k3 = 0;
    mor.expansion_points = {la::Complex(spec.params[5], 0.0)};
    core::MorResult r = core::reduce_associated(plant, mor);
    r.provenance.source = spec.key();
    return r;
}

rom::BuildSpec demo_spec(double s0_re) {
    rom::BuildSpec spec;
    spec.recipe = "nltl";
    spec.params = {8.0, 40.0, 1.0, 4.0, 2.0, s0_re};
    return spec;
}

/// The built-in demo family (small, seconds to build): a certified nltl
/// family over (diode_alpha, resistance), hosted with an adaptive fallback
/// so wire queries at uncovered points are served, not rejected. Hosted like
/// any family: compressed at the lossless f64 tier, saved, opened.
void host_demo_family(rom::ServeEngine& engine) {
    circuits::NltlOptions base;
    base.stages = 5;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 30.0, 50.0)
        .param("resistance", &circuits::NltlOptions::resistance, 0.95, 1.05);
    const pmor::FamilyDesign design =
        pmor::make_design("nltl_demo", binder, [](const circuits::NltlOptions& o) {
            return circuits::current_source_line(o).to_qldae();
        });
    pmor::FamilyBuildOptions fopt;
    fopt.tol = 1e-1;
    fopt.max_members = 2;
    fopt.training_grid_per_dim = 2;
    fopt.adaptive.tol = 1e-2;
    fopt.adaptive.band_grid = 5;
    fopt.adaptive.max_points = 1;
    fopt.adaptive.point_order = rom::PointOrder{2, 1, 0};
    rom::Family family = pmor::FamilyBuilder(design, fopt).build().family;

    rom::ParametricOptions defaults;
    defaults.fallback_build = [design, fopt](const pmor::Point& p) {
        mor::AdaptiveResult r = mor::reduce_adaptive(design.build_system(p), fopt.adaptive);
        r.model.provenance.source = pmor::member_key(design, fopt.adaptive, p);
        return std::move(r.model);
    };
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::f64;
    const std::string path = (std::filesystem::temp_directory_path() /
                              ("atmor-served-demo-" + std::to_string(::getpid()) +
                               rom::kFamilyExtension))
                                 .string();
    rom::save_family_artifact(rom::compress_family(family, copt), path);
    rom::FamilyArtifact artifact = rom::FamilyArtifact::open(path);
    std::filesystem::remove(path);  // the mapping outlives the file name
    std::printf("hosting demo family '%s' (%d members)\n", artifact.family_id().c_str(),
                artifact.member_count());
    engine.host_family(std::move(artifact), std::move(defaults));
}

std::string flag_value(const std::string& arg, const char* name) {
    const std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    return "";
}

// ---------------------------------------------------------------------------
// Smoke mode.
// ---------------------------------------------------------------------------
int run_smoke(const std::string& endpoint, bool demo_family) {
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "--smoke needs HOST:PORT\n");
        return 2;
    }
    const std::string host = endpoint.substr(0, colon);
    const auto port = static_cast<std::uint16_t>(std::atoi(endpoint.c_str() + colon + 1));

    // Local reference: same catalog, same demo family, fresh registry.
    auto registry = std::make_shared<rom::Registry>();
    auto reference = std::make_shared<rom::ServeEngine>(registry);
    reference->set_spec_resolver(&build_from_spec);
    if (demo_family) host_demo_family(*reference);

    std::vector<la::Complex> grid;
    for (int j = 0; j < 16; ++j) grid.emplace_back(0.0, 0.1 * (j + 1));

    // The artifact-path refs: both engines load this file.
    std::string artifact = std::filesystem::current_path().string();
    artifact += std::string("/atmor-served-smoke") + rom::kArtifactExtension;
    rom::save_model(build_from_spec(demo_spec(1.0)), artifact);

    std::vector<rom::ServeRequest> requests;
    {
        rom::ServeRequest req;
        req.tenant = "smoke";
        req.body = rom::CertificateRequest{rom::ModelRef::from_spec(demo_spec(1.0))};
        requests.push_back(req);
        req.body = rom::FrequencySweepRequest{rom::ModelRef::from_spec(demo_spec(1.0)), grid};
        requests.push_back(req);
        req.body = rom::CertificateRequest{rom::ModelRef::from_artifact(artifact)};
        requests.push_back(req);
        req.body = rom::FrequencySweepRequest{rom::ModelRef::from_artifact(artifact), grid};
        requests.push_back(req);
        rom::TransientBatchRequest tb;
        tb.model = rom::ModelRef::from_spec(demo_spec(1.3));
        tb.inputs = {rom::WaveformSpec::pulse(0.4, 0.5, 1.0, 2.0, 1.5),
                     rom::WaveformSpec::sine(0.2, 0.25),
                     rom::WaveformSpec::multi_tone({0.2, 0.1}, {0.18, 0.3}, {0.0, 0.7}),
                     rom::WaveformSpec::am(0.3, 2.0, 0.2, 0.6)};
        tb.options.t_end = 5.0;
        tb.options.dt = 1e-2;
        tb.options.record_stride = 50;
        req.body = tb;
        requests.push_back(req);
        if (demo_family) {
            rom::ParametricQueryRequest pq;
            pq.family_id = "nltl_demo";
            pq.coords = {37.0, 1.01};
            pq.grid = grid;
            req.body = pq;
            requests.push_back(req);
            rom::ParametricBatchRequest pb;
            pb.family_id = "nltl_demo";
            pb.coords = {{36.0, 1.0}, {38.5, 1.02}, {40.0, 0.99}};
            pb.grid = grid;
            req.body = pb;
            requests.push_back(req);
        }
        // Typed-error path: an unresolvable key must come back as
        // serve_unresolved on both sides, not a hang or a crash.
        req.body = rom::FrequencySweepRequest{rom::ModelRef::by_key("no/such/model"), grid};
        requests.push_back(req);
    }

    int mismatches = 0;
    int sent = 0;
    net::ServeClient client(host, port);
    const auto check = [&](const rom::ServeRequest& req, rom::ServeEngine& local_engine) {
        const std::string wire = client.call_raw(rom::encode_request(req));
        const std::string local = rom::encode_response(local_engine.serve(req));
        const rom::ServeResponse decoded = rom::decode_response(wire);
        const bool match = wire == local;
        std::printf("smoke %d: kind=%s code=%s bytes=%zu %s\n", sent++,
                    rom::to_string(req.kind()), util::to_string(decoded.error.code),
                    wire.size(), match ? "MATCH" : "MISMATCH");
        if (!match) ++mismatches;
    };
    for (const rom::ServeRequest& req : requests) check(req, *reference);

    // Replace the artifact file (save_model publishes by rename) and sweep
    // it again by the same path: the daemon must answer the new model, as an
    // engine that never saw the old file does.
    rom::save_model(build_from_spec(demo_spec(1.3)), artifact);
    rom::ServeEngine fresh(std::make_shared<rom::Registry>());
    rom::ServeRequest replaced;
    replaced.tenant = "smoke";
    replaced.body = rom::FrequencySweepRequest{rom::ModelRef::from_artifact(artifact), grid};
    check(replaced, fresh);
    std::filesystem::remove(artifact);
    if (mismatches)
        std::fprintf(stderr, "smoke: %d response(s) differ from the in-process answer\n",
                     mismatches);
    return mismatches == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Serve mode.
// ---------------------------------------------------------------------------
net::Daemon* g_daemon = nullptr;

void handle_signal(int) {
    if (g_daemon != nullptr) g_daemon->request_stop();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
    net::DaemonOptions dopt;
    std::string artifact_dir;
    std::string smoke_endpoint;
    std::vector<std::string> family_paths;
    bool demo_family = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string v;
        if (!(v = flag_value(arg, "--port")).empty())
            dopt.port = static_cast<std::uint16_t>(std::atoi(v.c_str()));
        else if (!(v = flag_value(arg, "--workers")).empty())
            dopt.workers = std::atoi(v.c_str());
        else if (!(v = flag_value(arg, "--queue-depth")).empty())
            dopt.max_queue_depth = static_cast<std::size_t>(std::atol(v.c_str()));
        else if (!(v = flag_value(arg, "--rate")).empty())
            dopt.tenant_rate = std::atof(v.c_str());
        else if (!(v = flag_value(arg, "--burst")).empty())
            dopt.tenant_burst = std::atof(v.c_str());
        else if (!(v = flag_value(arg, "--artifact-dir")).empty())
            artifact_dir = v;
        else if (!(v = flag_value(arg, "--host-family")).empty())
            family_paths.push_back(v);
        else if (!(v = flag_value(arg, "--smoke")).empty())
            smoke_endpoint = v;
        else if (arg == "--demo-family")
            demo_family = true;
        else {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return 2;
        }
    }

    if (!smoke_endpoint.empty()) {
        try {
            return run_smoke(smoke_endpoint, demo_family);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "smoke failed: %s\n", e.what());
            return 1;
        }
    }

    try {
        rom::RegistryOptions ropt;
        ropt.max_memory_models = 256;
        ropt.artifact_dir = artifact_dir;
        auto registry = std::make_shared<rom::Registry>(ropt);
        auto engine = std::make_shared<rom::ServeEngine>(registry);
        engine->set_spec_resolver(&build_from_spec);
        if (demo_family) host_demo_family(*engine);
        for (const std::string& path : family_paths) {
            rom::FamilyArtifact fam = rom::FamilyArtifact::open(path);
            std::printf("hosting family '%s' from %s (%d members)\n",
                        fam.family_id().c_str(), path.c_str(), fam.member_count());
            engine->host_family(std::move(fam));
        }

        net::Daemon daemon(engine, dopt);
        daemon.start();
        g_daemon = &daemon;
        std::signal(SIGTERM, handle_signal);
        std::signal(SIGINT, handle_signal);
        std::printf("atmor-served listening on %s:%u (%d workers)\n",
                    dopt.bind_address.c_str(), daemon.port(), dopt.workers);
        std::fflush(stdout);

        daemon.wait();
        const net::DaemonStats s = daemon.stats();
        g_daemon = nullptr;
        std::printf("drained: %ld conns, %ld admitted, %ld responses (%ld after stop), "
                    "%ld overloaded(queue) %ld overloaded(tenant), %ld protocol errors\n",
                    s.connections_accepted, s.requests_admitted, s.responses_sent,
                    s.drained_requests, s.overloaded_queue, s.overloaded_tenant,
                    s.protocol_errors);
        return s.requests_admitted == s.responses_sent ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "atmor-served: %s\n", e.what());
        return 1;
    }
}
