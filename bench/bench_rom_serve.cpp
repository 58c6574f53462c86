// Offline/online split bench: cold build vs warm serve through the
// rom::Registry + rom::ServeEngine stack.
//
// Measures, on the lifted NLTL (paper Sect. 3.2 configuration):
//   1. COLD: first get_or_build -- the full offline reduction.
//   2. DISK: a fresh registry over the same artifact directory -- load +
//      deserialize instead of reduce.
//   3. WARM: repeated frequency-response sweeps and transient batches
//      against the resident model -- the online path the offline cost buys.
// The engine counters assert (not eyeball) the serving claims: exactly one
// build, zero full-order factorisations while warm (max_factor_dim == ROM
// order), and a replayed warm Newton factorisation across transient batches.
// The paper's promise is gated too: the warm ROM transient batch must run at
// least 1.5x faster than the same batch on the full model.
//
// Writes BENCH_rom_serve.json and leaves sample.atmor-rom next to it (the CI
// artifact).
//
//   usage: bench_rom_serve [stages] [--threads N] [--json-out=PATH]
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/nltl.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"
#include "rom/serve_engine.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
    using namespace atmor;
    bench::init_threads(argc, argv);
    const std::string json_path = bench::json_out_arg(argc, argv, "BENCH_rom_serve.json");
    const int stages = bench::arg_int(argc, argv, 1, 35);

    std::printf("=== offline/online split: cold build vs warm serve ===\n");
    circuits::NltlOptions copt;
    copt.stages = stages;
    const volterra::Qldae full = circuits::current_source_line(copt).to_qldae();

    core::AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    mor.expansion_points = {la::Complex(1.0, 0.0)};
    const std::string key = "nltl_current:" + copt.key() + "|atmor(k1=6,k2=3,k3=2,s0=1)";
    const auto builder = [&] {
        core::MorResult r = core::reduce_associated(full, mor);
        r.provenance.source = key;
        return r;
    };
    std::printf("circuit %s\nfull order n = %d\n", copt.key().c_str(), full.order());

    const std::string artifact_dir = "rom-artifacts";

    // ---------------------------------------------------------------------
    // 1. COLD: first request pays the offline reduction.
    // ---------------------------------------------------------------------
    rom::RegistryOptions ropt;
    ropt.artifact_dir = artifact_dir;
    auto registry_cold = std::make_shared<rom::Registry>(ropt);
    // Remove any stale artifact so the cold path really builds.
    {
        const std::string path = registry_cold->artifact_path(key);
        std::remove(path.c_str());
    }
    util::Timer cold_timer;
    const auto model = registry_cold->get_or_build(key, builder);
    const double cold_seconds = cold_timer.seconds();
    std::printf("\ncold build: %.3f s -> ROM order %d, artifact %s\n", cold_seconds,
                model->order, registry_cold->artifact_path(key).c_str());
    rom::save_model(*model, "sample.atmor-rom");

    // ---------------------------------------------------------------------
    // 2. DISK: a fresh registry finds the artifact instead of rebuilding.
    // ---------------------------------------------------------------------
    auto registry = std::make_shared<rom::Registry>(ropt);
    util::Timer disk_timer;
    (void)registry->get_or_build(key, builder);
    const double disk_seconds = disk_timer.seconds();
    std::printf("disk load:  %.6f s (%.0fx faster than building)\n", disk_seconds,
                cold_seconds / disk_seconds);

    // Size/footprint record for the perf gate: bytes on disk, heap bytes
    // once resident, and a bare (registry-free) artifact load.
    const std::size_t artifact_bytes =
        static_cast<std::size_t>(std::filesystem::file_size("sample.atmor-rom"));
    const std::size_t resident_after_load = rom::resident_bytes(*model);
    util::Timer load_timer;
    (void)rom::load_model("sample.atmor-rom");
    const double cold_load_seconds = load_timer.seconds();
    std::printf("artifact: %zu bytes on disk, %zu bytes resident, bare load %.6f s\n",
                artifact_bytes, resident_after_load, cold_load_seconds);

    // ---------------------------------------------------------------------
    // 3. WARM: repeated online queries against the resident model.
    // ---------------------------------------------------------------------
    // The model is resident in `registry`: the engine's first by-key request
    // resolves it from the memory tier, and later requests reuse the
    // engine's own state without asking the registry.
    rom::ServeEngine engine(registry);
    std::vector<la::Complex> grid;
    for (int g = 0; g < 32; ++g) grid.emplace_back(0.0, 0.05 * (g + 1));
    rom::ServeRequest sweep;
    sweep.body = rom::FrequencySweepRequest{rom::ModelRef::by_key(key), grid};
    (void)engine.serve(sweep);  // warm the factor caches
    const double freq_seconds = bench::median_timed([&] { (void)engine.serve(sweep); });
    std::printf("warm frequency sweep (32 points): %.3e s\n", freq_seconds);

    std::vector<ode::InputFn> scenarios;
    for (int s = 0; s < 8; ++s)
        scenarios.push_back(
            circuits::pulse_input(0.4 + 0.02 * s, 0.5, 1.0, 5.0 + 0.2 * s, 1.5));
    rom::TransientBatchRequest batch;
    batch.model = rom::ModelRef::by_key(key);
    batch.raw_inputs = scenarios;
    batch.options.t_end = 30.0;
    batch.options.dt = 2e-3;
    batch.options.method = ode::Method::trapezoidal;
    batch.options.record_stride = 100;
    const ode::TransientOptions topt = batch.options.to_options();
    rom::ServeRequest transient;
    transient.body = std::move(batch);
    (void)engine.serve(transient);  // stamps the warm Jacobian
    const double transient_seconds =
        bench::median_timed([&] { (void)engine.serve(transient); }, 3);
    std::printf("warm transient batch (8 waveforms, t_end = 30): %.3e s\n", transient_seconds);

    // Reference: the same 8 waveforms against the FULL model, once (the cost
    // the ROM avoids per query).
    const double full_transient_seconds =
        bench::median_timed([&] { (void)ode::simulate_batch(full, scenarios, topt); }, 1);
    std::printf("same batch on the full model:     %.3e s (%.1fx the ROM time; the gap widens "
                "with n)\n",
                full_transient_seconds, full_transient_seconds / transient_seconds);

    // ---------------------------------------------------------------------
    // Counter assertions: warm serving did exactly one disk load, zero
    // builds, and never factored at full order.
    // ---------------------------------------------------------------------
    const rom::ServeStats stats = engine.stats();
    std::printf("\nengine counters: %ld freq queries (%ld points), %ld transient queries "
                "(%ld waveforms)\n",
                stats.frequency_queries, stats.frequency_points, stats.transient_queries,
                stats.transient_waveforms);
    std::printf("registry: %ld lookups, %ld memory hits, %ld disk hits, %ld builds\n",
                stats.registry.lookups, stats.registry.memory_hits, stats.registry.disk_hits,
                stats.registry.builds);
    std::printf("solver: %ld factorizations (max dim %d, ROM order %d, full order %d), "
                "%ld cache hits / %ld misses\n",
                stats.solver.factorizations, stats.solver.max_factor_dim, model->order,
                full.order(), stats.solver.cache_hits, stats.solver.cache_misses);
    const bool warm_ok = stats.registry.builds == 0 &&
                         stats.solver.max_factor_dim <= model->order;
    std::printf("warm-serve invariant (zero builds, factor dim <= ROM order): %s\n",
                warm_ok ? "OK" : "VIOLATED");
    const double full_over_rom = full_transient_seconds / transient_seconds;
    const bool rom_beats_full_ok = full_over_rom >= 1.5;
    std::printf("ROM beats the full model (transient ratio %.2f >= 1.5): %s\n", full_over_rom,
                rom_beats_full_ok ? "OK" : "VIOLATED");

    // ---------------------------------------------------------------------
    // JSON artifact.
    // ---------------------------------------------------------------------
    std::ofstream out(json_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    out << "{\n  \"bench\": \"rom_serve\",\n  \"circuit\": \"" << copt.key() << "\",\n"
        << "  \"full_order\": " << full.order() << ",\n  \"rom_order\": " << model->order
        << ",\n  \"cold_build_seconds\": " << cold_seconds
        << ",\n  \"disk_load_seconds\": " << disk_seconds
        << ",\n  \"artifact_bytes\": " << artifact_bytes
        << ",\n  \"resident_bytes_after_load\": " << resident_after_load
        << ",\n  \"cold_load_seconds\": " << cold_load_seconds
        << ",\n  \"warm_freq_sweep_seconds\": " << freq_seconds
        << ",\n  \"warm_transient_batch_seconds\": " << transient_seconds
        << ",\n  \"full_model_transient_batch_seconds\": " << full_transient_seconds
        << ",\n  \"full_over_rom_transient_ratio\": " << full_over_rom
        << ",\n  \"registry\": {\"lookups\": " << stats.registry.lookups
        << ", \"memory_hits\": " << stats.registry.memory_hits
        << ", \"disk_hits\": " << stats.registry.disk_hits
        << ", \"builds\": " << stats.registry.builds << "}"
        << ",\n  \"solver\": {\"factorizations\": " << stats.solver.factorizations
        << ", \"cache_hits\": " << stats.solver.cache_hits
        << ", \"cache_misses\": " << stats.solver.cache_misses
        << ", \"max_factor_dim\": " << stats.solver.max_factor_dim << "}"
        << ",\n  \"warm_serve_invariant_ok\": " << (warm_ok ? "true" : "false")
        << ",\n  \"rom_beats_full_ok\": " << (rom_beats_full_ok ? "true" : "false") << "\n}\n";
    std::printf("\nwrote %s and sample.atmor-rom\n", json_path.c_str());
    return warm_ok && rom_beats_full_ok ? 0 : 1;
}
