// Traced-run layer probes: direct timings of public calls on the workload's
// own models, plus library stats structs. Values a workload measured in its
// own loop (engine and daemon stats, the ladder's serve() and wire timings)
// are kept; the probes fill in the rest. Probe spans are named "probe.<layer>.<call>" so they
// never count toward the workload's per-layer self time.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "core/projection.hpp"
#include "la/orth.hpp"
#include "la/solver_backend.hpp"
#include "mor/adaptive.hpp"
#include "mor/error_estimator.hpp"
#include "rom/family_artifact.hpp"
#include "rom/io.hpp"
#include "util/thread_pool.hpp"
#include "volterra/associated.hpp"
#include "volterra/transfer.hpp"

namespace perfbench {

namespace {

template <class Fn>
double median_time(int reps, Fn&& fn) {
    Samples s;
    for (int r = 0; r < reps; ++r) {
        const double t0 = now_s();
        fn();
        s.add(now_s() - t0);
    }
    return s.median();
}

/// Nanoseconds per call of fn over `calls` calls (median of 5 batches).
template <class Fn>
double ns_per_call(int calls, Fn&& fn) {
    return 1e9 * median_time(5, [&] {
               for (int i = 0; i < calls; ++i) fn();
           }) /
           calls;
}

la::Vec small_state(std::mt19937_64& rng, int n) {
    la::Vec x(static_cast<std::size_t>(n));
    for (double& v : x) v = uniform(rng, -0.01, 0.01);
    return x;
}

la::ZVec random_zvec(std::mt19937_64& rng, int n) {
    la::ZVec x(static_cast<std::size_t>(n));
    for (la::Complex& v : x) v = la::Complex(uniform(rng, -1.0, 1.0), uniform(rng, -1.0, 1.0));
    return x;
}

}  // namespace

void probe_layers(Ctx& ctx, const PassResult& pass) {
    Metrics& m = ctx.metrics;
    Tracer& tr = ctx.tracer;
    const auto put = [&](const std::string& name, double value, const std::string& unit) {
        if (!m.has(name)) m.set(name, value, unit);
    };
    const PaperCircuit& pc = paper_circuits()[0];
    const volterra::Qldae& nltl = *pass.fulls[0];
    const rom::ReducedModel& nltl_rom = *pass.artifacts[0].model;
    const rom::ReducedModel& var_rom = *pass.artifacts[1].model;
    const Artifact& mesh = pass.artifacts[3];
    const la::Complex s0 = pc.mor.expansion_points.front();
    std::mt19937_64 rng(ctx.seed + 7);

    // -- circuits / core -----------------------------------------------------
    put("circuits.stamp_s", pass.stamp_s, "s");
    put("core.reduce_associated_s", pass.core_reduce_s, "s");
    put("core.galerkin_s", median_time(5, [&] {
            Scope s(tr, "probe.core.galerkin_reduce");
            (void)core::galerkin_reduce(nltl, nltl_rom.v);
        }),
        "s");
    put("core.rom_order", nltl_rom.order, "count");
    put("core.raw_vectors", nltl_rom.raw_vectors, "count");
    put("core.basis_keep_ratio",
        static_cast<double>(nltl_rom.order) / std::max(1, nltl_rom.raw_vectors), "ratio");

    // -- volterra / tensor / la: the NLTL moment chains, one cold transform --
    {
        volterra::AssociatedTransform at(nltl);
        std::vector<la::ZMatrix> h1, a2, a3;
        double t0 = now_s();
        {
            Scope s(tr, "probe.volterra.h1_moments");
            h1 = at.h1_moments(pc.mor.k1, s0);
        }
        put("volterra.h1_moments_s", now_s() - t0, "s");
        t0 = now_s();
        {
            Scope s(tr, "probe.volterra.a2h2_moments");
            a2 = at.a2h2_moments(pc.mor.k2, s0);
        }
        put("volterra.a2h2_moments_s", now_s() - t0, "s");
        t0 = now_s();
        {
            Scope s(tr, "probe.volterra.a3h3_moments");
            a3 = at.a3h3_moments(pc.mor.k3, s0);
        }
        put("volterra.a3h3_moments_s", now_s() - t0, "s");

        put("la.orth_s", median_time(5, [&] {
                Scope s(tr, "probe.la.orth");
                la::BasisBuilder basis(nltl.order(), pc.mor.deflation_tol);
                for (const auto* chain : {&h1, &a2, &a3})
                    for (const la::ZMatrix& mom : *chain) {
                        basis.stage_complex(mom.col(0));
                        basis.flush();
                    }
            }),
            "s");

        const la::ZVec r2 = random_zvec(rng, at.kron_sum2()->dim());
        put("tensor.kron2_solve_ms", 1e3 * median_time(5, [&] {
                                         Scope s(tr, "probe.tensor.kron2_solve");
                                         (void)at.kron_sum2()->solve(s0, r2);
                                     }),
            "ms");
        const la::ZVec rg = random_zvec(rng, at.gtilde2()->dim());
        put("tensor.gtilde2_solve_ms", 1e3 * median_time(5, [&] {
                                           Scope s(tr, "probe.tensor.gtilde2_solve");
                                           (void)at.gtilde2()->solve(s0, rg);
                                       }),
            "ms");
    }

    // -- volterra / sparse: per-step kernels of the ROM and full models -----
    {
        Scope s(tr, "probe.volterra.kernels");
        const la::Vec u{0.5};
        const la::Vec xr = small_state(rng, nltl_rom.order);
        const la::Vec xf = small_state(rng, nltl.order());
        double sink = 0.0;
        put("volterra.rom_rhs_ns", ns_per_call(20000, [&] { sink += nltl_rom.rom.rhs(xr, u)[0]; }),
            "ns");
        put("volterra.full_rhs_ns", ns_per_call(5000, [&] { sink += nltl.rhs(xf, u)[0]; }), "ns");
        put("volterra.rom_jacobian_ns",
            ns_per_call(5000, [&] { sink += nltl_rom.rom.jacobian(xr, u)(0, 0); }), "ns");
        put("sparse.rom_g2_apply_ns",
            ns_per_call(20000, [&] { sink += nltl_rom.rom.g2().apply(xr, xr)[0]; }), "ns");
        put("sparse.rom_g2_entries", static_cast<double>(nltl_rom.rom.g2().entry_count()),
            "count");
        const la::Vec xv = small_state(rng, var_rom.order);
        put("sparse.rom_g3_apply_ns",
            ns_per_call(20000, [&] { sink += var_rom.rom.g3().apply(xv, xv, xv)[0]; }), "ns");
        put("sparse.rom_g3_entries", static_cast<double>(var_rom.rom.g3().entry_count()),
            "count");
        if (sink == 12345.678) std::printf(" ");  // keeps the kernel calls observable
    }
    put("volterra.sweep_point_us", 1e6 / 64 * median_time(3, [&] {
                                       Scope s(tr, "probe.volterra.output_h1_sweep");
                                       const volterra::TransferEvaluator te(nltl_rom.rom);
                                       (void)te.output_h1_sweep(random_grid(rng, 64, 0.05, 2.0));
                                   }),
        "us");

    // -- sparse / mor / pmor: the mesh family --------------------------------
    const rom::FamilyArtifact mesh_fa = rom::FamilyArtifact::open(mesh.path);
    const pmor::FamilyDesign design = mesh_design(mesh.family_id);
    const volterra::Qldae mesh_sys = design.build_system(design.space.center());
    put("sparse.splu_factor_ms", 1e3 * median_time(3, [&] {
                                     Scope s(tr, "probe.sparse.splu_factor");
                                     la::SparseLuBackend lu;
                                     (void)lu.factorize(mesh_sys.g1_op(), la::Complex(0.0, 1.0));
                                 }),
        "ms");
    {
        const std::shared_ptr<const rom::FamilyMember> member = mesh_fa.member(0);
        const volterra::Qldae member_sys = design.build_system(member->coords);
        const pmor::FamilyBuildOptions fopt = mesh_options();
        const auto grid =
            mor::ErrorEstimator::jomega_grid(fopt.adaptive.omega_min, fopt.adaptive.omega_max,
                                             fopt.adaptive.band_grid);
        put("mor.band_error_ms", 1e3 * median_time(3, [&] {
                                     Scope s(tr, "probe.mor.band_error");
                                     const mor::ErrorEstimator est(member_sys);
                                     (void)est.band_error(member->model, grid);
                                 }),
            "ms");
        Scope s(tr, "probe.mor.reduce_adaptive");
        put("mor.refinements", mor::reduce_adaptive(mesh_sys, fopt.adaptive).refinements, "count");
    }
    put("pmor.family_build_s", pass.family_stats.build_seconds, "s");
    put("pmor.members_built", pass.family_stats.members_built, "count");
    put("pmor.candidates", pass.family_stats.candidates, "count");
    put("pmor.cross_estimates", static_cast<double>(pass.family_stats.cross_estimates), "count");

    // -- rom: artifacts and codec (transient batches: RateLoop) -------------
    put("rom.compress_s", pass.compress_s, "s");
    put("rom.save_s", pass.save_s, "s");
    put("rom.open_s", median_time(5, [&] {
            Scope s(tr, "probe.rom.open");
            (void)rom::FamilyArtifact::open(mesh.path);
            for (std::size_t a = 0; a < 3; ++a) (void)rom::load_model(pass.artifacts[a].path);
        }),
        "s");
    put("rom.resident_bytes",
        static_cast<double>(mesh_fa.resident_bytes() + rom::resident_bytes(nltl_rom) +
                            rom::resident_bytes(var_rom) +
                            rom::resident_bytes(*pass.artifacts[2].model)),
        "B");
    put("rom.materialized_members", mesh_fa.materialized_members(), "count");
    {
        Samples enc, dec;
        for (int rep = 0; rep < 3; ++rep) {
            double e = 0.0, d = 0.0;
            for (const WireCall& c : pass.calls) {
                const double t0 = now_s();
                const std::string bytes = rom::encode_request(c.request);
                const double t1 = now_s();
                (void)rom::decode_response(c.answer);
                d += now_s() - t1;
                e += t1 - t0;
                if (bytes.size() != c.payload.size()) ctx.ledger.fail("encode_request is stable");
            }
            enc.add(1e6 * e / static_cast<double>(pass.calls.size()));
            dec.add(1e6 * d / static_cast<double>(pass.calls.size()));
        }
        put("rom.encode_us", enc.median(), "us");
        put("rom.decode_us", dec.median(), "us");
    }

    // -- util: the pool on build work (reduce + family), 1 vs N threads -----
    {
        const auto build_work = [&] {
            Scope s(tr, "probe.util.build_work");
            core::AtMorOptions mor = pc.mor;
            (void)core::reduce_associated(nltl, mor);
            (void)pmor::FamilyBuilder(mesh_design("pool"), mesh_options()).build();
        };
        util::ThreadPool::set_global_threads(1);
        const double serial = median_time(1, build_work);
        util::ThreadPool::set_global_threads(ctx.threads);
        const double parallel = median_time(1, build_work);
        put("util.serial_build_s", serial, "s");
        put("util.parallel_build_s", parallel, "s");
        put("util.pool_speedup", serial / parallel, "ratio");
    }
}

void report_spans(Ctx& ctx, const std::string& path) {
    const std::vector<Span> spans = ctx.tracer.spans();
    struct Agg {
        long count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Agg> by_name, by_layer;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double self = self_time(spans, static_cast<int>(i));
        const double dur = spans[i].end - spans[i].start;
        for (Agg* a : {&by_name[spans[i].name], &by_layer[layer_of(spans[i].name)]}) {
            ++a->count;
            a->total += dur;
            a->self += self;
        }
    }
    std::printf("\nper-layer self time (traced %s run, %zu spans)\n", ctx.workload.c_str(),
                spans.size());
    std::printf("  %-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (const auto& [name, a] : by_name)
        std::printf("  %-34s %8ld %12.6f %12.6f\n", name.c_str(), a.count, a.total, a.self);
    for (const char* layer : {"bench", "circuits", "core", "ode", "pmor", "rom", "net"})
        ctx.metrics.set(std::string("trace.") + layer + "_self_s", by_layer[layer].self, "s");
    ctx.metrics.set("trace.spans", static_cast<double>(spans.size()), "count");

    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << "{\"workload\": \"" << ctx.workload << "\", \"seed\": " << ctx.seed
        << ",\n \"layers\": {";
    bool first = true;
    for (const auto& [layer, a] : by_layer) {
        out << (first ? "" : ", ") << "\"" << layer << "\": {\"count\": " << a.count
            << ", \"total_s\": " << a.total << ", \"self_s\": " << a.self << "}";
        first = false;
    }
    out << "},\n \"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i)
        out << "  {\"name\": \"" << spans[i].name << "\", \"start\": " << spans[i].start
            << ", \"end\": " << spans[i].end << ", \"parent\": " << spans[i].parent
            << ", \"request\": " << spans[i].request << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
    out << " ]}\n";
    std::printf("spans written to %s\n", path.c_str());
}

}  // namespace perfbench
