// Shared helpers for the figure/table reproduction benches.
//
// Every bench accepts the same flags -- `--threads N` (init_threads) and
// `--json-out=PATH` / legacy `--json=PATH` (json_out_arg) -- writes its
// machine-readable record through Json/write_json, and funnels its pass/fail
// conditions through InvariantChecker so a violated invariant is a nonzero
// exit code CI can gate on, never just a line in a table.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "la/simd.hpp"
#include "ode/transient.hpp"
#include "rom/family_codec.hpp"
#include "rom/io.hpp"
#include "rom/serve_engine.hpp"
#include "util/latency.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace atmor::bench {

/// Integer CLI override: first positional argument, else fallback.
inline int arg_int(int argc, char** argv, int position, int fallback) {
    if (argc > position) return std::atoi(argv[position]);
    return fallback;
}

/// Median-of-5 wall time of fn() in seconds. The median filters both
/// scheduler noise (which the old best-of-3 handled) and one-off cache-warm
/// effects in either direction, so run-to-run bench deltas are meaningful.
template <class Fn>
inline double median_timed(Fn&& fn, int reps = 5) {
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int rep = 0; rep < reps; ++rep) {
        util::Timer t;
        fn();
        samples.push_back(t.seconds());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/// Shared thread-count override for all benches: `--threads N` (or
/// `--threads=N`) on the command line wins, else the ATMOR_NUM_THREADS
/// environment variable, else hardware concurrency. Sizes the global pool
/// immediately and returns the count. The consumed flag is REMOVED from
/// argv/argc, so the benches' positional `arg_int` parsing never sees it.
/// Call once at the top of main(), before reading other arguments.
inline int init_threads(int& argc, char** argv) {
    int threads = 0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0) {
            // Swallow the flag even when the value is missing, so a malformed
            // "--threads" never leaks into positional parsing downstream.
            if (i + 1 < argc) threads = std::atoi(argv[++i]);
        } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            threads = std::atoi(argv[i] + 10);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    if (threads <= 0) threads = util::ThreadPool::default_thread_count();
    util::ThreadPool::set_global_threads(threads);
    return threads;
}

/// Shared JSON-output-path flag: consumes `--json-out=PATH`, `--json-out
/// PATH` or the legacy `--json=PATH` spelling from argv (same contract as
/// init_threads: call before positional parsing) and returns the chosen
/// path, else `fallback`.
inline std::string json_out_arg(int& argc, char** argv, std::string fallback) {
    std::string path = std::move(fallback);
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
            path = argv[i] + 11;
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            path = argv[i] + 7;
        } else if (std::strcmp(argv[i], "--json-out") == 0) {
            if (i + 1 < argc) path = argv[++i];
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    return path;
}

/// Minimal JSON object builder for the flat-ish BENCH_*.json artifacts the
/// perf gate (scripts/bench_compare.py) diffs. Insertion-ordered; `raw`
/// takes pre-serialised JSON for nested arrays/objects.
class Json {
public:
    void num(const std::string& key, double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        fields_.emplace_back(key, buf);
    }
    void num(const std::string& key, long v) { fields_.emplace_back(key, std::to_string(v)); }
    void num(const std::string& key, int v) { fields_.emplace_back(key, std::to_string(v)); }
    void boolean(const std::string& key, bool v) {
        fields_.emplace_back(key, v ? "true" : "false");
    }
    void str(const std::string& key, const std::string& v) {
        fields_.emplace_back(key, "\"" + v + "\"");
    }
    void raw(const std::string& key, const std::string& json) { fields_.emplace_back(key, json); }

    [[nodiscard]] std::string dump() const {
        std::ostringstream out;
        out << "{\n";
        for (std::size_t f = 0; f < fields_.size(); ++f)
            out << "  \"" << fields_[f].first << "\": " << fields_[f].second
                << (f + 1 < fields_.size() ? ",\n" : "\n");
        out << "}\n";
        return out.str();
    }

private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// Environment header every bench JSON carries: the perf gate
/// (scripts/bench_compare.py) uses hardware_concurrency to decide whether a
/// baseline-vs-fresh comparison is apples-to-apples (warn, don't fail, when
/// the machines differ) and whether the thread-scaling gate is enforceable;
/// compiler and simd_level make a kernel-config mismatch visible at a glance.
inline void add_env_header(Json& json) {
    json.num("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));
#if defined(__VERSION__)
    json.str("compiler", __VERSION__);
#else
    json.str("compiler", "unknown");
#endif
    json.str("simd_level", la::simd::active_level());
}

/// Emit one request class's latency distribution as the flat fields the perf
/// gate understands: `<cls>_count` plus `_p50/_p95/_p99/_mean/_max_seconds`.
/// The `_seconds` suffix routes every field through bench_compare.py's
/// time-ratio rule; the tail fields (`_p95`/`_p99`/`_max`) get its wider
/// tail-ratio thresholds.
inline void add_latency_fields(Json& json, const std::string& cls,
                               const util::LatencyHistogram& hist) {
    json.num(cls + "_count", hist.count());
    json.num(cls + "_p50_seconds", hist.percentile(50.0));
    json.num(cls + "_p95_seconds", hist.percentile(95.0));
    json.num(cls + "_p99_seconds", hist.percentile(99.0));
    json.num(cls + "_mean_seconds", hist.mean_seconds());
    json.num(cls + "_max_seconds", hist.max_seconds());
}

/// Write a bench JSON artifact; a failed write is itself a bench failure.
inline bool write_json(const Json& json, const std::string& path) {
    std::ofstream out(path);
    if (out) out << json.dump();
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return true;
}

/// Collects a bench's pass/fail conditions; exit_code() is what main
/// returns, so any violated invariant fails the bench (and CI) visibly.
class InvariantChecker {
public:
    void require(bool cond, const std::string& what) {
        if (cond) return;
        ok_ = false;
        std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", what.c_str());
    }
    [[nodiscard]] bool ok() const { return ok_; }
    [[nodiscard]] int exit_code() const { return ok_ ? 0 : 1; }

private:
    bool ok_ = true;
};

/// Serve an in-memory family the one way families are served: compressed at
/// the lossless f64 tier, saved, opened and hosted under `defaults`. The
/// file is unlinked once mapped (the mapping outlives its name). Returns the
/// hosted artifact.
inline rom::FamilyArtifact host_family(rom::ServeEngine& engine, const rom::Family& family,
                                       rom::ParametricOptions defaults = {}) {
    static std::atomic<int> counter{0};
    const std::string path = (std::filesystem::temp_directory_path() /
                              ("atmor_bench_" + std::to_string(::getpid()) + "_" +
                               std::to_string(counter++) + rom::kFamilyExtension))
                                 .string();
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::f64;
    rom::save_family_artifact(rom::compress_family(family, copt), path);
    rom::FamilyArtifact artifact = rom::FamilyArtifact::open(path);
    std::filesystem::remove(path);
    engine.host_family(artifact, std::move(defaults));
    return artifact;
}

/// One parametric point against a hosted family, through serve().
inline rom::ServeResponse serve_point(rom::ServeEngine& engine, const std::string& family_id,
                                      const pmor::Point& coords,
                                      const std::vector<la::Complex>& grid, double tol = 0.0) {
    rom::ParametricQueryRequest body;
    body.family_id = family_id;
    body.coords = coords;
    body.grid = grid;
    body.tol = tol;
    rom::ServeRequest req;
    req.body = std::move(body);
    return engine.serve(req);
}

/// Print two transient traces plus the pointwise relative error, downsampled
/// to roughly `max_rows` rows -- the series the paper's figures plot.
inline void print_series(const std::string& title, const ode::TransientResult& full,
                         const ode::TransientResult& rom, int max_rows = 40,
                         double offset = 0.0, double scale = 1.0) {
    const auto err = ode::relative_error_trace(full, rom);
    util::Table table({"t", "y_full", "y_rom", "rel_err"});
    const std::size_t stride = std::max<std::size_t>(1, full.t.size() / static_cast<std::size_t>(max_rows));
    for (std::size_t r = 0; r < full.t.size(); r += stride)
        table.add_row({util::Table::num(full.t[r], 4),
                       util::Table::num(offset + scale * full.y[r][0], 6),
                       util::Table::num(offset + scale * rom.y[r][0], 6),
                       util::Table::num(err[r], 3)});
    std::cout << "\n--- " << title << " ---\n";
    table.print(std::cout);
}

/// Print three-way comparison series (full vs two ROMs), paper Fig. 3/4 style.
inline void print_series3(const std::string& title, const ode::TransientResult& full,
                          const ode::TransientResult& rom_a, const std::string& name_a,
                          const ode::TransientResult& rom_b, const std::string& name_b,
                          int max_rows = 40) {
    const auto err_a = ode::relative_error_trace(full, rom_a);
    const auto err_b = ode::relative_error_trace(full, rom_b);
    util::Table table({"t", "y_full", "y_" + name_a, "y_" + name_b, "err_" + name_a,
                       "err_" + name_b});
    const std::size_t stride = std::max<std::size_t>(1, full.t.size() / static_cast<std::size_t>(max_rows));
    for (std::size_t r = 0; r < full.t.size(); r += stride)
        table.add_row({util::Table::num(full.t[r], 4), util::Table::num(full.y[r][0], 6),
                       util::Table::num(rom_a.y[r][0], 6), util::Table::num(rom_b.y[r][0], 6),
                       util::Table::num(err_a[r], 3), util::Table::num(err_b[r], 3)});
    std::cout << "\n--- " << title << " ---\n";
    table.print(std::cout);
}

}  // namespace atmor::bench
