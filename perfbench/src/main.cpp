// perfbench: the repo benchmark binary. run.py builds it, runs it and picks
// the metrics BENCHMARK.json names for the requested mode.
//
//   usage: perfbench --workload build|transient|wire --seed N --seconds S
//                    --trace 0|1 [--setup-only 0|1] [--commit ID] [--out-dir DIR]
//
// Prints an environment header line, progress lines, and as its last line
// one JSON object {correct, attempted, failed, metrics} holding every metric
// the run measured (end-to-end and, when traced, per-layer). A metric that
// could not be measured (NaN, e.g. the median of no samples) is left out,
// so run.py rejects the run. --setup-only 1 stops after the set-up.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "la/simd.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {
const StealFreeTimer g_process_timer;
}  // namespace

StealFreeTimer process_timer() { return g_process_timer; }

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload build|transient|wire --seed N --seconds S "
                 "--trace 0|1 [--setup-only 0|1] [--commit ID] [--out-dir DIR]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Ctx ctx;
    std::string commit = "unavailable";
    std::string out_dir = ".bench_build/out";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            ctx.workload = value;
        else if (flag == "--seed")
            ctx.seed = std::stoull(value);
        else if (flag == "--seconds")
            ctx.seconds = std::stod(value);
        else if (flag == "--trace")
            ctx.trace = value == "1";
        else if (flag == "--setup-only")
            ctx.setup_only = value == "1";
        else if (flag == "--commit")
            commit = value;
        else if (flag == "--out-dir")
            out_dir = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || ctx.seconds <= 0.0) return usage();
    void (*run)(Ctx&) = ctx.workload == "build"       ? run_build
                        : ctx.workload == "transient" ? run_transient
                        : ctx.workload == "wire"      ? run_wire
                                                      : nullptr;
    if (run == nullptr) return usage();

    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    ctx.threads = static_cast<int>(std::max(1L, std::min(4L, nproc)));
    util::ThreadPool::set_global_threads(ctx.threads);
    ctx.rng.seed(ctx.seed);
    ctx.tracer.set_enabled(ctx.trace);
    ctx.work_dir = out_dir + "/work-" + std::to_string(getpid());
    std::filesystem::create_directories(ctx.work_dir);

    std::printf("{\"env\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
                "\"nproc\": %ld, \"hardware_concurrency\": %u, \"threads\": %d, "
                "\"compiler\": %s, \"simd_level\": %s, \"commit\": %s}}\n",
                json_string(ctx.workload).c_str(), static_cast<unsigned long long>(ctx.seed),
                json_number(ctx.seconds).c_str(), ctx.trace ? 1 : 0, nproc,
                std::thread::hardware_concurrency(), ctx.threads,
                json_string(__VERSION__).c_str(), json_string(la::simd::active_level()).c_str(),
                json_string(commit).c_str());
    std::fflush(stdout);

    const CpuTicks run_ticks = read_cpu_ticks();
    try {
        run(ctx);
    } catch (const std::exception& e) {
        ctx.ledger.fail(std::string("uncaught exception: ") + e.what());
    }
    if (ctx.trace && !ctx.setup_only)
        report_spans(ctx, out_dir + "/traces/" + ctx.workload + "-seed" +
                              std::to_string(ctx.seed) + ".json");

    std::printf("host CPU steal during the run: %.1f%% of the CPU time wanted\n",
                100.0 * steal_share(run_ticks, read_cpu_ticks()));
    const double speed = ctx.speed.factor(0.0, now_s());
    std::printf("host speed factor %.3f over %zu probe samples\n", speed, ctx.speed.samples());
    ctx.metrics.set("host.speed_factor", speed, "ratio");
    rusage usage_stats{};
    getrusage(RUSAGE_SELF, &usage_stats);
    ctx.metrics.set("peak_rss_mb", static_cast<double>(usage_stats.ru_maxrss) / 1024.0, "MiB");
    std::error_code ec;
    std::filesystem::remove_all(ctx.work_dir, ec);

    const bool correct = ctx.ledger.failed() == 0 && ctx.ledger.attempted() > 0;
    std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(ctx.ledger.attempted()) +
                       ", \"failed\": " + std::to_string(ctx.ledger.failed()) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : ctx.metrics.items()) {
        if (!std::isfinite(vu.first)) {
            std::fprintf(stderr, "metric %s was not measured (%g)\n", name.c_str(), vu.first);
            continue;
        }
        line += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
                json_number(vu.first) + ", \"unit\": " + json_string(vu.second) + "}";
        first = false;
    }
    std::printf("%s}}\n", line.c_str());
    return 0;
}
