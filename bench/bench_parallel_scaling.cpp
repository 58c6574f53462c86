// Parallel + blocked execution layer scaling bench.
//
// Measures, on the n=2000 lifted NLTL operator (the paper's large sparse
// workload):
//   1. Multi-RHS blocking: 16 resolvent right-hand sides solved through one
//      cached sparse-LU factorisation at block sizes {1, 4, 16} -- the
//      single-pass-over-the-factors amortisation, single threaded.
//   2. Multipoint moment generation (core::reduce_linear over 8 expansion
//      points) at {1, 2, 4, 8} threads -- the work-stealing fan-out.
//   3. Frequency-grid H1 sweep (32 points) at {1, 2, 4, 8} threads.
//   4. Batched transient scenarios (8 pulse waveforms sharing one warm
//      Jacobian factorisation) at {1, 2, 4, 8} threads.
// It also verifies that the parallel pipeline is EXACT: the 8-thread reduced
// model is compared entry-wise against the 1-thread one.
//
// Writes BENCH_parallel_scaling.json next to the working directory (same
// contract as BENCH_la_kernels.json).
//
//   usage: bench_parallel_scaling [stages] [--threads N] [--json-out=PATH]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuits/nltl.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "la/solver_backend.hpp"
#include "ode/transient.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "volterra/transfer.hpp"

namespace {

using namespace atmor;

double max_abs_diff(const la::Matrix& a, const la::Matrix& b) {
    double m = 0.0;
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) m = std::max(m, std::abs(a(i, j) - b(i, j)));
    return m;
}

std::vector<la::Complex> expansion_points8() {
    std::vector<la::Complex> pts;
    for (int p = 0; p < 8; ++p) pts.emplace_back(0.6 + 0.25 * p, 0.5 * p);
    return pts;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace atmor;
    const int requested_threads = bench::init_threads(argc, argv);
    const std::string json_path =
        bench::json_out_arg(argc, argv, "BENCH_parallel_scaling.json");
    const int stages = bench::arg_int(argc, argv, 1, 1000);

    circuits::NltlOptions copt;
    copt.stages = stages;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    const int n = sys.order();
    std::printf("=== parallel + blocked scaling on lifted NLTL (n = %d, %d hw threads) ===\n",
                n, requested_threads);

    // ---------------------------------------------------------------------
    // 1. Multi-RHS blocking, single threaded: 16 RHS through one cached
    //    factorisation, in blocks of 1 / 4 / 16. Real shift + real RHS --
    //    the Newton-step / real-moment-chain workload shape. Many repeats of
    //    the 16-RHS batch amortise timer noise at this granularity.
    // ---------------------------------------------------------------------
    util::ThreadPool::set_global_threads(1);
    const std::vector<int> block_sizes = {1, 4, 16};
    constexpr int kRhs = 16;
    la::Matrix rhs(n, kRhs);
    {
        util::Rng rng(42);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < kRhs; ++j) rhs(i, j) = rng.gaussian();
    }
    la::SparseLuBackend block_backend;
    constexpr double kSigma = 1.0;
    (void)block_backend.factorization(sys.g1_op(), la::Complex(kSigma, 0.0));  // warm

    std::vector<double> block_times;
    std::printf("\n-- multi-RHS blocking (16 RHS, cached sparse LU, 1 thread) --\n");
    const int batch_reps = std::max(1, 100000 / n);
    for (int bs : block_sizes) {
        const double t = bench::median_timed([&] {
            for (int rep = 0; rep < batch_reps; ++rep)
                for (int lo = 0; lo < kRhs; lo += bs) {
                    if (bs == 1) {
                        (void)block_backend.solve_shifted(sys.g1_op(), kSigma, rhs.col(lo));
                    } else {
                        (void)block_backend.solve_shifted(sys.g1_op(), kSigma,
                                                          la::submatrix(rhs, 0, lo, n, bs));
                    }
                }
        });
        block_times.push_back(t / batch_reps);
        std::printf("block %2d : %.3e s  (speedup vs block 1: %.2fx)\n", bs,
                    block_times.back(), block_times.front() / block_times.back());
    }
    const double block_speedup = block_times.front() / block_times.back();

    // ---------------------------------------------------------------------
    // 2. Multipoint moment generation across threads.
    // ---------------------------------------------------------------------
    const std::vector<int> thread_counts = {1, 2, 4, 8};
    const std::vector<la::Complex> points = expansion_points8();

    auto run_reduce = [&] {
        core::AtMorOptions mor;
        mor.k1 = 6;
        mor.k2 = 0;
        mor.k3 = 0;
        mor.expansion_points = points;
        return core::reduce_associated(sys, mor);
    };

    std::printf("\n-- multipoint moment generation (8 expansion points, k1 = 6) --\n");
    std::vector<double> mor_times;
    core::MorResult rom_serial = run_reduce();  // thread count 1 state below re-times it
    for (int tc : thread_counts) {
        util::ThreadPool::set_global_threads(tc);
        const double t = bench::median_timed([&] { (void)run_reduce(); });
        mor_times.push_back(t);
        std::printf("threads %d : %.3e s  (speedup: %.2fx)\n", tc, t, mor_times.front() / t);
    }

    // Determinism check: 8-thread reduced model vs 1-thread reduced model.
    util::ThreadPool::set_global_threads(1);
    rom_serial = run_reduce();
    util::ThreadPool::set_global_threads(8);
    const core::MorResult rom_parallel = run_reduce();
    double rom_diff = max_abs_diff(rom_serial.rom.g1(), rom_parallel.rom.g1());
    rom_diff = std::max(rom_diff, max_abs_diff(rom_serial.v, rom_parallel.v));
    std::printf("parallel-vs-serial reduced model max|diff| = %.3e (order %d vs %d)\n",
                rom_diff, rom_serial.order, rom_parallel.order);

    // ---------------------------------------------------------------------
    // 3. Frequency-grid H1 sweep across threads.
    // ---------------------------------------------------------------------
    std::vector<la::Complex> grid;
    for (int g = 0; g < 32; ++g) grid.emplace_back(0.05 * (g + 1), 0.4 * (g + 1));
    std::printf("\n-- H1 frequency sweep (32 grid points) --\n");
    std::vector<double> sweep_times;
    for (int tc : thread_counts) {
        util::ThreadPool::set_global_threads(tc);
        const volterra::TransferEvaluator te(sys);  // fresh cache per config
        const double t = bench::median_timed([&] { (void)te.output_h1_sweep(grid); });
        sweep_times.push_back(t);
        std::printf("threads %d : %.3e s  (speedup: %.2fx)\n", tc, t,
                    sweep_times.front() / t);
    }

    // ---------------------------------------------------------------------
    // 4. Batched transient scenarios across threads.
    // ---------------------------------------------------------------------
    std::vector<ode::InputFn> scenarios;
    for (int s = 0; s < 8; ++s)
        scenarios.push_back(
            circuits::pulse_input(0.2 + 0.02 * s, 0.2, 0.3, 0.8 + 0.1 * s, 0.3));
    ode::TransientOptions topt;
    topt.t_end = 2.0;
    topt.dt = 2e-3;
    topt.record_stride = 10;
    std::printf("\n-- batched transients (8 pulse scenarios, shared warm Jacobian) --\n");
    std::vector<double> batch_times;
    for (int tc : thread_counts) {
        util::ThreadPool::set_global_threads(tc);
        const double t =
            bench::median_timed([&] { (void)ode::simulate_batch(sys, scenarios, topt); }, 3);
        batch_times.push_back(t);
        std::printf("threads %d : %.3e s  (speedup: %.2fx)\n", tc, t,
                    batch_times.front() / t);
    }

    util::ThreadPool::set_global_threads(requested_threads);

    // ---------------------------------------------------------------------
    // Thread-scaling gate, conditional on the cores this machine actually
    // has: an 8-thread speedup is only physically possible on >= 8 cores, so
    // the >2x floor is enforced there and the sections stay informative on
    // smaller runners (scaling_ok vacuously true, scaling_gate_enforced
    // false -- recorded in the JSON so bench_compare.py and readers can tell
    // an enforced pass from a vacuous one).
    // ---------------------------------------------------------------------
    const unsigned hw = std::thread::hardware_concurrency();
    const bool gate_enforced = hw >= 8;
    const double best_speedup_8t =
        std::max({mor_times.front() / mor_times.back(),
                  sweep_times.front() / sweep_times.back(),
                  batch_times.front() / batch_times.back()});
    const bool scaling_ok = !gate_enforced || best_speedup_8t > 2.0;
    std::printf("\nscaling gate: %u hardware threads -> %s (best 8-thread speedup %.2fx)\n",
                hw, gate_enforced ? (scaling_ok ? "enforced, ok" : "enforced, VIOLATED")
                                  : "not enforced (needs >= 8 cores)",
                best_speedup_8t);

    // ---------------------------------------------------------------------
    // JSON artifact.
    // ---------------------------------------------------------------------
    auto scaling_obj = [&](const std::vector<double>& times) {
        std::ostringstream obj;
        obj << "{\"threads\": [1, 2, 4, 8], \"seconds\": [";
        for (std::size_t i = 0; i < times.size(); ++i)
            obj << times[i] << (i + 1 < times.size() ? ", " : "");
        obj << "], \"speedup_8t\": " << times.front() / times.back() << "}";
        return obj.str();
    };
    std::ostringstream block_obj;
    block_obj << "{\"rhs\": " << kRhs << ", \"block_sizes\": [1, 4, 16], \"seconds\": ["
              << block_times[0] << ", " << block_times[1] << ", " << block_times[2]
              << "], \"block16_speedup\": " << block_speedup << "}";

    bench::Json json;
    json.str("bench", "parallel_scaling");
    json.str("workload", "nltl_lifted");
    json.num("n", n);
    json.num("requested_threads", requested_threads);
    bench::add_env_header(json);
    json.boolean("scaling_gate_enforced", gate_enforced);
    json.num("best_speedup_8t", best_speedup_8t);
    json.boolean("scaling_ok", scaling_ok);
    json.raw("block_solve", block_obj.str());
    json.raw("multipoint_moments", scaling_obj(mor_times));
    json.raw("h1_sweep", scaling_obj(sweep_times));
    json.raw("transient_batch", scaling_obj(batch_times));
    json.num("parallel_vs_serial_rom_max_abs_diff", rom_diff);
    if (!bench::write_json(json, json_path)) return 1;

    bench::InvariantChecker check;
    check.require(scaling_ok, "8-thread speedup > 2x on a machine with >= 8 cores");
    return check.exit_code();
}
