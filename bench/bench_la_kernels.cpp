// Linear-algebra kernel benches.
//
// Default mode runs the sparse-vs-dense resolvent/matvec comparison on
// NLTL-lifted operators at n in {200, 500, 1000, 2000} and writes the
// machine-readable BENCH_la_kernels.json next to the working directory --
// the perf trajectory of the sparse-first operator layer is tracked from
// this file. Pass --micro to additionally run the google-benchmark
// micro-suite for the structured Kronecker kernels.
//
//   usage: bench_la_kernels [--micro] [google-benchmark flags]
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "circuits/nltl.hpp"
#include "core/sylvester_decouple.hpp"
#include "la/expm.hpp"
#include "la/lu.hpp"
#include "la/operator.hpp"
#include "la/orth.hpp"
#include "la/schur.hpp"
#include "la/simd.hpp"
#include "la/solver_backend.hpp"
#include "sparse/csr.hpp"
#include "sparse/splu.hpp"
#include "tensor/structured.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "volterra/associated.hpp"
#include "volterra/qldae.hpp"

namespace {

using namespace atmor;

la::Matrix stable_matrix(int n, std::uint64_t seed) {
    util::Rng rng(seed);
    la::Matrix a(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) a(i, j) = rng.gaussian();
    const double alpha = la::spectral_abscissa(a);
    for (int i = 0; i < n; ++i) a(i, i) -= alpha + 1.0;
    return a;
}

volterra::Qldae random_qldae(int n, std::uint64_t seed) {
    util::Rng rng(seed);
    la::Matrix g1 = stable_matrix(n, seed);
    sparse::SparseTensor3 g2(n, n, n);
    for (int t = 0; t < 4 * n; ++t)
        g2.add(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1),
               0.1 * rng.gaussian());
    la::Matrix b(n, 1);
    b(0, 0) = 1.0;
    return volterra::Qldae(std::move(g1), std::move(g2), b, volterra::state_selector(n, n - 1));
}

la::ZVec random_zvec(int n, std::uint64_t seed) {
    util::Rng rng(seed);
    la::ZVec v(static_cast<std::size_t>(n));
    for (auto& x : v) x = la::Complex(rng.gaussian(), rng.gaussian());
    return v;
}

// ---------------------------------------------------------------------------
// Sparse-vs-dense comparison on the paper's workload shape: the lifted NLTL
// operator (tridiagonal ladder + slaved diode rows), solved at a shifted
// expansion point sigma0 = 1 with a chain of k resolvent applications --
// exactly the moment-generation inner loop of core::reduce_associated.
// ---------------------------------------------------------------------------

struct CompareRow {
    int n = 0;
    int nnz = 0;
    double dense_lu_factor_s = 0;
    double sparse_lu_factor_s = 0;
    double dense_chain_s = 0;   ///< dense LU factor + k backsolves
    double sparse_chain_s = 0;  ///< sparse LU factor + k backsolves
    double dense_matvec_s = 0;
    double sparse_matvec_s = 0;
    double factor_speedup = 0;
    double chain_speedup = 0;
    double matvec_speedup = 0;
};

/// Median-of-5 wall time (shared bench_util helper).
template <class Fn>
double timed(Fn&& fn) {
    return bench::median_timed(std::forward<Fn>(fn));
}

CompareRow compare_at(int n) {
    constexpr int kMoments = 8;
    constexpr double kSigma = 1.0;
    circuits::NltlOptions copt;
    copt.stages = n / 2;  // lifted order = 2 * stages
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    const sparse::CsrMatrix& g1s = *sys.g1_csr();
    const la::Matrix g1d = sys.g1();
    const la::Vec b = sys.b_col(0);

    CompareRow row;
    row.n = sys.order();
    row.nnz = g1s.nnz();

    // (sigma I - G1) dense, for the dense LU baseline.
    la::Matrix shifted = g1d;
    shifted *= -1.0;
    for (int i = 0; i < row.n; ++i) shifted(i, i) += kSigma;

    row.dense_lu_factor_s = timed([&] { benchmark::DoNotOptimize(la::Lu(shifted)); });
    row.sparse_lu_factor_s =
        timed([&] { benchmark::DoNotOptimize(sparse::splu_shifted(g1s, kSigma)); });

    row.dense_chain_s = timed([&] {
        const la::Lu lu(shifted);
        la::Vec v = b;
        for (int k = 0; k < kMoments; ++k) v = lu.solve(v);
        benchmark::DoNotOptimize(v);
    });
    row.sparse_chain_s = timed([&] {
        const sparse::SpLu lu = sparse::splu_shifted(g1s, kSigma);
        la::Vec v = b;
        for (int k = 0; k < kMoments; ++k) v = lu.solve(v);
        benchmark::DoNotOptimize(v);
    });

    // Matvec throughput (100 applications).
    row.dense_matvec_s = timed([&] {
        la::Vec v = b;
        for (int k = 0; k < 100; ++k) v = la::matvec(g1d, v);
        benchmark::DoNotOptimize(v);
    });
    row.sparse_matvec_s = timed([&] {
        la::Vec v = b;
        for (int k = 0; k < 100; ++k) v = g1s.matvec(v);
        benchmark::DoNotOptimize(v);
    });

    auto ratio = [](double denom, double num) { return num > 0.0 ? denom / num : 0.0; };
    row.factor_speedup = ratio(row.dense_lu_factor_s, row.sparse_lu_factor_s);
    row.chain_speedup = ratio(row.dense_chain_s, row.sparse_chain_s);
    row.matvec_speedup = ratio(row.dense_matvec_s, row.sparse_matvec_s);
    return row;
}

// ---------------------------------------------------------------------------
// Vectorized-vs-scalar kernel tiers. The la/simd dispatch is toggled with the
// same force_scalar() switch the ATMOR_SCALAR_KERNELS escape hatch uses, so
// both sides run identical call paths and differ only in the kernel tier.
//
// The CI-gated floor (kernel_blocked_chain_simd_speedup_ok) sits on the
// blocked multi-RHS resolvent chain -- 32 right-hand sides through 8
// dense-LU backsolves, the moment-generation workload whose inner loops are
// the contiguous axpy row sweeps the kernel layer vectorizes. Like the
// thread-scaling gate, enforcement is conditional on where a win is
// physically measurable: the AVX2 build must deliver >= 1.3x (measured
// ~1.9x, wide margin), while the portable omp-simd build -- whose
// baseline-ISA axpy is only 2-wide SSE and measures 1.0-1.35x depending on
// runner noise -- records the speedup informationally with
// kernel_gate_enforced=false and a vacuously-true _ok, so the gate never
// flakes on a margin thinner than the timer jitter. Scalar and vectorized
// samples are interleaved so clock drift on a busy runner cancels instead
// of landing on whichever tier was timed second. SpMV (synthetic 32-nnz/row operator;
// NLTL-lifted rows carry only ~3 entries), dot/axpy microkernels and the
// orthogonalizer (BasisBuilder::flush) are informative columns:
// random-gather SpMV is load-bound, so the portable tier wins little until
// the AVX2 gather kernel is enabled.
// ---------------------------------------------------------------------------

/// The chain floor is enforced only in the AVX2 build: that tier must
/// deliver >= 1.3x, while the portable omp-simd tier's ~1.0-1.35x win sits
/// inside single-core timer jitter and is recorded informationally.
constexpr double kKernelSpeedupFloor = 1.3;

bool kernel_gate_enforced() {
    return std::strcmp(la::simd::compiled_level(), "avx2") == 0;
}

struct KernelTiers {
    double chain_scalar_s = 0, chain_simd_s = 0, chain_speedup = 0;
    double spmv_scalar_s = 0, spmv_simd_s = 0, spmv_speedup = 0;
    double dot_scalar_s = 0, dot_simd_s = 0, dot_speedup = 0;
    double axpy_scalar_s = 0, axpy_simd_s = 0, axpy_speedup = 0;
    double ortho_scalar_s = 0, ortho_simd_s = 0, ortho_speedup = 0;
    bool chain_ok = false;
};

KernelTiers run_kernel_tiers() {
    constexpr int kN = 2000;
    constexpr int kNnzPerRow = 32;
    constexpr int kSpmvReps = 50;
    constexpr int kVecLen = 4096;
    constexpr int kVecReps = 2000;
    constexpr int kChainN = 1000;
    constexpr int kChainRhs = 32;
    constexpr int kChainMoments = 8;

    util::Rng rng(77);
    sparse::CooBuilder coo(kN, kN);
    for (int i = 0; i < kN; ++i)
        for (int k = 0; k < kNnzPerRow; ++k)
            coo.add(i, rng.uniform_int(0, kN - 1), rng.gaussian());
    const sparse::CsrMatrix a(coo);
    la::Vec x(kN);
    for (auto& v : x) v = rng.gaussian();

    la::Vec u(kVecLen), w(kVecLen);
    for (auto& v : u) v = rng.gaussian();
    for (auto& v : w) v = rng.gaussian();

    la::Matrix chain_a(kChainN, kChainN);
    for (int i = 0; i < kChainN; ++i)
        for (int j = 0; j < kChainN; ++j) chain_a(i, j) = rng.gaussian();
    for (int i = 0; i < kChainN; ++i) chain_a(i, i) += kChainN;  // well conditioned
    const la::Lu chain_lu(chain_a);
    la::Matrix chain_rhs(kChainN, kChainRhs);
    for (int i = 0; i < kChainN; ++i)
        for (int j = 0; j < kChainRhs; ++j) chain_rhs(i, j) = rng.gaussian();

    la::Matrix ortho_input(kN, 64);
    for (int i = 0; i < kN; ++i)
        for (int j = 0; j < 64; ++j) ortho_input(i, j) = rng.gaussian();

    KernelTiers kt;
    const bool forced_before = la::simd::scalar_forced();
    auto time_both = [&](auto&& fn, double& scalar_s, double& simd_s) {
        std::vector<double> ts, tv;
        for (int s = 0; s < 5; ++s) {
            la::simd::force_scalar(true);
            {
                util::Timer t;
                fn();
                ts.push_back(t.seconds());
            }
            la::simd::force_scalar(false);
            {
                util::Timer t;
                fn();
                tv.push_back(t.seconds());
            }
        }
        std::sort(ts.begin(), ts.end());
        std::sort(tv.begin(), tv.end());
        scalar_s = ts[ts.size() / 2];
        simd_s = tv[tv.size() / 2];
    };

    time_both(
        [&] {
            la::Matrix xc = chain_rhs;
            for (int mom = 0; mom < kChainMoments; ++mom) xc = chain_lu.solve(xc);
            benchmark::DoNotOptimize(xc);
        },
        kt.chain_scalar_s, kt.chain_simd_s);
    time_both(
        [&] {
            la::Vec y;
            for (int rep = 0; rep < kSpmvReps; ++rep) y = a.matvec(x);
            benchmark::DoNotOptimize(y);
        },
        kt.spmv_scalar_s, kt.spmv_simd_s);
    time_both(
        [&] {
            double acc = 0.0;
            for (int rep = 0; rep < kVecReps; ++rep)
                acc += la::simd::dot(u.data(), w.data(), u.size());
            benchmark::DoNotOptimize(acc);
        },
        kt.dot_scalar_s, kt.dot_simd_s);
    time_both(
        [&] {
            for (int rep = 0; rep < kVecReps; ++rep)
                la::simd::axpy(1e-9, u.data(), w.data(), w.size());
            benchmark::DoNotOptimize(w.data());
        },
        kt.axpy_scalar_s, kt.axpy_simd_s);
    time_both([&] { benchmark::DoNotOptimize(la::orthonormalize_columns(ortho_input)); },
              kt.ortho_scalar_s, kt.ortho_simd_s);
    la::simd::force_scalar(forced_before);

    auto ratio = [](double denom, double num) { return num > 0.0 ? denom / num : 0.0; };
    kt.chain_speedup = ratio(kt.chain_scalar_s, kt.chain_simd_s);
    kt.spmv_speedup = ratio(kt.spmv_scalar_s, kt.spmv_simd_s);
    kt.dot_speedup = ratio(kt.dot_scalar_s, kt.dot_simd_s);
    kt.axpy_speedup = ratio(kt.axpy_scalar_s, kt.axpy_simd_s);
    kt.ortho_speedup = ratio(kt.ortho_scalar_s, kt.ortho_simd_s);
    kt.chain_ok = !kernel_gate_enforced() || kt.chain_speedup >= kKernelSpeedupFloor;

    std::printf("\n=== kernel tiers: scalar vs %s (single thread) ===\n",
                la::simd::compiled_level());
    std::printf("blocked chain (n=%d, %d rhs, %d solves) : %.3e s -> %.3e s  "
                "(%.2fx, floor %.2fx %s)\n",
                kChainN, kChainRhs, kChainMoments, kt.chain_scalar_s, kt.chain_simd_s,
                kt.chain_speedup, kKernelSpeedupFloor,
                kernel_gate_enforced() ? (kt.chain_ok ? "enforced, ok" : "enforced, VIOLATED")
                                       : "not enforced (portable tier, informative)");
    std::printf("spmv  (n=%d, %d nnz/row x%d) : %.3e s -> %.3e s  (%.2fx)\n", kN, kNnzPerRow,
                kSpmvReps, kt.spmv_scalar_s, kt.spmv_simd_s, kt.spmv_speedup);
    std::printf("dot   (n=%d x%d)            : %.3e s -> %.3e s  (%.2fx)\n", kVecLen,
                kVecReps, kt.dot_scalar_s, kt.dot_simd_s, kt.dot_speedup);
    std::printf("axpy  (n=%d x%d)            : %.3e s -> %.3e s  (%.2fx)\n", kVecLen,
                kVecReps, kt.axpy_scalar_s, kt.axpy_simd_s, kt.axpy_speedup);
    std::printf("ortho (2000x64, BasisBuilder) : %.3e s -> %.3e s  (%.2fx)\n",
                kt.ortho_scalar_s, kt.ortho_simd_s, kt.ortho_speedup);
    return kt;
}

int run_sparse_vs_dense(const std::string& json_path) {
    const std::vector<int> sizes = {200, 500, 1000, 2000};
    std::vector<CompareRow> rows;
    std::printf("=== sparse-vs-dense resolvent/matvec on NLTL-lifted G1 (sigma0 = 1) ===\n");
    std::printf("%6s %8s %14s %14s %10s %14s %14s %10s %10s\n", "n", "nnz", "dense_factor",
                "sparse_factor", "speedup", "dense_chain", "sparse_chain", "speedup",
                "mv_speedup");
    for (int n : sizes) {
        const CompareRow r = compare_at(n);
        rows.push_back(r);
        std::printf("%6d %8d %12.2e s %12.2e s %9.1fx %12.2e s %12.2e s %9.1fx %9.1fx\n", r.n,
                    r.nnz, r.dense_lu_factor_s, r.sparse_lu_factor_s, r.factor_speedup,
                    r.dense_chain_s, r.sparse_chain_s, r.chain_speedup, r.matvec_speedup);
    }

    const KernelTiers kt = run_kernel_tiers();

    std::ostringstream results;
    results << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CompareRow& r = rows[i];
        results << "    {\"n\": " << r.n << ", \"nnz\": " << r.nnz
                << ", \"dense_lu_factor_s\": " << r.dense_lu_factor_s
                << ", \"sparse_lu_factor_s\": " << r.sparse_lu_factor_s
                << ", \"dense_resolvent_chain_s\": " << r.dense_chain_s
                << ", \"sparse_resolvent_chain_s\": " << r.sparse_chain_s
                << ", \"dense_matvec100_s\": " << r.dense_matvec_s
                << ", \"sparse_matvec100_s\": " << r.sparse_matvec_s
                << ", \"factor_speedup\": " << r.factor_speedup
                << ", \"chain_speedup\": " << r.chain_speedup
                << ", \"matvec_speedup\": " << r.matvec_speedup << "}"
                << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    results << "  ]";

    bench::Json json;
    json.str("bench", "la_kernels");
    json.str("workload", "nltl_lifted_resolvent_chain");
    json.num("moments", 8);
    json.num("sigma0", 1.0);
    bench::add_env_header(json);
    json.num("kernel_blocked_chain_scalar_s", kt.chain_scalar_s);
    json.num("kernel_blocked_chain_simd_s", kt.chain_simd_s);
    json.num("kernel_blocked_chain_simd_speedup", kt.chain_speedup);
    json.num("kernel_speedup_floor", kKernelSpeedupFloor);
    json.boolean("kernel_gate_enforced", kernel_gate_enforced());
    json.boolean("kernel_blocked_chain_simd_speedup_ok", kt.chain_ok);
    json.num("kernel_spmv_scalar_s", kt.spmv_scalar_s);
    json.num("kernel_spmv_simd_s", kt.spmv_simd_s);
    json.num("kernel_spmv_simd_speedup", kt.spmv_speedup);
    json.num("kernel_dot_scalar_s", kt.dot_scalar_s);
    json.num("kernel_dot_simd_s", kt.dot_simd_s);
    json.num("kernel_dot_simd_speedup", kt.dot_speedup);
    json.num("kernel_axpy_scalar_s", kt.axpy_scalar_s);
    json.num("kernel_axpy_simd_s", kt.axpy_simd_s);
    json.num("kernel_axpy_simd_speedup", kt.axpy_speedup);
    json.num("ortho_scalar_s", kt.ortho_scalar_s);
    json.num("ortho_simd_s", kt.ortho_simd_s);
    json.num("ortho_simd_speedup", kt.ortho_speedup);
    json.raw("results", results.str());
    if (!bench::write_json(json, json_path)) return 1;

    bench::InvariantChecker check;
    check.require(kt.chain_ok,
                  "AVX2 blocked resolvent chain beats scalar kernels by the 1.3x floor");
    return check.exit_code();
}

// ---------------------------------------------------------------------------
// google-benchmark micro-suite (--micro): the structured kernels the
// associated-transform method is built on.
// ---------------------------------------------------------------------------

void BM_DenseLu(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const la::Matrix a = stable_matrix(n, 1);
    for (auto _ : state) benchmark::DoNotOptimize(la::Lu(a));
    state.SetComplexityN(n);
}
BENCHMARK(BM_DenseLu)->Arg(50)->Arg(100)->Arg(200)->Complexity();

void BM_SparseLuNltl(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    circuits::NltlOptions copt;
    copt.stages = n / 2;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    for (auto _ : state)
        benchmark::DoNotOptimize(sparse::splu_shifted(*sys.g1_csr(), 1.0));
    state.SetComplexityN(n);
}
BENCHMARK(BM_SparseLuNltl)->Arg(200)->Arg(500)->Arg(1000)->Arg(2000)->Complexity();

void BM_RealSchur(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const la::Matrix a = stable_matrix(n, 2);
    for (auto _ : state) benchmark::DoNotOptimize(la::real_schur(a));
    state.SetComplexityN(n);
}
BENCHMARK(BM_RealSchur)->Arg(50)->Arg(100)->Arg(200)->Complexity();

void BM_Expm(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const la::Matrix a = stable_matrix(n, 3);
    for (auto _ : state) benchmark::DoNotOptimize(la::expm(a));
}
BENCHMARK(BM_Expm)->Arg(50)->Arg(100);

void BM_SchurShiftedSolve(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const la::ComplexSchur cs(stable_matrix(n, 4));
    const la::ZVec b = random_zvec(n, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(cs.solve_shifted(la::Complex(0.3, 0.7), b));
}
BENCHMARK(BM_SchurShiftedSolve)->Arg(50)->Arg(100)->Arg(200);

/// Cached backend replay: the (operator, shift) factorisation cache makes
/// repeated resolvent solves O(solve) instead of O(factor + solve).
void BM_BackendCachedResolvent(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    circuits::NltlOptions copt;
    copt.stages = n / 2;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    la::SparseLuBackend backend;
    const la::ZVec b = la::complexify(sys.b_col(0));
    (void)backend.solve_shifted(sys.g1_op(), la::Complex(1.0, 0.0), b);  // warm the cache
    for (auto _ : state)
        benchmark::DoNotOptimize(backend.solve_shifted(sys.g1_op(), la::Complex(1.0, 0.0), b));
}
BENCHMARK(BM_BackendCachedResolvent)->Arg(200)->Arg(1000)->Arg(2000);

/// (sigma I - G1 (+) G1)^{-1}: the n^2-dimensional eq. 17 resolvent.
void BM_KronSum2Solve(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    auto schur = std::make_shared<const la::ComplexSchur>(stable_matrix(n, 6));
    tensor::KronSum2Solver solver(schur);
    const la::ZVec rhs = random_zvec(n * n, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(solver.solve(la::Complex(0.2, 0.0), rhs));
    state.SetComplexityN(n);
}
BENCHMARK(BM_KronSum2Solve)->Arg(30)->Arg(60)->Arg(120)->Complexity();

/// (sigma I - (+)^3 G1)^{-1}: the n^3-dimensional cubic resolvent.
void BM_KronSum3Solve(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    auto schur = std::make_shared<const la::ComplexSchur>(stable_matrix(n, 8));
    auto solver = tensor::make_kron_sum3(schur);
    const la::ZVec rhs = random_zvec(n * n * n, 9);
    for (auto _ : state)
        benchmark::DoNotOptimize(solver->solve(la::Complex(0.2, 0.0), rhs));
}
BENCHMARK(BM_KronSum3Solve)->Arg(20)->Arg(40);

/// Full A2(H2) moment generation (Gt2 chains) on a random QLDAE.
void BM_A2H2Moments(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const volterra::AssociatedTransform at(random_qldae(n, 10));
    for (auto _ : state)
        benchmark::DoNotOptimize(at.a2h2_moments(3, la::Complex(0, 0)));
}
BENCHMARK(BM_A2H2Moments)->Arg(30)->Arg(60)->Arg(120);

/// One A3(H3) moment (the G1 (+) Gt2 solve dominating the proposed method's
/// build time -- the "Arnoldi" rows of Table 1).
void BM_A3H3Moments(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const volterra::AssociatedTransform at(random_qldae(n, 11));
    for (auto _ : state)
        benchmark::DoNotOptimize(at.a3h3_moments(1, la::Complex(0, 0)));
}
BENCHMARK(BM_A3H3Moments)->Arg(20)->Arg(40);

/// Eq. 18 Pi solve.
void BM_SolvePi(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const volterra::Qldae sys = random_qldae(n, 12);
    for (auto _ : state) benchmark::DoNotOptimize(core::solve_pi(sys));
}
BENCHMARK(BM_SolvePi)->Arg(20)->Arg(40);

}  // namespace

int main(int argc, char** argv) {
    atmor::bench::init_threads(argc, argv);
    const std::string json_path =
        atmor::bench::json_out_arg(argc, argv, "BENCH_la_kernels.json");
    bool micro = false;
    std::vector<char*> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--micro") == 0)
            micro = true;
        else
            passthrough.push_back(argv[i]);
    }
    const int rc = run_sparse_vs_dense(json_path);
    if (rc != 0) return rc;
    if (micro) {
        int bench_argc = static_cast<int>(passthrough.size());
        benchmark::Initialize(&bench_argc, passthrough.data());
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    }
    return 0;
}
