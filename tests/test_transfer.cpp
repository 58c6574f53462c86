#include <gtest/gtest.h>

#include <cmath>

#include "la/lu.hpp"
#include "la/vector_ops.hpp"
#include "test_qldae_helpers.hpp"
#include "util/thread_pool.hpp"
#include "volterra/transfer.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::Vec;
using la::ZMatrix;
using volterra::Qldae;
using volterra::TransferEvaluator;

TEST(Transfer, H1MatchesDenseResolvent) {
    util::Rng rng(2100);
    test::QldaeOptions opt;
    opt.n = 6;
    const Qldae sys = test::random_qldae(opt, rng);
    const TransferEvaluator te(sys);
    const Complex s(0.3, 1.2);
    const ZMatrix h1 = te.h1(s);
    // Oracle: (sI - G1)^{-1} b by complex LU.
    ZMatrix m = la::complexify(sys.g1());
    m *= Complex(-1);
    for (int i = 0; i < 6; ++i) m(i, i) += s;
    const la::ZVec ref = la::solve(m, la::complexify(sys.b_col(0)));
    EXPECT_LT(la::dist2(h1.col(0), ref), 1e-10);
}

TEST(Transfer, H2SymmetricUnderPairExchange) {
    util::Rng rng(2101);
    test::QldaeOptions opt;
    opt.n = 5;
    opt.inputs = 2;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const TransferEvaluator te(sys);
    const Complex s1(0.2, 0.7), s2(-0.1, 1.4);
    const ZMatrix a = te.h2(s1, s2);
    const ZMatrix b = te.h2(s2, s1);
    const int m = 2;
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < m; ++j)
            EXPECT_LT(la::dist2(a.col(i * m + j), b.col(j * m + i)), 1e-10);
}

TEST(Transfer, H3InvariantUnderSimultaneousPermutation) {
    util::Rng rng(2102);
    test::QldaeOptions opt;
    opt.n = 4;
    opt.inputs = 1;
    opt.cubic = true;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const TransferEvaluator te(sys);
    const Complex s1(0.15, 0.6), s2(0.05, -0.9), s3(-0.2, 0.3);
    const ZMatrix a = te.h3(s1, s2, s3);
    const ZMatrix b = te.h3(s3, s1, s2);  // SISO: column 0 must agree
    EXPECT_LT(la::dist2(a.col(0), b.col(0)), 1e-9);
}

// ---------------------------------------------------------------------------
// Harmonic-balance validation of the probing formulas (paper eq. 14):
// simulate a single-tone steady state and compare the measured harmonics
// against H1(jw), H2(jw,jw), H3(jw,jw,jw) predictions.
// ---------------------------------------------------------------------------

struct HarmonicFit {
    Complex dc, h1, h2, h3;  // complex amplitudes of e^{j k w t}
};

/// Least-squares fit of a + sum_k (p_k cos(k w t) + q_k sin(k w t)), k = 1..3,
/// over samples; complex amplitude of e^{jkwt} is (p_k - j q_k)/2 scaled so
/// that x(t) = Re[2 C_k e^{jkwt}] -- i.e. C_k = (p_k - j q_k)/2.
HarmonicFit fit_harmonics(const std::vector<double>& t, const std::vector<double>& x,
                          double omega) {
    const int rows = static_cast<int>(t.size());
    Matrix a(rows, 7);
    for (int r = 0; r < rows; ++r) {
        a(r, 0) = 1.0;
        for (int k = 1; k <= 3; ++k) {
            a(r, 2 * k - 1) = std::cos(k * omega * t[static_cast<std::size_t>(r)]);
            a(r, 2 * k) = std::sin(k * omega * t[static_cast<std::size_t>(r)]);
        }
    }
    const Vec coef = test::least_squares(a, x);
    HarmonicFit f;
    f.dc = Complex(coef[0], 0.0);
    f.h1 = 0.5 * Complex(coef[1], -coef[2]);
    f.h2 = 0.5 * Complex(coef[3], -coef[4]);
    f.h3 = 0.5 * Complex(coef[5], -coef[6]);
    return f;
}

class HarmonicProbe : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(HarmonicProbe, SteadyStateHarmonicsMatchTransferFunctions) {
    const auto [quad, cubic, bilinear] = GetParam();
    util::Rng rng(2103);
    test::QldaeOptions opt;
    opt.n = 5;
    opt.quadratic = quad;
    opt.cubic = cubic;
    opt.bilinear = bilinear;
    opt.nl_scale = 0.3;
    const Qldae sys = test::random_qldae(opt, rng);
    const TransferEvaluator te(sys);

    const double omega = 1.3;
    const double amp = 0.02;  // small amplitude: Volterra series converges fast
    const auto pred = volterra::predict_harmonics(te, omega, amp);

    // Simulate to steady state and sample the output over several periods.
    auto f = [&](double time, const Vec& x) {
        return sys.rhs(x, Vec{amp * std::cos(omega * time)});
    };
    const double period = 2.0 * M_PI / omega;
    const double t_settle = 40.0;
    Vec x(static_cast<std::size_t>(sys.order()), 0.0);
    x = test::rk4_integrate(f, x, 0.0, t_settle, 16000);

    const int samples = 400;
    std::vector<double> ts, ys;
    const double t_end = t_settle + 4.0 * period;
    const int per_step = 40;
    double t = t_settle;
    const double h = (t_end - t_settle) / samples;
    for (int sidx = 0; sidx < samples; ++sidx) {
        ts.push_back(t);
        ys.push_back(sys.output(x)[0]);
        x = test::rk4_integrate(f, x, t, t + h, per_step);
        t += h;
    }
    const HarmonicFit fit = fit_harmonics(ts, ys, omega);

    // First harmonic dominated by H1 (third-order correction is O(A^3)).
    EXPECT_NEAR(std::abs(fit.h1 - pred.first), 0.0, 2e-3 * std::abs(pred.first) + 1e-9);
    if (quad || bilinear) {
        EXPECT_NEAR(std::abs(fit.h2 - pred.second), 0.0,
                    5e-2 * std::abs(pred.second) + 1e-10);
        EXPECT_NEAR(std::abs(fit.dc - pred.dc), 0.0, 5e-2 * std::abs(pred.dc) + 1e-10);
    }
    if (quad || cubic || bilinear) {
        EXPECT_NEAR(std::abs(fit.h3 - pred.third), 0.0,
                    8e-2 * std::abs(pred.third) + 1e-11);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HarmonicProbe,
    ::testing::Values(std::tuple{true, false, false},   // pure quadratic
                      std::tuple{false, true, false},   // pure cubic (varistor-like)
                      std::tuple{true, false, true},    // quadratic + bilinear (full QLDAE)
                      std::tuple{true, true, true}));   // everything

TEST(Transfer, SweepsMatchPointwiseAcrossThreadCounts) {
    // The parallel grid sweeps must return exactly the pointwise evaluations,
    // in grid order, at every pool width -- including hitting one shared
    // evaluator (and its lazy Qldae dense mirrors) from many worker threads.
    util::Rng rng(2106);
    test::QldaeOptions opt;
    opt.n = 8;
    const Qldae sys = test::random_qldae(opt, rng);
    const TransferEvaluator te(sys);

    std::vector<Complex> grid;
    for (int g = 0; g < 12; ++g) grid.emplace_back(0.1 * g, 0.5 + 0.3 * g);
    std::vector<ZMatrix> h1_ref, y1_ref;
    for (const Complex s : grid) {
        h1_ref.push_back(te.h1(s));
        y1_ref.push_back(te.output_h1(s));
    }

    for (int threads : {1, 4}) {
        util::ThreadPool::set_global_threads(threads);
        const auto h1 = te.h1_sweep(grid);
        const auto y1 = te.output_h1_sweep(grid);
        ASSERT_EQ(h1.size(), grid.size());
        for (std::size_t p = 0; p < grid.size(); ++p) {
            EXPECT_LT(la::max_abs(h1[p] - h1_ref[p]), 1e-14) << "threads " << threads;
            EXPECT_LT(la::max_abs(y1[p] - y1_ref[p]), 1e-14) << "threads " << threads;
        }
    }
    util::ThreadPool::set_global_threads(util::ThreadPool::default_thread_count());
}

}  // namespace
}  // namespace atmor
