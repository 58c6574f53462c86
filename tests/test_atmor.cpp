#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/atmor.hpp"
#include "core/norm.hpp"
#include "la/vector_ops.hpp"
#include "test_qldae_helpers.hpp"
#include "util/thread_pool.hpp"
#include "volterra/associated.hpp"
#include "volterra/transfer.hpp"

namespace atmor {
namespace {

using core::AtMorOptions;
using core::MorResult;
using la::Complex;
using la::Vec;
using la::ZMatrix;
using volterra::AssociatedTransform;
using volterra::Qldae;

/// Output-mapped moment (C * moment column 0).
la::ZVec output_moment(const Qldae& sys, const ZMatrix& moment, int col = 0) {
    return la::matvec(la::complexify(sys.c()), moment.col(col));
}

TEST(AtMor, H1OutputMomentsMatchExactly) {
    // Classic Krylov property: the ROM reproduces the first k1 moments of the
    // linear transfer function.
    util::Rng rng(2400);
    test::QldaeOptions opt;
    opt.n = 14;
    const Qldae sys = test::random_qldae(opt, rng);
    AtMorOptions mor;
    mor.k1 = 4;
    mor.k2 = 2;
    mor.k3 = 0;
    const MorResult res = core::reduce_associated(sys, mor);
    ASSERT_GE(res.order, 4);

    const AssociatedTransform full(sys);
    const AssociatedTransform rom(res.rom);
    const auto mf = full.h1_moments(4, Complex(0, 0));
    const auto mr = rom.h1_moments(4, Complex(0, 0));
    for (int j = 0; j < 4; ++j) {
        const la::ZVec yf = output_moment(sys, mf[static_cast<std::size_t>(j)]);
        const la::ZVec yr = output_moment(res.rom, mr[static_cast<std::size_t>(j)]);
        EXPECT_LT(la::dist2(yf, yr), 1e-8 * (1.0 + la::norm2(yf))) << "moment " << j;
    }
}

TEST(AtMor, MultipointH1Matching) {
    util::Rng rng(2401);
    test::QldaeOptions opt;
    opt.n = 16;
    const Qldae sys = test::random_qldae(opt, rng);
    AtMorOptions mor;
    mor.k1 = 3;
    mor.k2 = 0;
    mor.k3 = 0;
    mor.expansion_points = {Complex(0.0, 0.0), Complex(0.0, 2.0)};
    const MorResult res = core::reduce_associated(sys, mor);

    const AssociatedTransform full(sys);
    const AssociatedTransform rom(res.rom);
    for (const Complex s0 : mor.expansion_points) {
        const auto mf = full.h1_moments(3, s0);
        const auto mr = rom.h1_moments(3, s0);
        for (int j = 0; j < 3; ++j) {
            const la::ZVec yf = output_moment(sys, mf[static_cast<std::size_t>(j)]);
            const la::ZVec yr = output_moment(res.rom, mr[static_cast<std::size_t>(j)]);
            EXPECT_LT(la::dist2(yf, yr), 1e-7 * (1.0 + la::norm2(yf)));
        }
    }
}

TEST(AtMor, SecondOrderAccuracyImprovesWithK2) {
    // Including A2(H2) moment directions must improve the reduced
    // second-order transfer function near the expansion point.
    util::Rng rng(2402);
    test::QldaeOptions opt;
    opt.n = 18;
    opt.nl_scale = 0.4;
    const Qldae sys = test::random_qldae(opt, rng);

    auto a2h2_err = [&](const MorResult& res) {
        const AssociatedTransform full(sys);
        const AssociatedTransform rom(res.rom);
        double err = 0.0, ref = 0.0;
        for (const Complex s : {Complex(0.05, 0.0), Complex(0.0, 0.2), Complex(0.1, 0.3)}) {
            const la::ZVec yf = la::matvec(la::complexify(sys.c()), full.a2h2(s).col(0));
            const la::ZVec yr = la::matvec(la::complexify(res.rom.c()), rom.a2h2(s).col(0));
            err += la::dist2(yf, yr);
            ref += la::norm2(yf);
        }
        return err / (ref + 1e-300);
    };

    AtMorOptions lin;
    lin.k1 = 4;
    lin.k2 = 0;
    lin.k3 = 0;
    AtMorOptions quad = lin;
    quad.k2 = 4;
    const double err_lin = a2h2_err(core::reduce_associated(sys, lin));
    const double err_quad = a2h2_err(core::reduce_associated(sys, quad));
    // Measured on this fixture: 0.52 (k2=0) -> 0.0044 (k2=4), a ~120x gain.
    // Matching through the top-block projection is not exact for the higher
    // kernels (one-sided Galerkin), so assert a strong-but-finite improvement.
    EXPECT_LT(err_quad, 0.05 * err_lin);
    EXPECT_LT(err_quad, 1e-2);
}

TEST(AtMor, BasisSizeIsSumOfMomentCounts) {
    // Paper Remark 1: proposed basis ~ O(k1 + k2 + k3) (before deflation).
    util::Rng rng(2403);
    test::QldaeOptions opt;
    opt.n = 15;
    opt.cubic = true;
    const Qldae sys = test::random_qldae(opt, rng);
    AtMorOptions mor;
    mor.k1 = 5;
    mor.k2 = 3;
    mor.k3 = 2;
    const MorResult res = core::reduce_associated(sys, mor);
    EXPECT_EQ(res.raw_vectors, 10);
    EXPECT_LE(res.order, 10);
    EXPECT_GE(res.order, 5);
}

TEST(AtMor, TransientAccuracyEndToEnd) {
    // Weakly nonlinear random system: ROM transient must track the full model.
    util::Rng rng(2404);
    test::QldaeOptions opt;
    opt.n = 20;
    opt.nl_scale = 0.15;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    // DC expansion plus the drive frequency (multipoint, paper Remark 3).
    mor.expansion_points = {Complex(0.0, 0.0), Complex(0.0, 1.1)};
    const MorResult res = core::reduce_associated(sys, mor);

    auto simulate = [&](const Qldae& s, double t_end, int steps) {
        auto f = [&](double time, const Vec& x) {
            return s.rhs(x, Vec{0.1 * std::sin(1.1 * time)});
        };
        std::vector<double> ys;
        Vec x(static_cast<std::size_t>(s.order()), 0.0);
        const int chunks = 50;
        for (int c2 = 0; c2 < chunks; ++c2) {
            x = test::rk4_integrate(f, x, t_end * c2 / chunks, t_end * (c2 + 1) / chunks,
                                    steps / chunks);
            ys.push_back(s.output(x)[0]);
        }
        return ys;
    };
    const auto y_full = simulate(sys, 8.0, 4000);
    const auto y_rom = simulate(res.rom, 8.0, 4000);
    double max_err = 0.0, max_ref = 0.0;
    for (std::size_t i = 0; i < y_full.size(); ++i) {
        max_err = std::max(max_err, std::abs(y_full[i] - y_rom[i]));
        max_ref = std::max(max_ref, std::abs(y_full[i]));
    }
    // The paper's own experiments report relative errors in the 1e-3..1e-2
    // band (Figs. 2c, 3b, 4c); hold this fixture to the same standard.
    EXPECT_LT(max_err, 1e-2 * max_ref);
}

TEST(AtMor, ReduceLinearIsK1Only) {
    util::Rng rng(2405);
    test::QldaeOptions opt;
    opt.n = 10;
    const Qldae sys = test::random_qldae(opt, rng);
    const MorResult res = core::reduce_linear(sys, 4);
    EXPECT_EQ(res.raw_vectors, 4);
}

/// Every matrix of two reduced models (basis, G1, B, C, G2, G3) agrees bit
/// for bit.
void expect_identical_models(const MorResult& a, const MorResult& b) {
    const auto same = [](const la::Matrix& x, const la::Matrix& y, const char* what) {
        ASSERT_EQ(x.rows(), y.rows()) << what;
        ASSERT_EQ(x.cols(), y.cols()) << what;
        for (int i = 0; i < x.rows(); ++i)
            for (int j = 0; j < x.cols(); ++j) EXPECT_EQ(x(i, j), y(i, j)) << what;
    };
    ASSERT_EQ(a.order, b.order);
    same(a.v, b.v, "V");
    same(a.rom.g1(), b.rom.g1(), "G1");
    same(a.rom.b(), b.rom.b(), "B");
    same(a.rom.c(), b.rom.c(), "C");
    same(a.rom.g2().to_dense_matrix(), b.rom.g2().to_dense_matrix(), "G2");
    const auto& e3a = a.rom.g3().entries();
    const auto& e3b = b.rom.g3().entries();
    ASSERT_EQ(e3a.size(), e3b.size());
    for (std::size_t k = 0; k < e3a.size(); ++k) {
        EXPECT_EQ(e3a[k].value, e3b[k].value);
        EXPECT_EQ(e3a[k].row, e3b[k].row);
    }
}

/// The same reduction on a 1-thread and a 4-thread pool.
std::pair<MorResult, MorResult> reduce_on_1_and_4_threads(const Qldae& sys,
                                                          const AtMorOptions& mor) {
    util::ThreadPool::set_global_threads(1);
    MorResult serial = core::reduce_associated(sys, mor);
    util::ThreadPool::set_global_threads(4);
    MorResult parallel = core::reduce_associated(sys, mor);
    util::ThreadPool::set_global_threads(util::ThreadPool::default_thread_count());
    return {std::move(serial), std::move(parallel)};
}

TEST(AtMor, ParallelPipelineProducesIdenticalReducedModel) {
    // The multipoint fan-out must be EXACT: every matrix of the reduced
    // model built on a wide pool equals the single-threaded build bit for
    // bit (blocked solves are bit-equal to single solves, and the basis is
    // assembled in deterministic point order).
    util::Rng rng(2407);
    test::QldaeOptions opt;
    opt.n = 16;
    const Qldae sys = test::random_qldae(opt, rng);
    AtMorOptions mor;
    mor.k1 = 3;
    mor.k2 = 2;
    mor.k3 = 1;
    mor.expansion_points = {Complex(0.9, 0.0), Complex(1.1, 0.7), Complex(0.7, 1.9),
                            Complex(1.4, 0.3)};
    const auto [serial, parallel] = reduce_on_1_and_4_threads(sys, mor);
    expect_identical_models(serial, parallel);

    // One expansion point runs on the calling thread, so the Kronecker
    // solvers' products split across the pool instead (n = 24, k3 = 1: the
    // outer basis changes of G1 (+) Gt2 are 24 x 24 x 600).
    util::Rng rng24(2408);
    test::QldaeOptions opt24;
    opt24.n = 24;
    opt24.cubic = true;
    const Qldae sys24 = test::random_qldae(opt24, rng24);
    AtMorOptions mor24;
    mor24.k1 = 3;
    mor24.k2 = 2;
    mor24.k3 = 1;
    mor24.expansion_points = {Complex(0.9, 0.0)};
    const auto [serial24, parallel24] = reduce_on_1_and_4_threads(sys24, mor24);
    expect_identical_models(serial24, parallel24);
}

TEST(AtMor, ExpansionPointOnEigenvalueTripleSumIsRejected) {
    // G1 has eigenvalues -1, -1.5, -10, so s0 = -3.5 = -1 - 1 - 1.5 is an
    // eigenvalue triple sum -- singular for the A3(H3) resolvents -- but not
    // an eigenvalue or a pair sum.
    la::Matrix g1{{-1.0, 0.3, 0.2}, {0.0, -1.5, 0.4}, {0.0, 0.0, -10.0}};
    sparse::SparseTensor3 g2(3, 3, 3);
    g2.add(0, 0, 1, 0.5);
    g2.add(1, 2, 2, -0.3);
    g2.add(2, 0, 0, 0.2);
    la::Matrix b{{1.0}, {0.5}, {-0.4}};
    la::Matrix c{{1.0, 0.0, 0.0}};
    const Qldae sys(g1, g2, b, c);
    AtMorOptions mor;
    mor.k1 = 3;
    mor.k2 = 1;
    mor.k3 = 1;
    mor.expansion_points = {Complex(-3.5, 0.0)};
    try {
        (void)core::reduce_associated(sys, mor);
        ADD_FAILURE() << "a triple-sum expansion point was accepted";
    } catch (const util::PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("triple sum"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("(-3.5,0)"), std::string::npos) << e.what();
    }
    mor.k3 = 0;
    EXPECT_EQ(core::reduce_associated(sys, mor).order, 3);
}

TEST(AtMor, InvalidOptionsThrow) {
    util::Rng rng(2406);
    test::QldaeOptions opt;
    opt.n = 5;
    const Qldae sys = test::random_qldae(opt, rng);
    AtMorOptions mor;
    mor.k1 = 0;
    EXPECT_THROW(core::reduce_associated(sys, mor), util::PreconditionError);
    mor.k1 = 2;
    mor.expansion_points.clear();
    EXPECT_THROW(core::reduce_associated(sys, mor), util::PreconditionError);
}

}  // namespace
}  // namespace atmor
