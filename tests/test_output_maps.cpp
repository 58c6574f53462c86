// Output-mapped transfer kernels and MISO bookkeeping details.
#include <gtest/gtest.h>

#include "la/vector_ops.hpp"
#include "test_qldae_helpers.hpp"
#include "volterra/associated.hpp"
#include "volterra/transfer.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::ZMatrix;
using volterra::Qldae;
using volterra::TransferEvaluator;

TEST(OutputMaps, OutputKernelsAreCMappedStateKernels) {
    util::Rng rng(3200);
    test::QldaeOptions opt;
    opt.n = 6;
    opt.inputs = 2;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const TransferEvaluator te(sys);
    const Complex s1(0.2, 0.5), s2(-0.1, 0.8);

    const ZMatrix h2 = te.h2(s1, s2);
    const ZMatrix oh2 = te.output_h2(s1, s2);
    ASSERT_EQ(oh2.rows(), 1);
    for (int col = 0; col < h2.cols(); ++col) {
        const la::ZVec mapped = la::matvec(la::complexify(sys.c()), h2.col(col));
        EXPECT_LT(std::abs(oh2(0, col) - mapped[0]), 1e-12);
    }
}

TEST(OutputMaps, MisoAssociatedColumnsSymmetricInInputs) {
    // A2(H2) columns for (i, j) and (j, i) coincide; A3(H3) columns are
    // invariant under any permutation of the input triple.
    util::Rng rng(3201);
    test::QldaeOptions opt;
    opt.n = 5;
    opt.inputs = 2;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const volterra::AssociatedTransform at(sys);
    const Complex s(0.4, 0.0);
    const int m = 2;

    const ZMatrix a2 = at.a2h2_moments(1, s)[0];
    EXPECT_LT(la::dist2(a2.col(0 * m + 1), a2.col(1 * m + 0)), 1e-13);

    const ZMatrix a3 = at.a3h3_moments(1, s)[0];
    const int c011 = (0 * m + 1) * m + 1;
    const int c101 = (1 * m + 0) * m + 1;
    const int c110 = (1 * m + 1) * m + 0;
    EXPECT_LT(la::dist2(a3.col(c011), a3.col(c101)), 1e-13);
    EXPECT_LT(la::dist2(a3.col(c011), a3.col(c110)), 1e-13);
}

TEST(OutputMaps, BtildeStructureMatchesRealizationDimensions) {
    util::Rng rng(3202);
    test::QldaeOptions opt;
    opt.n = 4;
    opt.inputs = 2;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const volterra::AssociatedTransform at(sys);
    const auto bt = at.btilde2(0, 1);
    EXPECT_EQ(static_cast<int>(bt.size()), 4 + 16);  // n + n^2 (eq. 17 state)
    // Head is d0 = sym(D1 b).
    const auto d0 = at.d0(0, 1);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(bt[static_cast<std::size_t>(i)], d0[static_cast<std::size_t>(i)]);
}

TEST(OutputMaps, HarmonicPredictionValidatesInputIndex) {
    util::Rng rng(3203);
    test::QldaeOptions opt;
    opt.n = 4;
    const Qldae sys = test::random_qldae(opt, rng);
    const TransferEvaluator te(sys);
    EXPECT_THROW(volterra::predict_harmonics(te, 1.0, 0.1, /*input=*/5),
                 util::PreconditionError);
}

}  // namespace
}  // namespace atmor
