#include <gtest/gtest.h>

#include "la/qr.hpp"
#include "la/vector_ops.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using la::Matrix;

class QrShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrShapes, ReconstructsAndOrthogonal) {
    const auto [m, n] = GetParam();
    util::Rng rng(200 + static_cast<std::uint64_t>(m * 31 + n));
    const Matrix a = test::random_matrix(m, n, rng);
    la::QrFactorization qr(a);
    const Matrix q = qr.thin_q();
    const Matrix r = qr.r();
    EXPECT_LT(la::max_abs(la::matmul(q, r) - a), 1e-12 * (1.0 + la::max_abs(a)));
    const Matrix qtq = la::matmul(la::transpose(q), q);
    EXPECT_LT(la::max_abs(qtq - Matrix::identity(n)), 1e-12);
    // R upper triangular.
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QrShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{3, 2}, std::pair{5, 5},
                                           std::pair{20, 7}, std::pair{60, 60},
                                           std::pair{100, 30}));

TEST(Qr, RequiresTall) {
    Matrix a(2, 3);
    EXPECT_THROW(la::QrFactorization qr(a), util::PreconditionError);
}

}  // namespace
}  // namespace atmor
