#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "circuits/nltl.hpp"
#include "circuits/varistor.hpp"
#include "la/vector_ops.hpp"
#include "test_alloc_counter.hpp"
#include "test_qldae_helpers.hpp"
#include "volterra/qldae.hpp"

namespace atmor {
namespace {

using la::Matrix;
using la::Vec;
using volterra::Qldae;

/// A system whose G2 and G3 hold every monomial of every row, like a ROM's
/// reduced tensors, stored the way no builder stores them: each monomial in
/// a random slot order, plus q duplicate entries per row. Two inputs, each
/// with a bilinear D1 block.
Qldae dense_tensor_system(int q, util::Rng& rng) {
    sparse::SparseTensor3 g2(q, q, q);
    sparse::SparseTensor4 g3(q);
    const auto any = [&] { return rng.uniform_int(0, q - 1); };
    for (int r = 0; r < q; ++r) {
        for (int a = 0; a < q; ++a)
            for (int b = a; b < q; ++b) {
                if (rng.uniform() < 0.5)
                    g2.add(r, a, b, rng.gaussian());
                else
                    g2.add(r, b, a, rng.gaussian());
                for (int c = b; c < q; ++c) {
                    std::array<int, 3> slots{a, b, c};
                    std::shuffle(slots.begin(), slots.end(), rng.engine());
                    g3.add(r, slots[0], slots[1], slots[2], rng.gaussian());
                }
            }
        for (int d = 0; d < q; ++d) {
            g2.add(r, any(), any(), rng.gaussian());
            g3.add(r, any(), any(), any(), rng.gaussian());
        }
    }
    std::vector<Matrix> d1{test::random_matrix(q, q, rng), test::random_matrix(q, q, rng)};
    return Qldae(test::random_stable_matrix(q, rng), std::move(g2), std::move(g3), std::move(d1),
                 test::random_matrix(q, 2, rng), test::random_matrix(1, q, rng));
}

/// f(x, u) summed term by term from the stored triplets and dense blocks:
/// the reference either storage of the tensors must reproduce. scale[r]
/// sums |term| over row r.
Vec triplet_rhs(const Qldae& sys, const Vec& x, const Vec& u, Vec& scale) {
    const auto n = static_cast<std::size_t>(sys.order());
    Vec f(n, 0.0);
    scale.assign(n, 0.0);
    const auto add = [&](int r, double term) {
        f[static_cast<std::size_t>(r)] += term;
        scale[static_cast<std::size_t>(r)] += std::abs(term);
    };
    const auto xs = [&](int i) { return x[static_cast<std::size_t>(i)]; };
    for (int r = 0; r < sys.order(); ++r)
        for (int c = 0; c < sys.order(); ++c) add(r, sys.g1()(r, c) * xs(c));
    for (const auto& e : sys.g2().entries()) add(e.row, e.value * xs(e.i) * xs(e.j));
    for (const auto& e : sys.g3().entries()) add(e.row, e.value * xs(e.i) * xs(e.j) * xs(e.k));
    for (int i = 0; i < sys.inputs(); ++i) {
        const double ui = u[static_cast<std::size_t>(i)];
        for (int r = 0; r < sys.order(); ++r) {
            add(r, sys.b()(r, i) * ui);
            if (sys.has_bilinear())
                for (int c = 0; c < sys.order(); ++c) add(r, ui * sys.d1(i)(r, c) * xs(c));
        }
    }
    return f;
}

void expect_matches_triplets(const Qldae& sys, const Vec& x, const Vec& u) {
    Vec scale;
    const Vec ref = triplet_rhs(sys, x, u, scale);
    Vec f;
    Vec work;
    sys.rhs_into(x, u, f, work);
    const Vec g = sys.rhs(x, u);
    ASSERT_EQ(f.size(), ref.size());
    ASSERT_EQ(g.size(), ref.size());
    for (std::size_t r = 0; r < ref.size(); ++r) {
        EXPECT_LE(std::abs(f[r] - ref[r]), 1e-13 * scale[r]) << "row " << r;
        EXPECT_EQ(g[r], f[r]) << "row " << r;
    }
}

TEST(Qldae, ValidatesShapes) {
    Matrix g1 = Matrix::identity(3);
    sparse::SparseTensor3 g2(3, 3, 3);
    Matrix b(3, 1);
    Matrix c(1, 3);
    EXPECT_NO_THROW(Qldae(g1, g2, b, c));
    Matrix bad_b(2, 1);
    EXPECT_THROW(Qldae(g1, g2, bad_b, c), util::PreconditionError);
    sparse::SparseTensor3 bad_g2(2, 2, 2);
    EXPECT_THROW(Qldae(g1, bad_g2, b, c), util::PreconditionError);
}

TEST(Qldae, D1CountMustMatchInputs) {
    Matrix g1 = Matrix::identity(2);
    sparse::SparseTensor3 g2(2, 2, 2);
    Matrix b(2, 2);  // two inputs
    Matrix c(1, 2);
    std::vector<Matrix> d1{Matrix::identity(2)};  // only one D1
    EXPECT_THROW(Qldae(g1, g2, sparse::SparseTensor4(), d1, b, c), util::PreconditionError);
}

TEST(Qldae, RhsAssemblesAllTerms) {
    util::Rng rng(2000);
    test::QldaeOptions opt;
    opt.n = 5;
    opt.inputs = 2;
    opt.quadratic = true;
    opt.cubic = true;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const Vec x = test::random_vector(5, rng);
    const Vec u = test::random_vector(2, rng);

    Vec expected = la::matvec(sys.g1(), x);
    la::axpy(1.0, sys.g2().apply(x, x), expected);
    la::axpy(1.0, sys.g3().apply(x, x, x), expected);
    for (int i = 0; i < 2; ++i) {
        la::axpy(u[static_cast<std::size_t>(i)], la::matvec(sys.d1(i), x), expected);
        la::axpy(u[static_cast<std::size_t>(i)], sys.b_col(i), expected);
    }
    EXPECT_LT(la::dist2(sys.rhs(x, u), expected), 1e-12);
}

TEST(Qldae, JacobianMatchesFiniteDifference) {
    util::Rng rng(2001);
    test::QldaeOptions opt;
    opt.n = 5;
    opt.inputs = 2;
    opt.quadratic = true;
    opt.cubic = true;
    opt.bilinear = true;
    const Qldae sys = test::random_qldae(opt, rng);
    const Vec x = test::random_vector(5, rng);
    const Vec u = test::random_vector(2, rng);
    const Matrix jac = sys.jacobian(x, u);
    const double h = 1e-6;
    for (int k = 0; k < 5; ++k) {
        Vec xp = x, xm = x;
        xp[static_cast<std::size_t>(k)] += h;
        xm[static_cast<std::size_t>(k)] -= h;
        const Vec fp = sys.rhs(xp, u);
        const Vec fm = sys.rhs(xm, u);
        for (int r = 0; r < 5; ++r) {
            const double fd = (fp[static_cast<std::size_t>(r)] - fm[static_cast<std::size_t>(r)]) /
                              (2.0 * h);
            EXPECT_NEAR(jac(r, k), fd, 1e-5 * (1.0 + std::abs(fd)));
        }
    }
}

TEST(Qldae, PackedTensorsMatchTripletEvaluation) {
    util::Rng rng(2002);
    for (const int q : {1, 2, 5, 11, 16}) {
        SCOPED_TRACE(q);
        const Qldae sys = dense_tensor_system(q, rng);
        const auto uq = static_cast<std::size_t>(q);
        const std::size_t pairs = uq * (uq + 1) / 2;
        const std::size_t triples = pairs * (uq + 2) / 3;
        EXPECT_EQ(sys.packed_coefficients(), uq * (pairs + triples));
        const Vec x = test::random_vector(q, rng);
        expect_matches_triplets(sys, x, Vec{rng.gaussian(), 0.0});
        expect_matches_triplets(sys, x, Vec{0.0, rng.gaussian()});
    }
}

TEST(Qldae, SparseTensorsStayInTripletForm) {
    // The stamped varistor is dense, but its 6 G2 and 2 G3 entries are a
    // sliver of the 102 x 5253 and 102 x 182104 packed matrices.
    const Qldae sys = circuits::varistor_circuit().system;
    ASSERT_FALSE(sys.is_sparse());
    EXPECT_EQ(sys.g2().entry_count(), 6u);
    EXPECT_EQ(sys.g3().entry_count(), 2u);
    EXPECT_EQ(sys.packed_coefficients(), 0u);
    util::Rng rng(2003);
    expect_matches_triplets(sys, test::random_vector(sys.order(), rng), Vec{0.8});
}

TEST(Qldae, PacksATensorOnlyWithinTwiceItsEntries) {
    // q = 2: the packed G2 is 2 x 3 = 6 coefficients, so 3 stored entries
    // pack and 2 do not.
    for (const int entries : {2, 3}) {
        sparse::SparseTensor3 g2(2, 2, 2);
        for (int e = 0; e < entries; ++e) g2.add(e % 2, e / 2, 1, 0.5 + e);
        const Qldae sys(Matrix::identity(2), std::move(g2), Matrix(2, 1), Matrix(1, 2));
        EXPECT_EQ(sys.packed_coefficients(), entries == 3 ? 6u : 0u) << entries << " entries";
    }
}

TEST(Qldae, RhsIntoOnWarmedBuffersAllocatesNothing) {
    // Packed tensors (dense G1), triplet tensors (dense G1) and a CSR-stamped
    // system: after one call has sized f and work, none allocates again.
    util::Rng rng(2004);
    const Qldae packed = dense_tensor_system(11, rng);
    const Qldae varistor = circuits::varistor_circuit().system;
    circuits::NltlOptions line;
    line.stages = 35;
    const Qldae nltl = circuits::current_source_line(line).to_qldae();
    ASSERT_GT(packed.packed_coefficients(), 0u);
    ASSERT_TRUE(nltl.is_sparse());
    for (const Qldae* sys : {&packed, &varistor, &nltl}) {
        Vec x = test::random_vector(sys->order(), rng);
        la::scale(0.1, x);
        const Vec u(static_cast<std::size_t>(sys->inputs()), 0.3);
        Vec f;
        Vec work;
        sys->rhs_into(x, u, f, work);
        double sink = 0.0;
        const long before = test::allocations();
        for (int k = 0; k < 1000; ++k) {
            sys->rhs_into(x, u, f, work);
            sink += f[0];
        }
        EXPECT_EQ(test::allocations() - before, 0) << "order " << sys->order();
        EXPECT_TRUE(std::isfinite(sink));
        (void)sys->rhs(x, u);  // the allocating wrapper: proves the counter is live
        EXPECT_GT(test::allocations() - before, 0);
    }
}

TEST(Qldae, StateSelector) {
    const Matrix c = volterra::state_selector(4, 2);
    EXPECT_EQ(c.rows(), 1);
    EXPECT_DOUBLE_EQ(c(0, 2), 1.0);
    EXPECT_THROW(volterra::state_selector(4, 4), util::PreconditionError);
}

}  // namespace
}  // namespace atmor
