// Tests for the documented practical caveats of the method: singular
// expansion points on exactly-lifted systems and the symmetric storage of
// reduced tensors.
#include <gtest/gtest.h>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "core/norm.hpp"
#include "core/projection.hpp"
#include "core/sylvester_decouple.hpp"
#include "la/orth.hpp"
#include "la/vector_ops.hpp"
#include "test_qldae_helpers.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Vec;

TEST(Guards, LiftedSystemRejectsDcExpansion) {
    // The exact lifting slaves the diode states => G1 singular => the s = 0
    // expansion must be rejected with a clear error, not silently produce
    // garbage moments.
    circuits::NltlOptions copt;
    copt.stages = 6;
    const auto sys = circuits::current_source_line(copt).to_qldae();
    core::AtMorOptions mor;
    mor.k1 = 3;
    mor.k2 = 1;
    mor.k3 = 0;
    mor.expansion_points = {Complex(0.0, 0.0)};
    EXPECT_THROW(core::reduce_associated(sys, mor), util::PreconditionError);
    // A shifted expansion works.
    mor.expansion_points = {Complex(1.0, 0.0)};
    EXPECT_NO_THROW(core::reduce_associated(sys, mor));
}

TEST(Guards, NormRejectsDcExpansionOnLiftedSystem) {
    circuits::NltlOptions copt;
    copt.stages = 6;
    const auto sys = circuits::current_source_line(copt).to_qldae();
    core::NormOptions nopt;
    nopt.q1 = 3;
    nopt.q2 = 1;
    nopt.q3 = 0;
    nopt.sigma0 = Complex(0.0, 0.0);
    EXPECT_THROW(core::reduce_norm(sys, nopt), util::PreconditionError);
    nopt.sigma0 = Complex(1.0, 0.0);
    EXPECT_NO_THROW(core::reduce_norm(sys, nopt));
}

TEST(Guards, PiDecouplingSingularOnLiftedSystem) {
    // 0 = 0 + 0 eigenvalue collision: eq. 18's Sylvester equation is
    // singular for exactly-lifted quadratic systems.
    circuits::NltlOptions copt;
    copt.stages = 5;
    const auto sys = circuits::current_source_line(copt).to_qldae();
    EXPECT_THROW(core::solve_pi(sys), util::InternalError);
}

TEST(ReducedTensors, SymmetricCubicStorageMatchesDenseForm) {
    // reduce_tensor4 stores the symmetric part only; the cubic FORM and its
    // Jacobian must match the direct projection V^T G3 (Vx)^(x)3.
    util::Rng rng(3000);
    test::QldaeOptions opt;
    opt.n = 8;
    opt.cubic = true;
    const auto sys = test::random_qldae(opt, rng);
    const la::Matrix v = la::orthonormalize_columns(test::random_matrix(8, 3, rng));
    const auto g3r = core::reduce_tensor4(sys.g3(), v);
    for (int trial = 0; trial < 5; ++trial) {
        const Vec xr = test::random_vector(3, rng);
        const Vec x = la::matvec(v, xr);
        const Vec direct = la::matvec_transposed(v, sys.g3().apply(x, x, x));
        EXPECT_LT(la::dist2(g3r.apply(xr, xr, xr), direct), 1e-11 * (1.0 + la::norm2(direct)));
    }
    // Jacobian consistency by finite differences.
    const Vec x0 = test::random_vector(3, rng);
    const la::Matrix jac = g3r.jacobian(x0);
    const double h = 1e-6;
    for (int k = 0; k < 3; ++k) {
        Vec xp = x0, xm = x0;
        xp[static_cast<std::size_t>(k)] += h;
        xm[static_cast<std::size_t>(k)] -= h;
        const Vec fd = la::sub(g3r.apply(xp, xp, xp), g3r.apply(xm, xm, xm));
        for (int r = 0; r < 3; ++r)
            EXPECT_NEAR(jac(r, k), fd[static_cast<std::size_t>(r)] / (2.0 * h), 1e-5);
    }
}

TEST(ReducedTensors, SymmetricQuadraticStorageMatchesDenseForm) {
    util::Rng rng(3001);
    test::QldaeOptions opt;
    opt.n = 9;
    const auto sys = test::random_qldae(opt, rng);
    const la::Matrix v = la::orthonormalize_columns(test::random_matrix(9, 4, rng));
    const auto g2r = core::reduce_tensor3(sys.g2(), v);
    // Entry count is the symmetric ~q^3/2, not q^3.
    EXPECT_LE(static_cast<int>(g2r.entry_count()), 4 * 4 * (4 + 1) / 2);
    for (int trial = 0; trial < 5; ++trial) {
        const Vec xr = test::random_vector(4, rng);
        const Vec x = la::matvec(v, xr);
        const Vec direct = la::matvec_transposed(v, sys.g2().apply(x, x));
        EXPECT_LT(la::dist2(g2r.apply(xr, xr), direct), 1e-11 * (1.0 + la::norm2(direct)));
    }
}

TEST(ReducedTensors, RomVolterraKernelsStillMatchFullOnes) {
    // The symmetric compression must not change the ROM's transfer functions
    // (they only probe the symmetrised kernels).
    util::Rng rng(3002);
    test::QldaeOptions opt;
    opt.n = 12;
    opt.cubic = true;
    const auto sys = test::random_qldae(opt, rng);
    core::AtMorOptions mor;
    mor.k1 = 4;
    mor.k2 = 2;
    mor.k3 = 2;
    const auto res = core::reduce_associated(sys, mor);
    const volterra::AssociatedTransform full(sys);
    const volterra::AssociatedTransform rom(res.rom);
    const Complex s(0.05, 0.1);
    const la::ZVec yf = la::matvec(la::complexify(sys.c()), full.a3h3_moments(1, s)[0].col(0));
    const la::ZVec yr =
        la::matvec(la::complexify(res.rom.c()), rom.a3h3_moments(1, s)[0].col(0));
    EXPECT_LT(la::dist2(yf, yr), 5e-2 * (1.0 + la::norm2(yf)));
}

}  // namespace
}  // namespace atmor
