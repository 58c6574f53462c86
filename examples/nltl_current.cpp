// Current-driven nonlinear transmission line (paper Sec. 3.2 scenario):
// QLDAE without D1; compares the proposed associated-transform reduction
// against the NORM-style multivariate moment matching baseline.
//
//   $ ./nltl_current [stages]
#include <cstdio>
#include <cstdlib>

#include "circuits/nltl.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "core/norm.hpp"
#include "ode/transient.hpp"

int main(int argc, char** argv) {
    using namespace atmor;
    circuits::NltlOptions copt;
    copt.stages = (argc > 1) ? std::atoi(argv[1]) : 35;

    const auto full = circuits::current_source_line(copt).to_qldae();
    std::printf("current-driven NLTL: %d stages -> n = %d (paper: x in R^70)\n", copt.stages,
                full.order());

    core::AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    mor.expansion_points = {la::Complex(1.0, 0.0)};
    const auto proposed = core::reduce_associated(full, mor);

    core::NormOptions nopt;
    nopt.q1 = 6;
    nopt.q2 = 3;
    nopt.q3 = 2;
    nopt.sigma0 = la::Complex(1.0, 0.0);
    const auto norm = core::reduce_norm(full, nopt);

    std::printf("proposed: order %d (build %.3f s) | NORM: order %d (build %.3f s)\n",
                proposed.order, proposed.build_seconds, norm.order, norm.build_seconds);

    const auto input = circuits::pulse_input(0.5, 0.5, 1.0, 5.0, 1.5);
    ode::TransientOptions topt;
    topt.t_end = 30.0;
    topt.dt = 2e-3;
    topt.record_stride = 100;
    const auto y_full = ode::simulate(full, input, topt);
    const auto y_prop = ode::simulate(proposed.rom, input, topt);
    const auto y_norm = ode::simulate(norm.rom, input, topt);

    std::printf("\nODE solve: full %.3f s | proposed ROM %.3f s | NORM ROM %.3f s\n",
                y_full.solve_seconds, y_prop.solve_seconds, y_norm.solve_seconds);
    std::printf("peak rel err: proposed %.3e | NORM %.3e\n",
                ode::peak_relative_error(y_full, y_prop),
                ode::peak_relative_error(y_full, y_norm));
    return 0;
}
