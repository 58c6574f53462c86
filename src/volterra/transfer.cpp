#include "volterra/transfer.hpp"

#include "la/vector_ops.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace atmor::volterra {

using la::Complex;
using la::ZMatrix;
using la::ZVec;

ZVec h2_forcing(const Qldae& sys, const ZVec& xi, const ZVec& xj, int i, int j) {
    ZVec v(static_cast<std::size_t>(sys.order()), Complex(0));
    if (sys.has_quadratic()) {
        la::axpy(Complex(1), sys.g2().apply(xi, xj), v);
        la::axpy(Complex(1), sys.g2().apply(xj, xi), v);
    }
    if (sys.has_bilinear()) {
        la::axpy(Complex(1), sys.apply_d1(i, xj), v);
        la::axpy(Complex(1), sys.apply_d1(j, xi), v);
    }
    la::scale(Complex(0.5), v);
    return v;
}

ZMatrix map_output(const la::Matrix& c, const ZMatrix& x) {
    ZMatrix y(c.rows(), x.cols());
    for (int col = 0; col < x.cols(); ++col) y.set_col(col, la::matvec_rc(c, x.col(col)));
    return y;
}

TransferEvaluator::TransferEvaluator(Qldae sys, std::shared_ptr<la::SolverBackend> backend)
    : sys_(std::move(sys)), backend_(std::move(backend)) {
    if (!backend_) backend_ = la::make_resolvent_backend(sys_.g1_op());
}

ZVec TransferEvaluator::resolvent(Complex s, const ZVec& rhs) const {
    return backend_->solve_shifted(sys_.g1_op(), s, rhs);
}

ZVec TransferEvaluator::h1_col(Complex s, int input) const {
    return resolvent(s, la::complexify(sys_.b_col(input)));
}

ZMatrix TransferEvaluator::h1(Complex s) const {
    const int n = sys_.order(), m = sys_.inputs();
    // All m input columns through one blocked resolvent solve.
    ZMatrix b(n, m);
    for (int i = 0; i < m; ++i) b.set_col(i, la::complexify(sys_.b_col(i)));
    return backend_->solve_shifted(sys_.g1_op(), s, b);
}

ZVec TransferEvaluator::h2_col(Complex s1, Complex s2, int i, int j) const {
    const ZVec hi = h1_col(s1, i);
    const ZVec hj = h1_col(s2, j);
    return resolvent(s1 + s2, h2_forcing(sys_, hi, hj, i, j));
}

ZMatrix TransferEvaluator::h2(Complex s1, Complex s2) const {
    const int n = sys_.order(), m = sys_.inputs();
    ZMatrix out(n, m * m);
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < m; ++j) out.set_col(i * m + j, h2_col(s1, s2, i, j));
    return out;
}

ZMatrix TransferEvaluator::h3(Complex s1, Complex s2, Complex s3) const {
    const int n = sys_.order(), m = sys_.inputs();
    ZMatrix out(n, m * m * m);

    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < m; ++j) {
            for (int k = 0; k < m; ++k) {
                ZVec acc(static_cast<std::size_t>(n), Complex(0));
                // The three H1 (x) H2 assignments: (i,s1|jk,s2s3), (j,s2|ik,s1s3),
                // (k,s3|ij,s1s2), each in both Kronecker orders.
                struct Assign {
                    int a;
                    Complex sa;
                    int b;
                    Complex sb;
                    int c;
                    Complex sc;
                };
                const Assign assigns[3] = {{i, s1, j, s2, k, s3},
                                           {j, s2, i, s1, k, s3},
                                           {k, s3, i, s1, j, s2}};
                for (const auto& as : assigns) {
                    const ZVec h1a = h1_col(as.sa, as.a);
                    const ZVec h2bc = h2_col(as.sb, as.sc, as.b, as.c);
                    if (sys_.has_quadratic()) {
                        la::axpy(Complex(1), sys_.g2().apply(h1a, h2bc), acc);
                        la::axpy(Complex(1), sys_.g2().apply(h2bc, h1a), acc);
                    }
                    if (sys_.has_bilinear())
                        la::axpy(Complex(1), sys_.apply_d1(as.a, h2bc), acc);
                }
                if (sys_.has_cubic()) {
                    // (1/2) sum over the 6 permutations of {(i,s1),(j,s2),(k,s3)}.
                    const ZVec hi = h1_col(s1, i), hj = h1_col(s2, j), hk = h1_col(s3, k);
                    ZVec cub(static_cast<std::size_t>(n), Complex(0));
                    la::axpy(Complex(1), sys_.g3().apply(hi, hj, hk), cub);
                    la::axpy(Complex(1), sys_.g3().apply(hi, hk, hj), cub);
                    la::axpy(Complex(1), sys_.g3().apply(hj, hi, hk), cub);
                    la::axpy(Complex(1), sys_.g3().apply(hj, hk, hi), cub);
                    la::axpy(Complex(1), sys_.g3().apply(hk, hi, hj), cub);
                    la::axpy(Complex(1), sys_.g3().apply(hk, hj, hi), cub);
                    la::axpy(Complex(0.5), cub, acc);
                }
                la::scale(Complex(1.0 / 3.0), acc);
                out.set_col((i * m + j) * m + k, resolvent(s1 + s2 + s3, acc));
            }
        }
    }
    return out;
}

ZMatrix TransferEvaluator::output_h1(Complex s) const { return map_output(sys_.c(), h1(s)); }

std::vector<ZMatrix> TransferEvaluator::h1_sweep(const std::vector<Complex>& grid) const {
    return util::ThreadPool::global().parallel_map<ZMatrix>(
        0, static_cast<long>(grid.size()),
        [&](long p) { return h1(grid[static_cast<std::size_t>(p)]); });
}

std::vector<ZMatrix> TransferEvaluator::output_h1_sweep(const std::vector<Complex>& grid) const {
    return util::ThreadPool::global().parallel_map<ZMatrix>(
        0, static_cast<long>(grid.size()),
        [&](long p) { return output_h1(grid[static_cast<std::size_t>(p)]); });
}

std::vector<ZMatrix> TransferEvaluator::output_h2_diagonal_sweep(
    const std::vector<Complex>& grid) const {
    return util::ThreadPool::global().parallel_map<ZMatrix>(
        0, static_cast<long>(grid.size()), [&](long p) {
            const Complex s = grid[static_cast<std::size_t>(p)];
            return output_h2(s, s);
        });
}

ZMatrix TransferEvaluator::output_h2(Complex s1, Complex s2) const {
    return map_output(sys_.c(), h2(s1, s2));
}

ZMatrix TransferEvaluator::output_h3(Complex s1, Complex s2, Complex s3) const {
    return map_output(sys_.c(), h3(s1, s2, s3));
}

HarmonicPrediction predict_harmonics(const TransferEvaluator& te, double omega,
                                     double amplitude, int input, int output) {
    const int m = te.system().inputs();
    ATMOR_REQUIRE(input >= 0 && input < m, "predict_harmonics: bad input index");
    ATMOR_REQUIRE(output >= 0 && output < te.system().outputs(),
                  "predict_harmonics: bad output index");
    const Complex jw(0.0, omega);
    const double half = 0.5 * amplitude;

    HarmonicPrediction p;
    const int pair = input * m + input;
    const int triple = (input * m + input) * m + input;
    p.first = half * te.output_h1(jw)(output, input);
    // x2 = sum over tone signs: e^{2jwt}: H2(jw, jw) (A/2)^2 ; DC: 2 H2(jw, -jw)(A/2)^2.
    p.second = half * half * te.output_h2(jw, jw)(output, pair);
    p.dc = 2.0 * half * half * te.output_h2(jw, std::conj(jw))(output, pair);
    // e^{3jwt}: H3(jw, jw, jw) (A/2)^3.
    p.third = half * half * half * te.output_h3(jw, jw, jw)(output, triple);
    return p;
}

std::vector<HarmonicPrediction> predict_harmonics_sweep(const TransferEvaluator& te,
                                                        const std::vector<double>& omegas,
                                                        double amplitude, int input,
                                                        int output) {
    return util::ThreadPool::global().parallel_map<HarmonicPrediction>(
        0, static_cast<long>(omegas.size()), [&](long p) {
            return predict_harmonics(te, omegas[static_cast<std::size_t>(p)], amplitude, input,
                                     output);
        });
}

TwoToneIntermod predict_intermod(const TransferEvaluator& te, const Tone& a, const Tone& b,
                                 int output) {
    const int m = te.system().inputs();
    ATMOR_REQUIRE(a.input >= 0 && a.input < m && b.input >= 0 && b.input < m,
                  "predict_intermod: bad input index");
    ATMOR_REQUIRE(output >= 0 && output < te.system().outputs(),
                  "predict_intermod: bad output index");
    ATMOR_REQUIRE(a.omega > 0.0 && b.omega > 0.0,
                  "predict_intermod: tone frequencies must be positive");

    // Exponential components of A sin(wt + phi): coefficient A e^{j phi}/(2j)
    // at +jw, its conjugate at -jw.
    const Complex ca = a.amplitude * std::exp(Complex(0.0, a.phase)) / Complex(0.0, 2.0);
    const Complex cb = b.amplitude * std::exp(Complex(0.0, b.phase)) / Complex(0.0, 2.0);
    const Complex ja(0.0, a.omega), jb(0.0, b.omega);
    const int pair_ab = a.input * m + b.input;
    const int triple_aab = (a.input * m + a.input) * m + b.input;
    const int triple_bba = (b.input * m + b.input) * m + a.input;

    // A product whose net frequency came out negative is reported at the
    // positive mirror: the coefficient of e^{+j|w|t} is the conjugate.
    const auto at_positive = [](double omega, Complex coeff) {
        return omega >= 0.0 ? coeff : std::conj(coeff);
    };

    TwoToneIntermod p;
    p.fundamental_a = ca * te.output_h1(ja)(output, a.input);
    p.fundamental_b = cb * te.output_h1(jb)(output, b.input);
    // Ordered component pairs (a+, b+) and (b+, a+) are equal by H2's
    // (input, s) exchange symmetry: evaluate one, double it.
    p.sum = 2.0 * ca * cb * te.output_h2(ja, jb)(output, pair_ab);
    p.diff = at_positive(a.omega - b.omega,
                         2.0 * ca * std::conj(cb) * te.output_h2(ja, -jb)(output, pair_ab));
    // Rectification: (a+, a-) and (b+, b-) pairs, each in both orders.
    p.dc = 2.0 * ca * std::conj(ca) *
               te.output_h2(ja, -ja)(output, a.input * m + a.input) +
           2.0 * cb * std::conj(cb) * te.output_h2(jb, -jb)(output, b.input * m + b.input);
    // IM3 at 2wa - wb: the 3 orderings of {a+, a+, b-} are equal by H3's
    // simultaneous permutation symmetry.
    p.im3_low = at_positive(2.0 * a.omega - b.omega,
                            3.0 * ca * ca * std::conj(cb) *
                                te.output_h3(ja, ja, -jb)(output, triple_aab));
    p.im3_high = at_positive(2.0 * b.omega - a.omega,
                             3.0 * cb * cb * std::conj(ca) *
                                 te.output_h3(jb, jb, -ja)(output, triple_bba));
    return p;
}

std::vector<TwoToneIntermod> predict_intermod_sweep(const TransferEvaluator& te, const Tone& a,
                                                    const std::vector<Tone>& bs, int output) {
    return util::ThreadPool::global().parallel_map<TwoToneIntermod>(
        0, static_cast<long>(bs.size()), [&](long p) {
            return predict_intermod(te, a, bs[static_cast<std::size_t>(p)], output);
        });
}

}  // namespace atmor::volterra
