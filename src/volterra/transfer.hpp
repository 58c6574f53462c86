// Direct evaluation of the multivariate Volterra transfer functions
// H1(s), H2(s1,s2), H3(s1,s2,s3) of a QLDAE via the growing-exponential
// (harmonic probing) formulas -- paper eq. (14a-c), extended with the cubic
// G3 term used by Sec. 3.4:
//
//  H3 = (1/3)((s1+s2+s3)I - G1)^{-1} { G2 [6 H1 (x) H2 permutation terms]
//        + D1 [3 H2 terms] + (1/2) G3 [6 H1 (x) H1 (x) H1 permutations] }.
//
// These are the ground truth the associated transform is tested against and
// the quantities the harmonic-balance validation predicts.
#pragma once

#include <memory>

#include "la/matrix.hpp"
#include "la/solver_backend.hpp"
#include "volterra/qldae.hpp"

namespace atmor::volterra {

/// Symmetrized second-order forcing of the harmonic-probing formula (the
/// sym(.) terms of paper eq. 17): 0.5 * (G2(x_i (x) x_j) + G2(x_j (x) x_i) +
/// D1_i x_j + D1_j x_i) for the first-order states x_i of input i and x_j of
/// input j. H2's column (i, j) is the resolvent at s1 + s2 applied to it.
la::ZVec h2_forcing(const Qldae& sys, const la::ZVec& xi, const la::ZVec& xj, int i, int j);

/// Output map Y = C X, column by column (C real, X complex).
la::ZMatrix map_output(const la::Matrix& c, const la::ZMatrix& x);

class TransferEvaluator {
public:
    /// @param backend resolvent solver; defaults to sparse LU for sparse
    ///        systems and Schur for dense ones (factor G1 once, then every
    ///        shift s1 + s2 + ... is a cheap cached/triangular solve).
    explicit TransferEvaluator(Qldae sys, std::shared_ptr<la::SolverBackend> backend = nullptr);

    /// H1(s): n x m.
    [[nodiscard]] la::ZMatrix h1(la::Complex s) const;

    /// H2(s1, s2): n x m^2, column i*m + j is the (input_i, input_j) kernel,
    /// symmetric under (i, s1) <-> (j, s2).
    [[nodiscard]] la::ZMatrix h2(la::Complex s1, la::Complex s2) const;

    /// H3(s1, s2, s3): n x m^3, column (i*m + j)*m + k.
    [[nodiscard]] la::ZMatrix h3(la::Complex s1, la::Complex s2, la::Complex s3) const;

    /// Output-mapped kernels y = C * Hn(...): l x m^n.
    [[nodiscard]] la::ZMatrix output_h1(la::Complex s) const;
    [[nodiscard]] la::ZMatrix output_h2(la::Complex s1, la::Complex s2) const;

    /// Frequency-grid sweeps, parallelised across grid points on the global
    /// thread pool. Each point is an independent resolvent workload (its own
    /// factorisation under sparse LU, a shared triangular backsolve under
    /// Schur), so the sweep scales with cores; results land in grid order
    /// and match the pointwise evaluations exactly.
    [[nodiscard]] std::vector<la::ZMatrix> h1_sweep(const std::vector<la::Complex>& grid) const;
    [[nodiscard]] std::vector<la::ZMatrix> output_h1_sweep(
        const std::vector<la::Complex>& grid) const;

    [[nodiscard]] const Qldae& system() const { return sys_; }
    [[nodiscard]] const std::shared_ptr<la::SolverBackend>& backend() const {
        return backend_;
    }

private:
    [[nodiscard]] la::ZVec resolvent(la::Complex s, const la::ZVec& rhs) const;
    [[nodiscard]] la::ZVec h1_col(la::Complex s, int input) const;
    [[nodiscard]] la::ZVec h2_col(la::Complex s1, la::Complex s2, int i, int j) const;

    Qldae sys_;
    std::shared_ptr<la::SolverBackend> backend_;
};

/// Steady-state harmonic prediction for a single-tone input
/// u_i(t) = amplitude * cos(omega t) on input `input` (others zero):
/// returns the complex coefficients of e^{j k omega t}, k = 0..3, of the
/// output, truncated at third order in the Volterra series.
struct HarmonicPrediction {
    la::Complex dc;      ///< k = 0 (second-order rectification)
    la::Complex first;   ///< k = 1 (linear response; 3rd-order term omitted)
    la::Complex second;  ///< k = 2, (A^2/4) H2(jw, jw)
    la::Complex third;   ///< k = 3, (A^3/8) H3(jw, jw, jw)
};

HarmonicPrediction predict_harmonics(const TransferEvaluator& te, double omega,
                                     double amplitude, int input = 0, int output = 0);

/// One tone of a multi-tone drive u_input(t) = amplitude * sin(omega t +
/// phase) -- the SIN convention of circuits::multi_tone_input and
/// rom::WaveformSpec::multi_tone, so predictions validate directly against
/// transient steady states.
struct Tone {
    double omega = 0.0;
    double amplitude = 0.0;
    double phase = 0.0;
    int input = 0;
};

/// Steady-state two-tone intermodulation prediction: the complex
/// coefficients of e^{j omega t} in the output at each product frequency,
/// truncated at third order in the Volterra series. A real product at
/// omega > 0 has amplitude 2 |coeff| (the conjugate partner at -omega adds
/// the other half); a dc term has amplitude |coeff|.
struct TwoToneIntermod {
    la::Complex fundamental_a;  ///< at omega_a (first order; compression omitted)
    la::Complex fundamental_b;  ///< at omega_b
    la::Complex sum;            ///< at omega_a + omega_b, 2nd order
    la::Complex diff;           ///< at |omega_a - omega_b|, 2nd order
    la::Complex dc;             ///< rectification offset, 2nd order
    la::Complex im3_low;        ///< at |2 omega_a - omega_b|, 3rd order
    la::Complex im3_high;       ///< at |2 omega_b - omega_a|, 3rd order
};

/// Predict the two-tone products through H1 / H2(s1, s2) / H3 harmonic
/// probing. The tones may drive DIFFERENT inputs (a mixer's RF x LO product
/// is the sum/diff term with a on one port and b on the other).
TwoToneIntermod predict_intermod(const TransferEvaluator& te, const Tone& a, const Tone& b,
                                 int output = 0);

/// Intermodulation sweep: tone a fixed, tone b swept over `bs`,
/// parallelised across the sweep on the global thread pool. Results land in
/// sweep order and match the pointwise predictions exactly.
std::vector<TwoToneIntermod> predict_intermod_sweep(const TransferEvaluator& te, const Tone& a,
                                                    const std::vector<Tone>& bs,
                                                    int output = 0);

}  // namespace atmor::volterra
