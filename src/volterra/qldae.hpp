// The quadratic-linear (plus optional cubic) state-space system of the paper:
//
//     x' = G1 x + G2 (x (x) x) + G3 (x (x) x (x) x)
//              + sum_i D1_i x u_i + B u,          y = C x        (paper eq. 2)
//
// The paper works with a "regular" system (invertible descriptor matrix
// absorbed into the other operators); builders that start from C x' = f(x, u)
// premultiply the inverse during construction (see circuits::).
// G3 extends the paper's QLDAE to the cubic ODEs of its Sec. 3.4.
//
// Storage is SPARSE-FIRST: G1, B, C and the D1 blocks live behind
// la::LinearOperator (CSR when the builder stamped COO entries, dense row-
// major otherwise), so the MOR and transient layers solve/apply through
// la::SolverBackend without densifying. The dense accessors g1()/b()/c()/
// d1() materialise (and cache) a dense mirror on first use; rom::io stores
// every system through them, so a stored model is always dense.
//
// G2 and G3 are stored as triplets (sparse::SparseTensor3/4), the canonical
// form for rom::io, the moment chains and the H2/H3 evaluators. A tensor
// that is dense in that storage -- the reduced tensors of a ROM -- also gets
// a row-major PACKED copy, built once by the constructor: one column per
// monomial x_a x_b (a <= b), resp. x_a x_b x_c (a <= b <= c). rhs_into then
// evaluates it as the packed monomials times that matrix on the la::simd
// dot kernel instead of through indirect loads. A tensor is packed only when
// the packed matrix holds at most twice its stored entries, so a sparse
// tensor (every stamped circuit) keeps the triplet path and a loaded
// artifact can never make the constructor allocate more than that.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "la/matrix.hpp"
#include "la/operator.hpp"
#include "sparse/csr.hpp"
#include "sparse/tensor3.hpp"
#include "sparse/tensor4.hpp"

namespace atmor::volterra {

class Qldae {
public:
    /// Quadratic system without bilinear input coupling (D1 = 0), dense.
    Qldae(la::Matrix g1, sparse::SparseTensor3 g2, la::Matrix b, la::Matrix c);

    /// Full dense form. d1 must be empty or have one matrix per input column.
    Qldae(la::Matrix g1, sparse::SparseTensor3 g2, sparse::SparseTensor4 g3,
          std::vector<la::Matrix> d1, la::Matrix b, la::Matrix c);

    /// Sparse-first form: CSR stamps straight from the circuit builders.
    Qldae(sparse::CsrMatrix g1, sparse::SparseTensor3 g2, sparse::SparseTensor4 g3,
          std::vector<sparse::CsrMatrix> d1, sparse::CsrMatrix b, sparse::CsrMatrix c);

    [[nodiscard]] int order() const { return g1_op_->rows(); }  ///< state dimension n
    [[nodiscard]] int inputs() const { return inputs_; }        ///< m
    [[nodiscard]] int outputs() const { return outputs_; }      ///< l

    /// True when the system was stamped sparsely (CSR-backed operators).
    [[nodiscard]] bool is_sparse() const { return g1_csr_ != nullptr; }

    // -- Operator views (the hot-path API; never densifies). ---------------
    [[nodiscard]] const la::LinearOperator& g1_op() const { return *g1_op_; }
    /// CSR stamp of G1 (nullptr for dense-constructed systems).
    [[nodiscard]] const sparse::CsrMatrix* g1_csr() const { return g1_csr_.get(); }

    [[nodiscard]] la::Vec apply_g1(const la::Vec& x) const { return g1_op_->apply(x); }
    [[nodiscard]] la::ZVec apply_g1(const la::ZVec& x) const { return g1_op_->apply(x); }
    [[nodiscard]] la::Vec apply_d1(int input, const la::Vec& x) const;
    [[nodiscard]] la::ZVec apply_d1(int input, const la::ZVec& x) const;
    [[nodiscard]] la::Vec apply_c(const la::Vec& x) const;

    // -- Legacy dense accessors (materialised lazily, cached). -------------
    [[nodiscard]] const la::Matrix& g1() const;
    [[nodiscard]] const la::Matrix& b() const;
    [[nodiscard]] const la::Matrix& c() const;
    /// D1 matrix of input i (zero-sized systems return a zero matrix view).
    [[nodiscard]] const la::Matrix& d1(int input) const;

    [[nodiscard]] const sparse::SparseTensor3& g2() const { return g2_; }
    [[nodiscard]] const sparse::SparseTensor4& g3() const { return g3_; }

    [[nodiscard]] bool has_quadratic() const { return !g2_.empty(); }
    [[nodiscard]] bool has_cubic() const { return !g3_.empty(); }
    [[nodiscard]] bool has_bilinear() const { return has_bilinear_; }

    /// Input column b_i.
    [[nodiscard]] la::Vec b_col(int input) const;

    /// Right-hand side f(x, u); allocating wrapper over rhs_into.
    [[nodiscard]] la::Vec rhs(const la::Vec& x, const la::Vec& u) const;

    /// Right-hand side f(x, u) into caller storage, the time-stepping hot
    /// path. f is resized to order(); `work` is scratch resized as needed.
    /// Both keep their capacity, so calls on warmed buffers allocate
    /// nothing. Neither buffer may alias x.
    void rhs_into(const la::Vec& x, const la::Vec& u, la::Vec& f, la::Vec& work) const;

    /// Coefficients held by the packed copies of G2 and G3 (0 when both
    /// stay in triplet form).
    [[nodiscard]] std::size_t packed_coefficients() const;

    /// State Jacobian df/dx at (x, u):
    ///   G1 + G2 (I (x) x + x (x) I) + G3(...) + sum_i D1_i u_i.
    [[nodiscard]] la::Matrix jacobian(const la::Vec& x, const la::Vec& u) const;

    /// Sparse COO stamp of scale * df/dx at (x, u) -- the implicit
    /// integrators feed this to the sparse solver backend instead of
    /// materialising a dense Jacobian.
    [[nodiscard]] sparse::CooBuilder jacobian_coo(const la::Vec& x, const la::Vec& u,
                                                  double scale = 1.0) const;

    /// Output y = C x.
    [[nodiscard]] la::Vec output(const la::Vec& x) const { return apply_c(x); }

private:
    void validate() const;
    void pack_tensors();

    std::shared_ptr<const la::LinearOperator> g1_op_;
    std::shared_ptr<const sparse::CsrMatrix> g1_csr_;  // set iff sparse-first
    mutable std::shared_ptr<const la::Matrix> g1_dense_;

    sparse::SparseTensor3 g2_;
    sparse::SparseTensor4 g3_;
    /// Packed copies of g2_ / g3_ (n x monomials, lexicographic monomial
    /// order); 0 x 0 when the tensor stays in triplet form.
    la::Matrix g2_packed_;
    la::Matrix g3_packed_;

    bool has_bilinear_ = false;
    std::vector<sparse::CsrMatrix> d1_csr_;            // sparse-first storage
    mutable std::vector<la::Matrix> d1_dense_;         // dense storage / lazy mirror

    std::shared_ptr<const sparse::CsrMatrix> b_csr_;
    mutable std::shared_ptr<const la::Matrix> b_dense_;
    std::shared_ptr<const sparse::CsrMatrix> c_csr_;
    mutable std::shared_ptr<const la::Matrix> c_dense_;

    /// Guards the lazy dense mirrors (g1()/b()/c()/d1()) so the parallel
    /// sweep/fan-out layers can hit a shared Qldae from worker threads. Held
    /// in a shared_ptr so Qldae stays copyable; copies sharing the mutex is
    /// harmless (it only serialises first-use materialisation).
    mutable std::shared_ptr<std::mutex> dense_mutex_ = std::make_shared<std::mutex>();

    int inputs_ = 0;
    int outputs_ = 0;
};

/// Convenience: single-output row selecting one state.
la::Matrix state_selector(int n, int state_index);

}  // namespace atmor::volterra
