#include "core/projection.hpp"

#include <array>
#include <utility>

#include "la/vector_ops.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace atmor::core {

la::Matrix reduce_matrix(const la::Matrix& a, const la::Matrix& v) {
    ATMOR_REQUIRE(a.rows() == v.rows() && a.cols() == v.rows(),
                  "reduce_matrix: shape mismatch");
    return la::matmul(la::transpose(v), la::matmul(a, v));
}

la::Matrix reduce_operator(const la::LinearOperator& a, const la::Matrix& v) {
    ATMOR_REQUIRE(a.rows() == v.rows() && a.cols() == v.rows(),
                  "reduce_operator: shape mismatch");
    // A V in one pass: SpMM for CSR operators (each stored entry touched once
    // for all q columns), column-wise applies otherwise (shifted/dense views
    // stay unmaterialised). Then V^T (A V) through the tiled GEMM. Nothing of
    // size n x n is ever formed.
    la::Matrix av;
    if (const sparse::CsrMatrix* csr = a.csr()) {
        av = csr->matmul(v);
    } else {
        av = la::Matrix(v.rows(), v.cols());
        for (int j = 0; j < v.cols(); ++j) av.set_col(j, a.apply(v.col(j)));
    }
    return la::matmul(la::transpose(v), av);
}

sparse::SparseTensor3 reduce_tensor3(const sparse::SparseTensor3& t, const la::Matrix& v) {
    ATMOR_REQUIRE(t.rows() == v.rows() && t.n1() == v.rows() && t.n2() == v.rows(),
                  "reduce_tensor3: shape mismatch");
    const int q = v.cols();
    // The reduced QUADRATIC FORM is all the ROM evaluates, so store its
    // symmetric part only (a <= b with a multiplicity weight): halves the
    // entry count and hence the per-step rhs/Jacobian cost of the ROM.
    const sparse::SparseTensor3 ts = t.symmetrized();
    sparse::SparseTensor3 out(q, q, q);
    // Each (a, b) pair's projected row is independent -- compute the rows in
    // parallel, then append entries SERIALLY in the pair enumeration order so
    // the reduced tensor's storage is identical to a serial build.
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(static_cast<std::size_t>(q) * (q + 1) / 2);
    for (int a = 0; a < q; ++a)
        for (int b = a; b < q; ++b) pairs.emplace_back(a, b);
    const std::vector<la::Vec> rows = util::ThreadPool::global().parallel_map<la::Vec>(
        0, static_cast<long>(pairs.size()), [&](long p) {
            const auto [a, b] = pairs[static_cast<std::size_t>(p)];
            const la::Vec w = ts.apply(v.col(a), v.col(b));
            return la::matvec_transposed(v, w);
        });
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const auto [a, b] = pairs[p];
        const la::Vec& r = rows[p];
        const double mult = (a == b) ? 1.0 : 2.0;
        for (int row = 0; row < q; ++row) {
            const double val = mult * r[static_cast<std::size_t>(row)];
            if (std::abs(val) > 1e-300) out.add(row, a, b, val);
        }
    }
    return out;
}

sparse::SparseTensor4 reduce_tensor4(const sparse::SparseTensor4& t, const la::Matrix& v) {
    ATMOR_REQUIRE(t.n() == v.rows(), "reduce_tensor4: shape mismatch");
    const int q = v.cols();
    sparse::SparseTensor4 out(q);
    // Symmetric storage (a <= b <= c with multinomial weights): the reduced
    // cubic form then costs ~q^3/6 entries per output row instead of q^3,
    // which keeps ROM transients cheap (the q^4 dense alternative can cost
    // more than simulating the full sparse model). The ~q^3/6 projected rows
    // are independent; compute them in parallel, append serially in triple
    // order (identical storage to a serial build).
    std::vector<std::array<int, 3>> triples;
    for (int a = 0; a < q; ++a)
        for (int b = a; b < q; ++b)
            for (int c = b; c < q; ++c) triples.push_back({a, b, c});
    const std::vector<la::Vec> rows = util::ThreadPool::global().parallel_map<la::Vec>(
        0, static_cast<long>(triples.size()), [&](long p) {
            const auto [a, b, c] = triples[static_cast<std::size_t>(p)];
            const la::Vec va = v.col(a);
            const la::Vec vb = v.col(b);
            const la::Vec vc = v.col(c);
            // Symmetric coefficient: average over the 6 slot orderings.
            la::Vec w = t.apply(va, vb, vc);
            la::axpy(1.0, t.apply(va, vc, vb), w);
            la::axpy(1.0, t.apply(vb, va, vc), w);
            la::axpy(1.0, t.apply(vb, vc, va), w);
            la::axpy(1.0, t.apply(vc, va, vb), w);
            la::axpy(1.0, t.apply(vc, vb, va), w);
            return la::matvec_transposed(v, w);
        });
    for (std::size_t p = 0; p < triples.size(); ++p) {
        const auto [a, b, c] = triples[p];
        const la::Vec& r = rows[p];
        // Multiplicity of (a,b,c) among ordered index triples divided by the
        // 6 orderings already summed above.
        double mult = 1.0;
        if (a == b && b == c)
            mult = 1.0 / 6.0;
        else if (a == b || b == c)
            mult = 3.0 / 6.0;
        for (int row = 0; row < q; ++row) {
            const double val = mult * r[static_cast<std::size_t>(row)];
            if (std::abs(val) > 1e-300) out.add(row, a, b, c, val);
        }
    }
    return out;
}

volterra::Qldae galerkin_reduce(const volterra::Qldae& sys, const la::Matrix& v) {
    ATMOR_REQUIRE(v.rows() == sys.order(), "galerkin_reduce: basis row count mismatch");
    ATMOR_REQUIRE(v.cols() >= 1 && v.cols() <= sys.order(),
                  "galerkin_reduce: basis must have 1..n columns");
    const la::Matrix g1r = reduce_operator(sys.g1_op(), v);
    sparse::SparseTensor3 g2r = sys.has_quadratic()
                                    ? reduce_tensor3(sys.g2(), v)
                                    : sparse::SparseTensor3(v.cols(), v.cols(), v.cols());
    sparse::SparseTensor4 g3r;
    if (sys.has_cubic()) g3r = reduce_tensor4(sys.g3(), v);

    const int q = v.cols();
    std::vector<la::Matrix> d1r;
    if (sys.has_bilinear()) {
        d1r.reserve(static_cast<std::size_t>(sys.inputs()));
        for (int i = 0; i < sys.inputs(); ++i) {
            la::Matrix dv(v.rows(), q);
            for (int j = 0; j < q; ++j) dv.set_col(j, sys.apply_d1(i, v.col(j)));
            d1r.push_back(la::matmul(la::transpose(v), dv));
        }
    }
    la::Matrix br(q, sys.inputs());
    for (int i = 0; i < sys.inputs(); ++i) br.set_col(i, la::matvec_transposed(v, sys.b_col(i)));
    la::Matrix cr(sys.outputs(), q);
    for (int j = 0; j < q; ++j) cr.set_col(j, sys.apply_c(v.col(j)));
    return volterra::Qldae(g1r, std::move(g2r), std::move(g3r), std::move(d1r), br, cr);
}

}  // namespace atmor::core
