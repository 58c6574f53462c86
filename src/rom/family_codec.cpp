#include "rom/family_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "la/orth.hpp"
#include "rom/io.hpp"
#include "util/check.hpp"
#include "volterra/transfer.hpp"

namespace atmor::rom {

namespace {

/// Union-basis deflation threshold (la::BasisBuilder): a member basis column
/// is dropped when its residual against the union falls below this times its
/// norm. Tight so U spans every member.
constexpr double kBasisDeflationTol = 1e-10;
/// Probe points across the member's certified band for the measured encoding
/// error.
constexpr int kProbeGrid = 9;
/// Smallest encoded tier-matrix record: rows and cols i32, then the
/// block's u64 length; Reader::count bounds the D1 count by it.
constexpr std::size_t kTMatrixHeaderBytes = 2 * 4 + 8;

[[noreturn]] void fail(IoErrorKind kind, const std::string& what) {
    throw IoError(kind, std::string("rom::family_codec: ") + what);
}

/// Structural precondition failures (tensor add, Qldae validation) become
/// the typed corrupt error the decode paths promise, same contract as io.
template <class Fn>
auto structurally(Fn&& fn) -> decltype(fn()) {
    try {
        return fn();
    } catch (const util::PreconditionError& e) {
        fail(IoErrorKind::corrupt, std::string("invalid structure: ") + e.what());
    }
}

/// Scalar tier rounding for sparse tensor entries (no block range to
/// quantize against, so the lossy tiers both round through float).
double round_scalar(double v, EncodingTier tier) {
    if (tier == EncodingTier::f64) return v;
    return static_cast<double>(static_cast<float>(v));
}

// -- Tier-encoded sub-records inside a member meta block. -------------------

void write_tmatrix(Writer& w, const la::Matrix& m, EncodingTier tier) {
    w.i32(m.rows());
    w.i32(m.cols());
    w.str(encode_matrix_block(m, tier));
}

la::Matrix read_tmatrix(Reader& r, EncodingTier tier) {
    const std::int32_t rows = r.i32();
    const std::int32_t cols = r.i32();
    if (rows < 0 || cols < 0) fail(IoErrorKind::corrupt, "negative tier-matrix dimension");
    const std::string bytes = r.str();
    return decode_matrix_block(bytes.data(), bytes.size(), rows, cols, tier);
}

/// Sparse triplet byte cost of `count` tensor3/tensor4 entries.
std::size_t triplet_bytes(std::size_t count, std::size_t index_ints) {
    return sizeof(std::uint64_t) + count * (index_ints * sizeof(std::int32_t) + sizeof(double));
}

/// Reduced tensors are DENSE (a Galerkin projection fills them), so a dense
/// lifted-index matrix beats the 20-byte triplets; full-order tensors stay
/// sparse because the dense form would be n^3 doubles. The rule is purely
/// by encoded size, decided per tensor. The dense matrix is shaped
/// (lifted x rows) -- long dimension on the rows -- so the q16 tier pays its
/// per-COLUMN range overhead only `rows` times.
void write_ttensor3(Writer& w, const sparse::SparseTensor3& t, EncodingTier tier) {
    w.i32(t.rows());
    w.i32(t.n1());
    w.i32(t.n2());
    const std::size_t lifted = static_cast<std::size_t>(t.n1()) * static_cast<std::size_t>(t.n2());
    const std::size_t sparse_bytes = triplet_bytes(t.entry_count(), 3);
    const bool dense_feasible = t.rows() > 0 && lifted > 0 && lifted <= (1u << 20);
    if (dense_feasible &&
        encoded_matrix_bytes(static_cast<int>(lifted), t.rows(), tier) < sparse_bytes) {
        w.u8(1);
        la::Matrix d(static_cast<int>(lifted), t.rows());
        for (const auto& e : t.entries())
            d(e.i * t.n2() + e.j, e.row) += e.value;
        write_tmatrix(w, d, tier);
        return;
    }
    w.u8(0);
    w.u64(t.entry_count());
    for (const auto& e : t.entries()) {
        w.i32(e.row);
        w.i32(e.i);
        w.i32(e.j);
        w.f64(round_scalar(e.value, tier));
    }
}

sparse::SparseTensor3 read_ttensor3(Reader& r, EncodingTier tier) {
    const std::int32_t rows = r.i32();
    const std::int32_t n1 = r.i32();
    const std::int32_t n2 = r.i32();
    if (rows < 0 || n1 < 0 || n2 < 0) fail(IoErrorKind::corrupt, "negative tensor3 dimension");
    const std::uint8_t rep = r.u8();
    if (rep > 1) fail(IoErrorKind::corrupt, "unknown tensor3 representation tag");
    return structurally([&] {
        sparse::SparseTensor3 t(rows, n1, n2);
        if (rep == 1) {
            la::Matrix d = read_tmatrix(r, tier);
            // In 64 bits: n1 * n2 of a forged header can overflow an int.
            if (d.rows() != static_cast<std::int64_t>(n1) * n2 || d.cols() != rows)
                fail(IoErrorKind::corrupt, "dense tensor3 block disagrees with the dimensions");
            for (int idx = 0; idx < d.rows(); ++idx)
                for (int row = 0; row < rows; ++row)
                    if (d(idx, row) != 0.0) t.add(row, idx / n2, idx % n2, d(idx, row));
        } else {
            const std::size_t count = r.count(r.u64(), 3 * sizeof(std::int32_t) + sizeof(double));
            for (std::size_t e = 0; e < count; ++e) {
                const std::int32_t row = r.i32();
                const std::int32_t i = r.i32();
                const std::int32_t j = r.i32();
                t.add(row, i, j, r.f64());
            }
        }
        return t;
    });
}

void write_ttensor4(Writer& w, const sparse::SparseTensor4& t, EncodingTier tier) {
    w.i32(t.n());
    const std::size_t n = static_cast<std::size_t>(t.n());
    const std::size_t lifted = n * n * n;
    const std::size_t sparse_bytes = triplet_bytes(t.entry_count(), 4);
    const bool dense_feasible = t.n() > 0 && lifted <= (1u << 20);
    if (dense_feasible &&
        encoded_matrix_bytes(static_cast<int>(lifted), t.n(), tier) < sparse_bytes) {
        w.u8(1);
        la::Matrix d(static_cast<int>(lifted), t.n());
        for (const auto& e : t.entries())
            d((e.i * t.n() + e.j) * t.n() + e.k, e.row) += e.value;
        write_tmatrix(w, d, tier);
        return;
    }
    w.u8(0);
    w.u64(t.entry_count());
    for (const auto& e : t.entries()) {
        w.i32(e.row);
        w.i32(e.i);
        w.i32(e.j);
        w.i32(e.k);
        w.f64(round_scalar(e.value, tier));
    }
}

sparse::SparseTensor4 read_ttensor4(Reader& r, EncodingTier tier) {
    const std::int32_t n = r.i32();
    if (n < 0) fail(IoErrorKind::corrupt, "negative tensor4 dimension");
    const std::uint8_t rep = r.u8();
    if (rep > 1) fail(IoErrorKind::corrupt, "unknown tensor4 representation tag");
    return structurally([&] {
        sparse::SparseTensor4 t(n);
        if (rep == 1) {
            la::Matrix d = read_tmatrix(r, tier);
            if (static_cast<std::size_t>(d.rows()) !=
                    static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(n) ||
                d.cols() != n)
                fail(IoErrorKind::corrupt, "dense tensor4 block disagrees with the dimensions");
            for (int idx = 0; idx < d.rows(); ++idx)
                for (int row = 0; row < n; ++row)
                    if (d(idx, row) != 0.0)
                        t.add(row, idx / (n * n), (idx / n) % n, idx % n, d(idx, row));
        } else {
            const std::size_t count = r.count(r.u64(), 4 * sizeof(std::int32_t) + sizeof(double));
            for (std::size_t e = 0; e < count; ++e) {
                const std::int32_t row = r.i32();
                const std::int32_t i = r.i32();
                const std::int32_t j = r.i32();
                const std::int32_t k = r.i32();
                t.add(row, i, j, k, r.f64());
            }
        }
        return t;
    });
}

/// Dense G1/B/C/D1, then G2/G3, as in rom::Writer::qldae.
void write_tqldae(Writer& w, const volterra::Qldae& sys, EncodingTier tier) {
    const std::uint32_t nd1 =
        sys.has_bilinear() ? static_cast<std::uint32_t>(sys.inputs()) : 0;
    write_tmatrix(w, sys.g1(), tier);
    write_tmatrix(w, sys.b(), tier);
    write_tmatrix(w, sys.c(), tier);
    w.u32(nd1);
    for (std::uint32_t i = 0; i < nd1; ++i) write_tmatrix(w, sys.d1(static_cast<int>(i)), tier);
    write_ttensor3(w, sys.g2(), tier);
    write_ttensor4(w, sys.g3(), tier);
}

volterra::Qldae read_tqldae(Reader& r, EncodingTier tier) {
    la::Matrix g1 = read_tmatrix(r, tier);
    la::Matrix b = read_tmatrix(r, tier);
    la::Matrix c = read_tmatrix(r, tier);
    const std::size_t nd1 = r.count(r.u32(), kTMatrixHeaderBytes);
    std::vector<la::Matrix> d1;
    d1.reserve(nd1);
    for (std::size_t i = 0; i < nd1; ++i) d1.push_back(read_tmatrix(r, tier));
    sparse::SparseTensor3 g2 = read_ttensor3(r, tier);
    sparse::SparseTensor4 g3 = read_ttensor4(r, tier);
    return structurally([&] {
        return volterra::Qldae(std::move(g1), std::move(g2), std::move(g3), std::move(d1),
                               std::move(b), std::move(c));
    });
}

/// Max relative output-H1 deviation of the decoded member vs the original
/// over a probe grid of the member's certified band -- the measured rounding
/// error folded into every stored certificate. Bit-identical systems (the
/// f64 tier) measure exactly zero: both sweeps run the same arithmetic on
/// the same bytes.
double measured_encoding_error(const ReducedModel& original, const ReducedModel& decoded) {
    double lo = original.provenance.band_min;
    double hi = original.provenance.band_max;
    if (!(hi > 0.0)) {
        lo = 1e-1;
        hi = 1e1;
    } else if (!(lo > 0.0) || lo > hi) {
        lo = hi / 100.0;
    }
    std::vector<la::Complex> grid;
    grid.reserve(static_cast<std::size_t>(kProbeGrid));
    for (int k = 0; k < kProbeGrid; ++k)
        grid.emplace_back(0.0, lo + (hi - lo) * k / (kProbeGrid - 1));
    const volterra::TransferEvaluator ev_orig(original.rom);
    const volterra::TransferEvaluator ev_dec(decoded.rom);
    const std::vector<la::ZMatrix> resp_orig = ev_orig.output_h1_sweep(grid);
    const std::vector<la::ZMatrix> resp_dec = ev_dec.output_h1_sweep(grid);
    double denom = 0.0;
    double num = 0.0;
    for (std::size_t k = 0; k < grid.size(); ++k) {
        denom = std::max(denom, la::max_abs(resp_orig[k]));
        num = std::max(num, la::max_abs(resp_dec[k] - resp_orig[k]));
    }
    return denom > 0.0 ? num / denom : num;
}

/// ranges + n * value_bytes, bounded by division before the multiply: a
/// forged dimension saturates at the maximum size_t, which no block length
/// equals, instead of wrapping to a small size.
std::size_t saturated_block_bytes(std::size_t ranges, std::size_t n, std::size_t value_bytes) {
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    return n > (kMax - ranges) / value_bytes ? kMax : ranges + n * value_bytes;
}

}  // namespace

const char* to_string(EncodingTier tier) {
    switch (tier) {
        case EncodingTier::f64:
            return "f64";
        case EncodingTier::f32:
            return "f32";
        case EncodingTier::q16:
            return "q16";
        case EncodingTier::q8:
            return "q8";
    }
    return "unknown";
}

std::size_t encoded_matrix_bytes(int rows, int cols, EncodingTier tier) {
    const std::size_t n = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    const std::size_t ranges = static_cast<std::size_t>(cols) * 2 * sizeof(double);
    switch (tier) {
        case EncodingTier::f64:
            return saturated_block_bytes(0, n, sizeof(double));
        case EncodingTier::f32:
            return saturated_block_bytes(0, n, sizeof(float));
        case EncodingTier::q16:
            return saturated_block_bytes(ranges, n, sizeof(std::uint16_t));
        case EncodingTier::q8:
            return saturated_block_bytes(ranges, n, sizeof(std::uint8_t));
    }
    return 0;
}

namespace {

/// Shared quantized-block writer: per-column [lo, hi] f64 ranges, then
/// row-major CodeT codes mapping the column range onto [0, max_code].
template <class CodeT>
void append_quantized(std::string& out, const la::Matrix& m) {
    constexpr double kMaxCode = static_cast<double>(std::numeric_limits<CodeT>::max());
    std::vector<double> lo(static_cast<std::size_t>(m.cols()), 0.0);
    std::vector<double> hi(static_cast<std::size_t>(m.cols()), 0.0);
    for (int j = 0; j < m.cols(); ++j) {
        double cl = std::numeric_limits<double>::infinity();
        double ch = -std::numeric_limits<double>::infinity();
        for (int i = 0; i < m.rows(); ++i) {
            const double v = m(i, j);
            ATMOR_REQUIRE(std::isfinite(v),
                          "encode_matrix_block: non-finite value at (" << i << "," << j << ")");
            cl = std::min(cl, v);
            ch = std::max(ch, v);
        }
        if (m.rows() == 0) cl = ch = 0.0;
        lo[static_cast<std::size_t>(j)] = cl;
        hi[static_cast<std::size_t>(j)] = ch;
        out.append(reinterpret_cast<const char*>(&cl), sizeof(cl));
        out.append(reinterpret_cast<const char*>(&ch), sizeof(ch));
    }
    for (int i = 0; i < m.rows(); ++i)
        for (int j = 0; j < m.cols(); ++j) {
            const double cl = lo[static_cast<std::size_t>(j)];
            const double ch = hi[static_cast<std::size_t>(j)];
            CodeT code = 0;
            if (ch > cl)
                code = static_cast<CodeT>(std::lround((m(i, j) - cl) / (ch - cl) * kMaxCode));
            out.append(reinterpret_cast<const char*>(&code), sizeof(code));
        }
}

/// Shared quantized-block reader (inverse of append_quantized).
template <class CodeT>
void read_quantized(la::Matrix& m, const char* data, int rows, int cols) {
    constexpr double kMaxCode = static_cast<double>(std::numeric_limits<CodeT>::max());
    std::vector<double> lo(static_cast<std::size_t>(cols));
    std::vector<double> hi(static_cast<std::size_t>(cols));
    for (int j = 0; j < cols; ++j) {
        std::memcpy(&lo[static_cast<std::size_t>(j)],
                    data + static_cast<std::size_t>(j) * 2 * sizeof(double), sizeof(double));
        std::memcpy(&hi[static_cast<std::size_t>(j)],
                    data + (static_cast<std::size_t>(j) * 2 + 1) * sizeof(double),
                    sizeof(double));
    }
    const char* codes = data + static_cast<std::size_t>(cols) * 2 * sizeof(double);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j) {
            CodeT code;
            std::memcpy(&code,
                        codes + (static_cast<std::size_t>(i) * static_cast<std::size_t>(cols) +
                                 static_cast<std::size_t>(j)) *
                                    sizeof(code),
                        sizeof(code));
            const double cl = lo[static_cast<std::size_t>(j)];
            const double ch = hi[static_cast<std::size_t>(j)];
            m(i, j) = ch > cl ? cl + code * (ch - cl) / kMaxCode : cl;
        }
}

}  // namespace

std::string encode_matrix_block(const la::Matrix& m, EncodingTier tier) {
    const std::size_t n = static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols());
    std::string out;
    out.reserve(encoded_matrix_bytes(m.rows(), m.cols(), tier));
    switch (tier) {
        case EncodingTier::f64:
            out.append(reinterpret_cast<const char*>(m.data()), n * sizeof(double));
            break;
        case EncodingTier::f32:
            for (std::size_t k = 0; k < n; ++k) {
                const float f = static_cast<float>(m.data()[k]);
                out.append(reinterpret_cast<const char*>(&f), sizeof(f));
            }
            break;
        case EncodingTier::q16:
            append_quantized<std::uint16_t>(out, m);
            break;
        case EncodingTier::q8:
            append_quantized<std::uint8_t>(out, m);
            break;
    }
    return out;
}

la::Matrix decode_matrix_block(const char* data, std::size_t len, int rows, int cols,
                               EncodingTier tier) {
    if (rows < 0 || cols < 0) fail(IoErrorKind::corrupt, "negative block dimension");
    if (len != encoded_matrix_bytes(rows, cols, tier))
        fail(IoErrorKind::corrupt,
             "block is " + std::to_string(len) + " bytes, tier " + to_string(tier) +
                 " expects " + std::to_string(encoded_matrix_bytes(rows, cols, tier)) + " for " +
                 std::to_string(rows) + "x" + std::to_string(cols));
    la::Matrix m(rows, cols);
    const std::size_t n = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    switch (tier) {
        case EncodingTier::f64:
            std::memcpy(m.data(), data, n * sizeof(double));
            break;
        case EncodingTier::f32:
            for (std::size_t k = 0; k < n; ++k) {
                float f;
                std::memcpy(&f, data + k * sizeof(float), sizeof(f));
                m.data()[k] = static_cast<double>(f);
            }
            break;
        case EncodingTier::q16:
            read_quantized<std::uint16_t>(m, data, rows, cols);
            break;
        case EncodingTier::q8:
            read_quantized<std::uint8_t>(m, data, rows, cols);
            break;
    }
    return m;
}

std::string encode_member_meta(const ReducedModel& m, EncodingTier tier) {
    Writer w;
    w.provenance(m.provenance);
    w.f64(m.build_seconds);
    w.i32(m.raw_vectors);
    w.i32(m.order);
    write_tqldae(w, m.rom, tier);
    return w.bytes();
}

ReducedModel decode_member_meta(const char* data, std::size_t len, EncodingTier tier,
                                la::Matrix v) {
    const std::string buf(data, len);
    Reader r(buf);
    Provenance prov = r.provenance();
    const double build_seconds = r.f64();
    const std::int32_t raw_vectors = r.i32();
    const std::int32_t order = r.i32();
    volterra::Qldae rom = read_tqldae(r, tier);
    if (!r.at_end()) fail(IoErrorKind::corrupt, "trailing bytes after the member meta block");
    if (order != v.cols() || rom.order() != order)
        fail(IoErrorKind::corrupt, "order field disagrees with the stored ROM/basis");
    return ReducedModel{std::move(rom), std::move(v), build_seconds, raw_vectors, order,
                        std::move(prov)};
}

CompressedFamily compress_family(const Family& f, const CompressOptions& opt,
                                 CompressStats* stats) {
    ATMOR_REQUIRE(!f.members.empty(), "compress_family: family has no members");
    const int member_count = static_cast<int>(f.members.size());
    for (const CoverageCell& cell : f.cells)
        ATMOR_REQUIRE(cell.best >= -1 && cell.best < member_count,
                      "compress_family: coverage cell [" << f.space.key(cell.coords)
                                                         << "] references a missing member");

    CompressedFamily out;
    out.family_id = f.family_id;
    out.space = f.space;
    out.tol = f.tol;
    out.training_grid_per_dim = f.training_grid_per_dim;
    out.tier = opt.tier;
    out.members.resize(f.members.size());

    // Group members by full order n (a structural axis yields several
    // groups; a union basis only spans one n), deterministically by n.
    std::map<int, std::vector<std::size_t>> by_rows;
    for (std::size_t i = 0; i < f.members.size(); ++i)
        by_rows[f.members[i].model.v.rows()].push_back(i);

    std::vector<double> eta(f.members.size(), 0.0);
    for (const auto& [n, idxs] : by_rows) {
        la::BasisBuilder builder(n, kBasisDeflationTol);
        for (const std::size_t i : idxs) {
            const la::Matrix& v = f.members[i].model.v;
            for (int j = 0; j < v.cols(); ++j) builder.stage(v.col(j));
            builder.flush();  // one blocked-QR panel per member
            if (stats) stats->basis_columns_in += static_cast<std::size_t>(v.cols());
        }
        const la::Matrix u = builder.matrix();
        BasisGroup group;
        group.rows = n;
        group.cols = u.cols();
        group.bytes = encode_matrix_block(u, opt.tier);
        const la::Matrix u_dec =
            decode_matrix_block(group.bytes.data(), group.bytes.size(), n, u.cols(), opt.tier);
        const std::uint32_t gi = static_cast<std::uint32_t>(out.basis_groups.size());
        out.basis_groups.push_back(std::move(group));
        if (stats) stats->basis_columns_union += static_cast<std::size_t>(u.cols());

        const la::Matrix ut = la::transpose(u);
        for (const std::size_t i : idxs) {
            const FamilyMember& fm = f.members[i];
            const la::Matrix coeff = la::matmul(ut, fm.model.v);
            std::string coeff_bytes = encode_matrix_block(coeff, opt.tier);
            const la::Matrix coeff_dec = decode_matrix_block(
                coeff_bytes.data(), coeff_bytes.size(), coeff.rows(), coeff.cols(), opt.tier);
            la::Matrix v_dec = la::matmul(u_dec, coeff_dec);

            // The meta block stores the hash of the basis that will actually
            // be served, so serving-layer caches key on the decoded basis.
            ReducedModel tagged = fm.model;
            tagged.provenance.basis_hash = basis_hash(v_dec);
            std::string meta_bytes = encode_member_meta(tagged, opt.tier);
            const ReducedModel decoded = decode_member_meta(
                meta_bytes.data(), meta_bytes.size(), opt.tier, std::move(v_dec));
            const double err = measured_encoding_error(fm.model, decoded);
            eta[i] = err;

            CompressedMember& cm = out.members[i];
            cm.coords = fm.coords;
            cm.certified_error = fm.certified_error + err;
            cm.coverage_radius = fm.coverage_radius;
            cm.encoding_error = err;
            cm.basis_group = gi;
            cm.coeff_rows = coeff.rows();
            cm.coeff_cols = coeff.cols();
            cm.coeff_bytes = std::move(coeff_bytes);
            cm.meta_bytes = std::move(meta_bytes);
            if (stats) stats->max_encoding_error = std::max(stats->max_encoding_error, err);
        }
    }

    // Fold the measured rounding errors into the coverage certificates and
    // recompute the family-level summary from the inflated table.
    out.cells = f.cells;
    double max_err = 0.0;
    for (CoverageCell& cell : out.cells) {
        if (cell.best >= 0) cell.best_error += eta[static_cast<std::size_t>(cell.best)];
        max_err = std::max(max_err, cell.best_error);
    }
    if (out.cells.empty())
        max_err = f.max_training_error + *std::max_element(eta.begin(), eta.end());
    out.max_training_error = max_err;
    out.converged = max_err <= out.tol;
    return out;
}

Family decode_family(const CompressedFamily& cf) {
    Family f;
    f.family_id = cf.family_id;
    f.space = cf.space;
    f.tol = cf.tol;
    f.training_grid_per_dim = cf.training_grid_per_dim;
    f.max_training_error = cf.max_training_error;
    f.converged = cf.converged;

    std::vector<la::Matrix> bases;
    bases.reserve(cf.basis_groups.size());
    for (const BasisGroup& g : cf.basis_groups)
        bases.push_back(
            decode_matrix_block(g.bytes.data(), g.bytes.size(), g.rows, g.cols, cf.tier));

    f.members.reserve(cf.members.size());
    for (const CompressedMember& cm : cf.members) {
        if (cm.basis_group >= bases.size())
            fail(IoErrorKind::corrupt, "member references a missing basis group");
        const la::Matrix& u = bases[cm.basis_group];
        if (cm.coeff_rows != u.cols())
            fail(IoErrorKind::corrupt, "coefficient rows disagree with the union rank");
        const la::Matrix coeff = decode_matrix_block(cm.coeff_bytes.data(),
                                                     cm.coeff_bytes.size(), cm.coeff_rows,
                                                     cm.coeff_cols, cf.tier);
        la::Matrix v = la::matmul(u, coeff);
        ReducedModel model =
            decode_member_meta(cm.meta_bytes.data(), cm.meta_bytes.size(), cf.tier,
                               std::move(v));
        f.members.push_back(FamilyMember{cm.coords, cm.certified_error, cm.coverage_radius,
                                         std::move(model)});
    }

    const int member_count = static_cast<int>(f.members.size());
    for (const CoverageCell& cell : cf.cells)
        if (cell.best < -1 || cell.best >= member_count)
            fail(IoErrorKind::corrupt, "coverage cell references a missing member");
    f.cells = cf.cells;
    return f;
}

}  // namespace atmor::rom
