// Union-basis compression of rom::Family artifacts with certified lossy
// encoding tiers.
//
// Members of one family overlap heavily by construction (the greedy builder
// inserts them into ONE parameter box over one frequency band), so their
// projection bases share most directions. compress_family exploits that:
// per full-order size group it builds a shared union basis U (staged through
// la::BasisBuilder, i.e. the blocked Householder QR panel path, with
// deflation), re-expresses every member basis as a small coefficient block
// C_i = U^T v_i, and encodes every numeric payload at an EncodingTier
// (raw f64, f32, or 16-bit per-column quantization). Reduced tensors are
// stored densely when that is smaller than the sparse triplet form -- for a
// Galerkin ROM the reduced G2 is dense and dominates the artifact, so this
// is where most of the size win comes from.
//
// Lossy tiers stay CERTIFIED: the decoded member is reconstructed during
// compression and its response deviation from the original (max relative
// output-H1 difference over a probe grid of the member's certified band) is
// MEASURED, recorded as encoding_error, and folded into every stored
// certificate -- member certified_error, coverage-cell best errors, and the
// family's max_training_error / converged flag. A served query's
// certificate therefore bounds the error of the model actually served, not
// of the model that was discarded at compression time. The f64 tier measures
// an exactly-zero encoding error (the reduced system round-trips bit-exact).
//
// decode_family is deterministic: the same CompressedFamily always
// materializes bit-identical members, which is what lets the mmap reader
// (rom/family_artifact.hpp) answer exactly like decode_family.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rom/family.hpp"

namespace atmor::rom {

/// How numeric payload blocks are stored. Lossy tiers trade precision for
/// size; the precision actually lost is measured and certified per member.
enum class EncodingTier : std::uint8_t {
    f64 = 0,  ///< raw doubles (lossless, still wins via union basis + dense tensors)
    f32 = 1,  ///< float32 values (~2x on payload blocks)
    q16 = 2,  ///< 16-bit codes with per-column [lo, hi] ranges (~4x)
    q8 = 3,   ///< 8-bit codes, same per-column ranges (~8x; the measured
              ///< encoding error is correspondingly larger -- serve only
              ///< when the inflated certificates still clear the tol)
};

const char* to_string(EncodingTier tier);

struct CompressOptions {
    EncodingTier tier = EncodingTier::q16;
};

/// One shared orthonormal basis per full-order size group (families with a
/// structural axis hold members of different full order n; a union basis
/// only makes sense within one n).
struct BasisGroup {
    int rows = 0;  ///< full order n of the group
    int cols = 0;  ///< union rank r (<= n)
    std::string bytes;  ///< encode_matrix_block(U, tier)
};

struct CompressedMember {
    pmor::Point coords;
    /// Inflated certificate: original certified error + encoding_error.
    double certified_error = 0.0;
    double coverage_radius = 0.0;
    /// Measured response deviation of the decoded member vs the original
    /// (max relative output-H1 difference over the probe grid); the amount
    /// folded into every stored certificate. Exactly 0 for the f64 tier.
    double encoding_error = 0.0;
    std::uint32_t basis_group = 0;
    int coeff_rows = 0;  ///< r of the group
    int coeff_cols = 0;  ///< member order q
    std::string coeff_bytes;  ///< encode_matrix_block(U^T v, tier)
    /// Provenance + tier-encoded reduced system (encode_member_meta).
    std::string meta_bytes;
};

/// The compressed form of a Family: same header/coverage data (certificates
/// inflated by the measured encoding errors), members as coefficient +
/// meta blocks against shared basis groups.
struct CompressedFamily {
    std::string family_id;
    pmor::ParamSpace space;
    double tol = 0.0;
    int training_grid_per_dim = 0;
    double max_training_error = 0.0;  ///< recomputed from inflated cells
    bool converged = false;
    EncodingTier tier = EncodingTier::f64;
    std::vector<BasisGroup> basis_groups;
    std::vector<CompressedMember> members;
    std::vector<CoverageCell> cells;  ///< certificate-inflated
};

struct CompressStats {
    std::size_t basis_columns_in = 0;     ///< sum of member orders q
    std::size_t basis_columns_union = 0;  ///< sum of group ranks r
    double max_encoding_error = 0.0;
};

/// Compress a family (see file comment). Throws util::PreconditionError on
/// an empty family or a coverage cell naming a missing member.
CompressedFamily compress_family(const Family& f, const CompressOptions& opt = {},
                                 CompressStats* stats = nullptr);

/// Materialize every member (deterministic; see file comment). Throws a
/// typed IoError{corrupt} on inconsistent blocks.
Family decode_family(const CompressedFamily& cf);

// -- Block codec (used by the artifact layer and pinned by tests). ----------

/// Exact byte size of an encoded rows x cols matrix block at `tier`. A size
/// past the range of std::size_t saturates at its maximum, which no block
/// length equals.
std::size_t encoded_matrix_bytes(int rows, int cols, EncodingTier tier);

/// Encode a matrix block: f64/f32 store values row-major; q16 stores
/// per-column [lo, hi] ranges then row-major 16-bit codes.
std::string encode_matrix_block(const la::Matrix& m, EncodingTier tier);

/// Decode a matrix block; `len` must equal encoded_matrix_bytes (typed
/// IoError{corrupt} otherwise -- never reads past `data + len`).
la::Matrix decode_matrix_block(const char* data, std::size_t len, int rows, int cols,
                               EncodingTier tier);

/// Serialize provenance + build record + the tier-encoded reduced system of
/// a member (everything except the basis v, which lives in the shared
/// union-basis blocks).
std::string encode_member_meta(const ReducedModel& m, EncodingTier tier);

/// Decode a member meta block and attach the reconstructed basis `v`.
/// Validates order == v.cols() == rom.order() (typed IoError{corrupt}).
ReducedModel decode_member_meta(const char* data, std::size_t len, EncodingTier tier,
                                la::Matrix v);

}  // namespace atmor::rom
