// The ReducedModel artifact: the offline/online seam of the pipeline.
//
// The paper's value proposition is an expensive ONE-TIME reduction buying a
// tiny QLDAE that is cheap to evaluate ever after (Table 1: minutes of moment
// generation vs ~100x faster transients). ReducedModel is that purchase made
// first-class: the reduced system plus the projection basis and enough
// provenance to know exactly what was bought -- which circuit, which
// expansion points, which moment counts, and a hash of the basis that built
// it. rom::io serialises it, rom::Registry caches it, rom::ServeEngine
// answers queries against it; core::MorResult is an alias of it, so every
// reduce_* front-end emits a ready-to-save artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "volterra/qldae.hpp"

namespace atmor::rom {

/// Per-expansion-point moment counts (k1 moments of H1, k2 of A2(H2), k3 of
/// A3(H3)). The adaptive front-end trims these per point; uniform reductions
/// leave the per-point list empty and use the scalar k1/k2/k3 below.
struct PointOrder {
    int k1 = 0;
    int k2 = 0;
    int k3 = 0;
};

inline bool operator==(const PointOrder& a, const PointOrder& b) {
    return a.k1 == b.k1 && a.k2 == b.k2 && a.k3 == b.k3;
}

/// Where a reduced model came from: the reproducibility record the paper's
/// tables report, and the identity the registry keys on.
struct Provenance {
    std::string source;  ///< stable source-circuit key (circuits::*Options::key())
    std::string method;  ///< "atmor" | "linear" | "norm" | "adaptive"
    std::vector<la::Complex> expansion_points;
    int k1 = 0;  ///< H1 / per-axis moment counts the reduction matched
    int k2 = 0;  ///< (per-point maxima when point_orders is non-empty)
    int k3 = 0;
    int full_order = 0;            ///< n of the source system
    std::uint64_t basis_hash = 0;  ///< FNV-1a over the raw bytes of v
    // -- Accuracy record (io format v2; defaults mean "not adaptive"). ------
    /// Per-point trimmed orders; empty for uniform-order reductions.
    std::vector<PointOrder> point_orders;
    /// Relative band-error tolerance the reduction targeted (0 = none).
    double tol = 0.0;
    /// Target frequency band [band_min, band_max] rad/s the error estimate
    /// covers (both 0 = unspecified).
    double band_min = 0.0;
    double band_max = 0.0;
    /// A-posteriori estimated max relative output-H1 error over the band at
    /// build time -- the certificate rom::ServeEngine serves per query
    /// (0 = never estimated).
    double estimated_error = 0.0;
};

/// A self-describing reduction artifact. Aggregate layout keeps the legacy
/// core::MorResult initialisation sites working: {rom, v, build_seconds,
/// raw_vectors, order} with provenance filled afterwards.
struct ReducedModel {
    volterra::Qldae rom;       ///< reduced QLDAE (order q)
    la::Matrix v;              ///< n x q orthonormal projection basis
    double build_seconds = 0;  ///< moment generation + orthogonalisation time
    int raw_vectors = 0;       ///< candidate vectors before deflation
    int order = 0;             ///< q = v.cols()
    Provenance provenance;
};

/// Approximate heap footprint of a materialized model: the basis, dense
/// G1/B/C/D1 counted from the dimensions, the tensor triplets and their
/// packed copies at 8 B per coefficient (bookkeeping overhead excluded). The
/// serving benches report it as resident_bytes_after_load.
std::size_t resident_bytes(const ReducedModel& m);

/// FNV-1a 64-bit over a byte range; the shared hash for basis provenance,
/// io checksums and registry artifact names.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Hash of the raw bytes of a basis matrix (dims mixed in, so a reshaped
/// matrix with identical storage hashes differently).
std::uint64_t basis_hash(const la::Matrix& v);

}  // namespace atmor::rom
