// The family artifact -- the one on-disk form of a parametric family:
// compressed union-basis storage behind a checksummed directory whose
// records name their own blocks, and an mmap-backed reader that
// materializes members lazily.
//
// Layout of a family payload (inside the usual io envelope):
//
//   u8  PayloadKind::family | u8 EncodingTier
//   u64 header_bytes              -- at fixed payload offset 2; where the
//                                    block region begins (patched last)
//   str family_id | param_space | f64 tol | i32 grid | f64 max_err | u8 conv
//   basis groups: u32 count x { block, i32 rows, i32 cols }
//   members: u32 count x { coords, f64 certified_error, f64 coverage_radius,
//                          u32 basis_group, coeff block, i32 coeff_rows,
//                          i32 coeff_cols, meta block }
//   coverage cells: u64 count x { coords, i32 best, f64 best_error }
//   u64 directory checksum        -- fnv1a over payload[0, here)
//   block payloads                -- the block region
//
// where coords is a u64 count of f64s, param_space a u64 count of
// { str name, f64 min, f64 max, u8 scale } axes, and each block reference
// { u64 offset (relative to the block region), u64 bytes, u64 fnv1a hash }.
// Blocks follow the directory order: every group's, then each member's
// coefficient and meta blocks.
//
// Integrity is LAYERED so the lazy reader never has to touch bytes it does
// not serve: the directory carries its own checksum, and every block
// reference is bounds-checked against the block region (both at open);
// every block's content hash is verified when the block is first
// materialized. The envelope's whole-payload checksum is never read. Net
// effect: a flipped bit anywhere before that trailing checksum surfaces as a
// typed IoError at open or at the first materialization that touches it --
// never a garbage member.
//
// FamilyArtifact::open maps the file read-only (POSIX mmap), parses and
// verifies only the directory, and decodes basis groups / members on first
// touch -- cold-start cost is O(touched members), the working set is page
// cache, and repeated member(i) calls share one immutable materialization.
// An in-memory rom::Family is served by compressing it (the f64 tier is
// lossless), saving and opening it like any other artifact.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "rom/family.hpp"
#include "rom/family_codec.hpp"

namespace atmor::rom {

/// Frame a CompressedFamily as a family artifact.
std::string serialize_family_artifact(const CompressedFamily& cf);

/// Write a family artifact with atomic publication: the one writer.
/// Saved at Registry::family_artifact_path(cf.family_id), the registry's
/// open_family (and so ServeEngine by family id) finds it.
void save_family_artifact(const CompressedFamily& cf, const std::string& path);

/// Read-only view of a family artifact with lazy member materialization.
/// Copyable (shared immutable state); thread-safe: concurrent member(i)
/// calls race only on an internal mutex and at most one thread decodes a
/// given section.
class FamilyArtifact {
public:
    /// Map `path` and verify its envelope and directory (typed IoError
    /// otherwise; a model artifact is corrupt here).
    static FamilyArtifact open(const std::string& path);

    [[nodiscard]] const std::string& family_id() const;
    [[nodiscard]] const pmor::ParamSpace& space() const;
    [[nodiscard]] double tol() const;
    [[nodiscard]] int training_grid_per_dim() const;
    [[nodiscard]] double max_training_error() const;
    [[nodiscard]] bool converged() const;
    [[nodiscard]] const std::vector<CoverageCell>& cells() const;
    [[nodiscard]] int member_count() const;

    /// Materialize (or fetch the cached) member `i`. Throws a typed IoError
    /// if the backing section fails its hash check.
    [[nodiscard]] std::shared_ptr<const FamilyMember> member(int i) const;

    /// Index of the training cell nearest to `coords` (the parameter
    /// space's normalized metric); -1 for an empty table.
    [[nodiscard]] int locate(const pmor::Point& coords) const;

    /// Size of the artifact file.
    [[nodiscard]] std::size_t file_bytes() const;
    /// Heap bytes currently materialized (directory + decoded sections).
    [[nodiscard]] std::size_t resident_bytes() const;
    [[nodiscard]] int materialized_members() const;

private:
    struct Impl;
    FamilyArtifact() = default;
    std::shared_ptr<Impl> impl_;
};

}  // namespace atmor::rom
