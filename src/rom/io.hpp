// Versioned binary save/load for ReducedModel artifacts (and the underlying
// Qldae / Matrix / tensor blocks).
//
// File layout:  "ATMORROM" magic | u32 version | u64 payload size | payload |
// u64 FNV-1a checksum of the payload. The payload leads with a PayloadKind
// tag. Family artifacts use the same envelope around the directory layout
// of rom/family_artifact.hpp. Doubles are stored as their raw 8-byte
// representation, so a round-trip is BIT-EXACT: a loaded ROM simulates to
// exactly the trace of the in-memory one (pinned by test_rom_io). Every
// failure mode -- missing file, truncation, foreign magic, version skew,
// checksum mismatch, structurally invalid payload -- surfaces as a typed
// IoError instead of a garbage model.
//
// The byte layout assumes a little-endian host (every platform the library
// targets); artifacts are not interchangeable with big-endian machines.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "rom/reduced_model.hpp"
#include "sparse/tensor3.hpp"
#include "sparse/tensor4.hpp"
#include "util/error_codes.hpp"
#include "volterra/qldae.hpp"

namespace atmor::rom {

/// The one format version read and written. Bumped on any layout change;
/// an artifact of any other version is IoError{version_mismatch} (no
/// best-effort parsing of older or future artifacts).
inline constexpr std::uint32_t kFormatVersion = 5;

/// Conventional artifact extension (the registry's disk tier uses it).
inline constexpr const char* kArtifactExtension = ".atmor-rom";
/// Conventional extension for family containers.
inline constexpr const char* kFamilyExtension = ".atmor-fam";

/// What a payload holds (first payload byte). Readers of a specific kind
/// reject the others as corrupt instead of mis-parsing them.
enum class PayloadKind : std::uint8_t {
    model = 0,           ///< bare ReducedModel (save_model / load_model)
    registry_entry = 1,  ///< full registry key + model (the disk tier)
    family = 2,          ///< parametric family artifact
};

enum class IoErrorKind {
    open_failed,        ///< file missing or unreadable/unwritable
    truncated,          ///< ran out of bytes mid-structure
    bad_magic,          ///< not an atmor ROM artifact at all
    version_mismatch,   ///< artifact written by a different format version
    checksum_mismatch,  ///< payload bytes damaged after writing
    corrupt,            ///< bytes intact but structurally invalid
};

const char* to_string(IoErrorKind kind);

/// The stable numeric code (util/error_codes.hpp) for an IoErrorKind, so a
/// wire ServeResponse reports artifact damage exactly like the in-process
/// exception does.
[[nodiscard]] constexpr util::ErrorCode error_code(IoErrorKind kind) {
    switch (kind) {
        case IoErrorKind::open_failed: return util::ErrorCode::io_open_failed;
        case IoErrorKind::truncated: return util::ErrorCode::io_truncated;
        case IoErrorKind::bad_magic: return util::ErrorCode::io_bad_magic;
        case IoErrorKind::version_mismatch: return util::ErrorCode::io_version_mismatch;
        case IoErrorKind::checksum_mismatch: return util::ErrorCode::io_checksum_mismatch;
        case IoErrorKind::corrupt: return util::ErrorCode::io_corrupt;
    }
    return util::ErrorCode::io_corrupt;
}

class IoError : public std::runtime_error {
public:
    IoError(IoErrorKind kind, const std::string& what)
        : std::runtime_error(what), kind_(kind) {}
    [[nodiscard]] IoErrorKind kind() const { return kind_; }

private:
    IoErrorKind kind_;
};

/// Append-only payload builder. Composite writers nest: model() writes the
/// provenance, the Qldae blocks and the basis through the same primitives.
class Writer {
public:
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v);
    void f64(double v);
    void str(const std::string& s);
    void complex(la::Complex z);
    void matrix(const la::Matrix& m);
    void zmatrix(const la::ZMatrix& m);
    void vec(const la::Vec& v);
    void tensor3(const sparse::SparseTensor3& t);
    void tensor4(const sparse::SparseTensor4& t);
    /// Dense G1/B/C/D1, then the G2/G3 triplets, for every system: a
    /// sparse-stamped one is written through its dense mirrors.
    void qldae(const volterra::Qldae& sys);
    void model(const ReducedModel& m);
    /// The sub-record model() and the family member meta block
    /// (rom/family_codec.cpp) share.
    void provenance(const Provenance& p);
    /// Payload-kind tag; top-level serializers write it first.
    void kind(PayloadKind k) { u8(static_cast<std::uint8_t>(k)); }

    [[nodiscard]] const std::string& bytes() const { return buf_; }

private:
    void raw(const void* data, std::size_t n);

    std::string buf_;
};

/// Payload parser over a byte buffer (not owned). Reading past the end
/// throws IoError{truncated}; structurally invalid data (negative dims,
/// out-of-range tensor indices, ...) throws IoError{corrupt}.
class Reader {
public:
    explicit Reader(const std::string& bytes) : buf_(bytes) {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32();
    double f64();
    std::string str();
    la::Complex complex();
    la::Matrix matrix();
    la::ZMatrix zmatrix();
    la::Vec vec();
    sparse::SparseTensor3 tensor3();
    sparse::SparseTensor4 tensor4();
    volterra::Qldae qldae();
    ReducedModel model();
    Provenance provenance();
    /// Consume and check the payload-kind tag; a mismatch throws
    /// IoError{corrupt} -- a family fed to a model loader must not mis-parse
    /// as a model.
    void expect_kind(PayloadKind k);

    /// Bounded count for upcoming element reads: `n` elements must fit in
    /// the remaining bytes at `elem_size` (their smallest encoded size)
    /// each, else IoError{truncated}. Every decoder checks a count here
    /// before it reserves or loops on it.
    std::size_t count(std::uint64_t n, std::size_t elem_size);

    [[nodiscard]] bool at_end() const { return pos_ == buf_.size(); }

private:
    void raw(void* out, std::size_t n);

    const std::string& buf_;
    std::size_t pos_ = 0;
};

/// Frame a payload with magic/version/size/checksum (the inverse of
/// unframe). Exposed so callers can persist other payload types with the
/// same integrity envelope.
std::string frame(const std::string& payload);
/// Verify magic/version/size/checksum and return the payload bytes; any
/// version but kFormatVersion throws IoError{version_mismatch}.
std::string unframe(const std::string& bytes);

namespace detail {
/// The envelope convention's one owner: check a framed artifact's length,
/// magic, version and payload size field, and return its payload. The
/// payload checksum is left to the caller: unframe verifies it, the lazy
/// family reader relies on its directory checksum and block hashes instead.
std::string_view envelope_payload(std::string_view bytes);
}  // namespace detail

/// Full artifact in memory: framed model payload.
std::string serialize_model(const ReducedModel& m);
ReducedModel deserialize_model(const std::string& bytes);

/// Publish bytes at `path` via temp file + rename: a crashed writer or a
/// concurrent reader never observes a torn file at the final name (the
/// rename is atomic on POSIX). Throws IoError{open_failed} on I/O failure.
void write_file_atomically(const std::string& bytes, const std::string& path);

/// File round-trip (save_model publishes atomically; see above).
void save_model(const ReducedModel& m, const std::string& path);
ReducedModel load_model(const std::string& path);

}  // namespace atmor::rom
