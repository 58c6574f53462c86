#include "rom/family_artifact.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <limits>
#include <mutex>
#include <utility>

#include "la/matrix.hpp"
#include "rom/io.hpp"
#include "util/check.hpp"

namespace atmor::rom {

namespace {

/// Payload offset of the u64 header_bytes field (kind and tier bytes precede
/// it); patched after the directory length is known.
constexpr std::size_t kHeaderBytesOffset = 2;

// Smallest encoded size of each directory record a count announces; the
// parser bounds every count by it through Reader::count before it reserves
// or loops. Block reference: offset, length and hash u64s. Parameter axis:
// name length u64, min and max f64, scale u8. Group: block reference, rows
// and cols i32. Member: coordinate count u64, two f64 certificates, the
// basis group u32, two block references and two i32 dimensions, then its
// coordinates. Cell: coordinate count u64, best member i32 and its f64
// error, then its coordinates.
constexpr std::size_t kBlockRefBytes = 3 * 8;
constexpr std::size_t kAxisRecordBytes = 8 + 2 * 8 + 1;
constexpr std::size_t kGroupRecordBytes = kBlockRefBytes + 2 * 4;
constexpr std::size_t kMemberRecordBytes = 8 + 2 * 8 + 4 + 2 * kBlockRefBytes + 2 * 4;
constexpr std::size_t kCellRecordBytes = 8 + 4 + 8;

[[noreturn]] void fail(IoErrorKind kind, const std::string& what) {
    throw IoError(kind, std::string("rom::family_artifact: ") + what);
}

// -- Directory model (parsed form of the layout). ---------------------------

/// Where a block lives in the block region, and its content hash.
struct BlockRef {
    std::uint64_t offset = 0;  ///< relative to the block region
    std::uint64_t bytes = 0;
    std::uint64_t hash = 0;
};

struct GroupRef {
    BlockRef block;
    std::int32_t rows = 0;
    std::int32_t cols = 0;
};

struct MemberRef {
    pmor::Point coords;
    double certified_error = 0.0;
    double coverage_radius = 0.0;
    std::uint32_t basis_group = 0;
    BlockRef coeff;
    std::int32_t coeff_rows = 0;
    std::int32_t coeff_cols = 0;
    BlockRef meta;
};

struct Directory {
    EncodingTier tier = EncodingTier::f64;
    std::uint64_t header_bytes = 0;  ///< where the block region begins
    std::string family_id;
    pmor::ParamSpace space;
    double tol = 0.0;
    std::int32_t training_grid_per_dim = 0;
    double max_training_error = 0.0;
    bool converged = false;
    std::vector<GroupRef> groups;
    std::vector<MemberRef> members;
    std::vector<CoverageCell> cells;
};

// -- Directory sub-records. -------------------------------------------------

void write_param_space(Writer& w, const pmor::ParamSpace& space) {
    const auto& dims = space.descriptors();
    w.u64(dims.size());
    for (const pmor::ParamDescriptor& d : dims) {
        w.str(d.name);
        w.f64(d.min);
        w.f64(d.max);
        w.u8(static_cast<std::uint8_t>(d.scale));
    }
}

pmor::ParamSpace read_param_space(Reader& r) {
    const std::size_t ndims = r.count(r.u64(), kAxisRecordBytes);
    std::vector<pmor::ParamDescriptor> dims;
    dims.reserve(ndims);
    for (std::size_t d = 0; d < ndims; ++d) {
        pmor::ParamDescriptor desc;
        desc.name = r.str();
        desc.min = r.f64();
        desc.max = r.f64();
        const std::uint8_t scale = r.u8();
        if (scale > 1) fail(IoErrorKind::corrupt, "unknown parameter scale tag");
        desc.scale = static_cast<pmor::Scale>(scale);
        dims.push_back(std::move(desc));
    }
    try {
        return pmor::ParamSpace(std::move(dims));
    } catch (const util::PreconditionError& e) {
        fail(IoErrorKind::corrupt, std::string("invalid parameter space: ") + e.what());
    }
}

void write_cells(Writer& w, const std::vector<CoverageCell>& cells) {
    w.u64(cells.size());
    for (const CoverageCell& c : cells) {
        w.u64(c.coords.size());
        for (double v : c.coords) w.f64(v);
        w.i32(c.best);
        w.f64(c.best_error);
    }
}

/// Cells whose coordinate count matches `ndims` and whose member references
/// name one of `member_count` members (or -1).
std::vector<CoverageCell> read_cells(Reader& r, std::size_t ndims, int member_count) {
    const std::size_t ncells = r.count(r.u64(), kCellRecordBytes + ndims * sizeof(double));
    std::vector<CoverageCell> cells;
    cells.reserve(ncells);
    for (std::size_t i = 0; i < ncells; ++i) {
        CoverageCell cell;
        if (r.u64() != ndims)
            fail(IoErrorKind::corrupt, "cell coordinate count disagrees with the space");
        cell.coords.reserve(ndims);
        for (std::size_t c = 0; c < ndims; ++c) cell.coords.push_back(r.f64());
        cell.best = r.i32();
        cell.best_error = r.f64();
        if (cell.best < -1 || cell.best >= member_count)
            fail(IoErrorKind::corrupt, "coverage cell references a missing member");
        cells.push_back(std::move(cell));
    }
    return cells;
}

/// A block reference, bounds-checked against the `region` bytes of the
/// block region.
BlockRef read_block_ref(Reader& r, std::size_t region) {
    BlockRef b;
    b.offset = r.u64();
    b.bytes = r.u64();
    b.hash = r.u64();
    if (b.offset > region || b.bytes > region - b.offset)
        fail(IoErrorKind::truncated, "block at offset " + std::to_string(b.offset) +
                                         " extends past the end of the payload");
    return b;
}

/// Parse and INTEGRITY-CHECK the directory of a family payload. Touches only
/// payload[0, header_bytes) -- the lazy reader's whole cold-start read set --
/// and validates every cross-reference (block bounds, dimensions against
/// block sizes, cell member indices), so later block fetches only have to
/// verify content hashes.
Directory parse_directory(const char* payload, std::size_t payload_len) {
    if (payload_len < 1 || payload[0] != static_cast<char>(PayloadKind::family))
        fail(IoErrorKind::corrupt, "payload is not a family artifact");
    if (payload_len < kHeaderBytesOffset + 2 * sizeof(std::uint64_t))
        fail(IoErrorKind::truncated, "payload too small for a family directory");
    std::uint64_t header_bytes = 0;
    std::memcpy(&header_bytes, payload + kHeaderBytesOffset, sizeof(header_bytes));
    if (header_bytes > payload_len)
        fail(IoErrorKind::truncated, "directory extends past the end of the payload");
    if (header_bytes < kHeaderBytesOffset + 2 * sizeof(std::uint64_t))
        fail(IoErrorKind::corrupt, "directory smaller than its fixed fields");

    const std::size_t dir_len = static_cast<std::size_t>(header_bytes) - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    std::memcpy(&stored, payload + dir_len, sizeof(stored));
    if (fnv1a(payload, dir_len) != stored)
        fail(IoErrorKind::checksum_mismatch, "directory checksum mismatch");

    // The directory is small (no member payloads); copy it so Reader's
    // bounds checks apply and the mapping is never read past header_bytes.
    const std::string dir(payload, dir_len);
    Reader r(dir);
    Directory h;
    r.expect_kind(PayloadKind::family);
    const std::uint8_t tier = r.u8();
    if (tier > static_cast<std::uint8_t>(EncodingTier::q8))
        fail(IoErrorKind::corrupt, "unknown encoding tier tag " + std::to_string(tier));
    h.tier = static_cast<EncodingTier>(tier);
    h.header_bytes = r.u64();
    if (h.header_bytes != header_bytes)
        fail(IoErrorKind::corrupt, "inconsistent header_bytes field");
    h.family_id = r.str();
    h.space = read_param_space(r);
    h.tol = r.f64();
    h.training_grid_per_dim = r.i32();
    h.max_training_error = r.f64();
    const std::uint8_t conv = r.u8();
    if (conv > 1) fail(IoErrorKind::corrupt, "family converged flag not 0/1");
    h.converged = conv == 1;

    const std::size_t region = payload_len - static_cast<std::size_t>(header_bytes);
    const std::size_t ngroups = r.count(r.u32(), kGroupRecordBytes);
    h.groups.reserve(ngroups);
    for (std::size_t i = 0; i < ngroups; ++i) {
        GroupRef g;
        g.block = read_block_ref(r, region);
        g.rows = r.i32();
        g.cols = r.i32();
        if (g.rows < 0 || g.cols < 0)
            fail(IoErrorKind::corrupt, "negative basis group dimension");
        if (g.block.bytes != encoded_matrix_bytes(g.rows, g.cols, h.tier))
            fail(IoErrorKind::corrupt, "basis block size disagrees with the group dimensions");
        h.groups.push_back(g);
    }

    const std::size_t ndims = static_cast<std::size_t>(h.space.dims());
    const std::size_t nmembers = r.count(r.u32(), kMemberRecordBytes + ndims * sizeof(double));
    h.members.reserve(nmembers);
    for (std::size_t i = 0; i < nmembers; ++i) {
        MemberRef m;
        if (r.u64() != ndims)
            fail(IoErrorKind::corrupt, "member coordinate count disagrees with the space");
        m.coords.reserve(ndims);
        for (std::size_t c = 0; c < ndims; ++c) m.coords.push_back(r.f64());
        m.certified_error = r.f64();
        m.coverage_radius = r.f64();
        m.basis_group = r.u32();
        m.coeff = read_block_ref(r, region);
        m.coeff_rows = r.i32();
        m.coeff_cols = r.i32();
        m.meta = read_block_ref(r, region);
        if (m.basis_group >= h.groups.size())
            fail(IoErrorKind::corrupt, "member references a missing basis group");
        if (m.coeff_rows < 0 || m.coeff_cols < 0)
            fail(IoErrorKind::corrupt, "negative member coefficient dimension");
        if (m.coeff_rows != h.groups[m.basis_group].cols)
            fail(IoErrorKind::corrupt, "coefficient rows disagree with the union rank");
        if (m.coeff.bytes != encoded_matrix_bytes(m.coeff_rows, m.coeff_cols, h.tier))
            fail(IoErrorKind::corrupt,
                 "coefficient block size disagrees with the member dimensions");
        h.members.push_back(std::move(m));
    }

    h.cells = read_cells(r, ndims, static_cast<int>(nmembers));
    if (!r.at_end()) fail(IoErrorKind::corrupt, "trailing bytes after the family directory");
    return h;
}

/// Fetch a block's bytes out of the mapped payload and verify its content
/// hash.
std::string fetch_block(const char* payload, const Directory& h, const BlockRef& b) {
    std::string bytes(payload + h.header_bytes + b.offset, static_cast<std::size_t>(b.bytes));
    if (fnv1a(bytes.data(), bytes.size()) != b.hash)
        fail(IoErrorKind::checksum_mismatch,
             "block at offset " + std::to_string(b.offset) + " failed its content hash");
    return bytes;
}

la::Matrix fetch_basis(const char* payload, const Directory& h, std::uint32_t group) {
    const GroupRef& g = h.groups[group];
    const std::string bytes = fetch_block(payload, h, g.block);
    return decode_matrix_block(bytes.data(), bytes.size(), g.rows, g.cols, h.tier);
}

/// Decode one member against its (already decoded) union basis.
FamilyMember materialize_member(const char* payload, const Directory& h, std::size_t index,
                                const la::Matrix& basis) {
    const MemberRef& m = h.members[index];
    const std::string coeff_bytes = fetch_block(payload, h, m.coeff);
    const la::Matrix coeff = decode_matrix_block(coeff_bytes.data(), coeff_bytes.size(),
                                                 m.coeff_rows, m.coeff_cols, h.tier);
    la::Matrix v = la::matmul(basis, coeff);
    const std::string meta_bytes = fetch_block(payload, h, m.meta);
    ReducedModel model =
        decode_member_meta(meta_bytes.data(), meta_bytes.size(), h.tier, std::move(v));
    return FamilyMember{m.coords, m.certified_error, m.coverage_radius, std::move(model)};
}

}  // namespace

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

std::string serialize_family_artifact(const CompressedFamily& cf) {
    ATMOR_REQUIRE(!cf.members.empty(), "serialize_family_artifact: family has no members");

    // Blocks are laid out in directory order: every basis group's, then each
    // member's coefficient and meta blocks.
    std::vector<const std::string*> blocks;
    std::uint64_t region = 0;
    Writer w;
    const auto block_ref = [&](const std::string& bytes) {
        w.u64(region);
        w.u64(bytes.size());
        w.u64(fnv1a(bytes.data(), bytes.size()));
        region += bytes.size();
        blocks.push_back(&bytes);
    };

    w.kind(PayloadKind::family);
    w.u8(static_cast<std::uint8_t>(cf.tier));
    w.u64(0);  // header_bytes, patched below
    w.str(cf.family_id);
    write_param_space(w, cf.space);
    w.f64(cf.tol);
    w.i32(cf.training_grid_per_dim);
    w.f64(cf.max_training_error);
    w.u8(cf.converged ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(cf.basis_groups.size()));
    for (const BasisGroup& g : cf.basis_groups) {
        block_ref(g.bytes);
        w.i32(g.rows);
        w.i32(g.cols);
    }
    w.u32(static_cast<std::uint32_t>(cf.members.size()));
    for (const CompressedMember& m : cf.members) {
        w.u64(m.coords.size());
        for (double c : m.coords) w.f64(c);
        w.f64(m.certified_error);
        w.f64(m.coverage_radius);
        w.u32(m.basis_group);
        block_ref(m.coeff_bytes);
        w.i32(m.coeff_rows);
        w.i32(m.coeff_cols);
        block_ref(m.meta_bytes);
    }
    write_cells(w, cf.cells);

    std::string payload = w.bytes();
    const std::uint64_t header_bytes = payload.size() + sizeof(std::uint64_t);
    std::memcpy(&payload[kHeaderBytesOffset], &header_bytes, sizeof(header_bytes));
    const std::uint64_t checksum = fnv1a(payload.data(), payload.size());
    payload.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    for (const std::string* bytes : blocks) payload.append(*bytes);
    return frame(payload);
}

void save_family_artifact(const CompressedFamily& cf, const std::string& path) {
    write_file_atomically(serialize_family_artifact(cf), path);
}

// ---------------------------------------------------------------------------
// FamilyArtifact.
// ---------------------------------------------------------------------------

struct FamilyArtifact::Impl {
    void* map = nullptr;
    std::size_t map_len = 0;
    const char* payload = nullptr;  ///< into the mapping
    std::size_t payload_len = 0;
    Directory header;

    /// Guards the caches; one thread materializes a given section, everyone
    /// else waits (sections decode in milliseconds, contention is cheap).
    mutable std::mutex mu;
    mutable std::vector<std::shared_ptr<const la::Matrix>> basis_cache;
    mutable std::vector<std::shared_ptr<const FamilyMember>> member_cache;
    mutable std::size_t resident = 0;
    mutable int materialized = 0;

    ~Impl() {
        if (map != nullptr) ::munmap(map, map_len);
    }
};

FamilyArtifact FamilyArtifact::open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) fail(IoErrorKind::open_failed, "cannot open " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fail(IoErrorKind::open_failed, "cannot stat " + path);
    }
    const std::size_t len = static_cast<std::size_t>(st.st_size);
    // An empty file cannot be mapped; the envelope check below rejects it.
    void* map = len == 0 ? nullptr : ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) fail(IoErrorKind::open_failed, "cannot mmap " + path);

    auto impl = std::make_shared<Impl>();
    impl->map = map;
    impl->map_len = len;
    // The whole-payload checksum is skipped on purpose: the layout carries
    // its own directory checksum + per-block hashes, which is what keeps
    // cold-start O(touched members).
    const std::string_view payload =
        detail::envelope_payload(std::string_view(static_cast<const char*>(map), len));
    impl->payload = payload.data();
    impl->payload_len = payload.size();
    impl->header = parse_directory(impl->payload, impl->payload_len);
    impl->basis_cache.resize(impl->header.groups.size());
    impl->member_cache.resize(impl->header.members.size());
    impl->resident = static_cast<std::size_t>(impl->header.header_bytes);
    FamilyArtifact a;
    a.impl_ = std::move(impl);
    return a;
}

const std::string& FamilyArtifact::family_id() const {
    return impl_->header.family_id;
}
const pmor::ParamSpace& FamilyArtifact::space() const {
    return impl_->header.space;
}
double FamilyArtifact::tol() const {
    return impl_->header.tol;
}
int FamilyArtifact::training_grid_per_dim() const {
    return impl_->header.training_grid_per_dim;
}
double FamilyArtifact::max_training_error() const {
    return impl_->header.max_training_error;
}
bool FamilyArtifact::converged() const {
    return impl_->header.converged;
}
const std::vector<CoverageCell>& FamilyArtifact::cells() const {
    return impl_->header.cells;
}
int FamilyArtifact::member_count() const {
    return static_cast<int>(impl_->header.members.size());
}

std::shared_ptr<const FamilyMember> FamilyArtifact::member(int i) const {
    ATMOR_REQUIRE(i >= 0 && i < member_count(), "member index out of range");
    const std::size_t idx = static_cast<std::size_t>(i);
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->member_cache[idx]) return impl_->member_cache[idx];
    const MemberRef& m = impl_->header.members[idx];
    std::shared_ptr<const la::Matrix>& basis = impl_->basis_cache[m.basis_group];
    if (!basis) {
        basis = std::make_shared<const la::Matrix>(
            fetch_basis(impl_->payload, impl_->header, m.basis_group));
        impl_->resident += static_cast<std::size_t>(basis->rows()) *
                           static_cast<std::size_t>(basis->cols()) * sizeof(double);
    }
    auto member = std::make_shared<const FamilyMember>(
        materialize_member(impl_->payload, impl_->header, idx, *basis));
    impl_->resident += atmor::rom::resident_bytes(member->model);
    ++impl_->materialized;
    impl_->member_cache[idx] = member;
    return member;
}

int FamilyArtifact::locate(const pmor::Point& coords) const {
    int best = -1;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cells().size(); ++i) {
        const double d = space().distance(coords, cells()[i].coords);
        if (d < best_dist) {
            best_dist = d;
            best = static_cast<int>(i);
        }
    }
    return best;
}

std::size_t FamilyArtifact::file_bytes() const {
    return impl_->map_len;
}

std::size_t FamilyArtifact::resident_bytes() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->resident;
}

int FamilyArtifact::materialized_members() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->materialized;
}

}  // namespace atmor::rom
