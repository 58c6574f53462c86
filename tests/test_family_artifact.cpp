// The family artifact stack: tier block codec, union-basis compression with
// measured-and-folded encoding certificates, save/open, the mmap lazy reader
// (answers identical to decode_family, O(touched members) materialization,
// concurrent safety), and serving a saved artifact through the registry's
// family tier.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "pmor/family_builder.hpp"
#include "rom/family_artifact.hpp"
#include "rom/family_codec.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"
#include "rom/serve_engine.hpp"
#include "test_serve_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "volterra/transfer.hpp"

namespace atmor {
namespace {

using la::Complex;
using pmor::Point;

std::string temp_dir(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / ("atmor_famart_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

pmor::FamilyDesign nltl_design(int stages = 8) {
    circuits::NltlOptions base;
    base.stages = stages;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 20.0, 60.0);
    return pmor::make_design("nltl_current", binder, [](const circuits::NltlOptions& o) {
        return circuits::current_source_line(o).to_qldae();
    });
}

pmor::FamilyBuildOptions family_options() {
    pmor::FamilyBuildOptions opt;
    opt.adaptive.tol = 2e-3;
    opt.adaptive.omega_min = 0.25;
    opt.adaptive.omega_max = 2.0;
    opt.adaptive.band_grid = 7;
    opt.adaptive.max_points = 2;
    opt.adaptive.point_order = rom::PointOrder{3, 1, 0};
    opt.adaptive.trim_orders = false;
    opt.tol = 1e-2;
    opt.training_grid_per_dim = 5;
    opt.max_members = 5;
    return opt;
}

/// One converged family shared across the tests (member builds are the
/// expensive part; the codec and artifact paths under test are cheap).
const rom::Family& test_family() {
    static const rom::Family fam =
        pmor::FamilyBuilder(nltl_design(), family_options()).build().family;
    return fam;
}

std::vector<Complex> probe_grid() {
    std::vector<Complex> grid;
    for (int g = 0; g < 5; ++g) grid.emplace_back(0.0, 0.3 + 0.35 * g);
    return grid;
}

// ---------------------------------------------------------------------------
// Tier block codec.
// ---------------------------------------------------------------------------

TEST(FamilyCodec, BlockCodecRoundTripsEveryTier) {
    util::Rng rng(7);
    la::Matrix m(13, 4);
    for (int i = 0; i < m.rows(); ++i)
        for (int j = 0; j < m.cols(); ++j) m(i, j) = rng.uniform(-3.0, 3.0);

    for (const rom::EncodingTier tier :
         {rom::EncodingTier::f64, rom::EncodingTier::f32, rom::EncodingTier::q16,
          rom::EncodingTier::q8}) {
        const std::string bytes = rom::encode_matrix_block(m, tier);
        EXPECT_EQ(bytes.size(), rom::encoded_matrix_bytes(m.rows(), m.cols(), tier))
            << rom::to_string(tier);
        const la::Matrix back =
            rom::decode_matrix_block(bytes.data(), bytes.size(), m.rows(), m.cols(), tier);
        double max_err = 0.0;
        for (int i = 0; i < m.rows(); ++i)
            for (int j = 0; j < m.cols(); ++j)
                max_err = std::max(max_err, std::abs(back(i, j) - m(i, j)));
        switch (tier) {
            case rom::EncodingTier::f64:
                EXPECT_EQ(max_err, 0.0);  // bit-exact
                break;
            case rom::EncodingTier::f32:
                EXPECT_LT(max_err, 3.0 * 1.2e-7);  // float mantissa on |x| <= 3
                break;
            case rom::EncodingTier::q16:
                EXPECT_LT(max_err, 6.0 / 65535.0);  // column range / code range
                break;
            case rom::EncodingTier::q8:
                EXPECT_LT(max_err, 6.0 / 255.0);
                break;
        }
    }
    // The sizes actually shrink tier by tier.
    EXPECT_LT(rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::f32),
              rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::f64));
    EXPECT_LT(rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::q16),
              rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::f32));
    EXPECT_LT(rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::q8),
              rom::encoded_matrix_bytes(13, 4, rom::EncodingTier::q16));
}

TEST(FamilyCodec, WrongBlockLengthIsTypedCorrupt) {
    la::Matrix m(3, 3);
    const std::string bytes = rom::encode_matrix_block(m, rom::EncodingTier::f32);
    try {
        (void)rom::decode_matrix_block(bytes.data(), bytes.size() - 1, 3, 3,
                                       rom::EncodingTier::f32);
        FAIL() << "short block must throw";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt);
    }
    // rows * cols * 8 of these dimensions wraps to 32 in 64 bits: a 32-byte
    // block must not pass for a matrix of that size.
    const std::string block(32, '\0');
    try {
        (void)rom::decode_matrix_block(block.data(), block.size(), 1824726041, 1263665316,
                                       rom::EncodingTier::f64);
        FAIL() << "wrapped block size must throw";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt);
    }
}

/// A member meta block up to its reduced system: default provenance, build
/// seconds, raw vector count and order.
rom::Writer member_meta_prefix() {
    rom::Writer w;
    w.provenance(rom::Provenance{});
    w.f64(0.0);
    w.i32(1);
    w.i32(1);
    return w;
}

/// A 1 x 1 f64-tier matrix record (rows, cols, encoded block).
void write_unit_tmatrix(rom::Writer& w) {
    w.i32(1);
    w.i32(1);
    w.str(rom::encode_matrix_block(la::Matrix{{1.0}}, rom::EncodingTier::f64));
}

void expect_meta_corrupt(const rom::Writer& w, const char* what) {
    const std::string& bytes = w.bytes();
    try {
        (void)rom::decode_member_meta(bytes.data(), bytes.size(), rom::EncodingTier::f64,
                                      la::Matrix(1, 1));
        FAIL() << what << " decoded";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt) << what << ": " << e.what();
    }
}

TEST(FamilyCodec, ForgedMemberMetaSizesAreTypedCorrupt) {
    {
        // Dense G2 of 65536 x 65536 lifted columns over a valid 1 x 1 block:
        // n1 * n2 overflows an int.
        rom::Writer w = member_meta_prefix();
        write_unit_tmatrix(w);  // G1
        write_unit_tmatrix(w);  // B
        write_unit_tmatrix(w);  // C
        w.u32(0);               // no D1 blocks
        w.i32(1);
        w.i32(65536);
        w.i32(65536);
        w.u8(1);  // dense tensor3
        write_unit_tmatrix(w);
        expect_meta_corrupt(w, "dense tensor3 with n1 = n2 = 65536");
    }
}

// ---------------------------------------------------------------------------
// Union-basis compression + certificates.
// ---------------------------------------------------------------------------

TEST(FamilyCodec, F64TierMeasuresExactlyZeroEncodingError) {
    const rom::Family& fam = test_family();
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::f64;
    rom::CompressStats stats;
    const rom::CompressedFamily cf = rom::compress_family(fam, copt, &stats);

    EXPECT_EQ(stats.max_encoding_error, 0.0);
    ASSERT_EQ(cf.members.size(), fam.members.size());
    for (std::size_t i = 0; i < cf.members.size(); ++i) {
        EXPECT_EQ(cf.members[i].encoding_error, 0.0);
        EXPECT_EQ(cf.members[i].certified_error, fam.members[i].certified_error);
    }
    for (std::size_t c = 0; c < cf.cells.size(); ++c)
        EXPECT_EQ(cf.cells[c].best_error, fam.cells[c].best_error);
    EXPECT_EQ(cf.max_training_error, fam.max_training_error);
    EXPECT_TRUE(cf.converged);
}

TEST(FamilyCodec, LossyTiersFoldMeasuredErrorIntoEveryCertificate) {
    const rom::Family& fam = test_family();
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    rom::CompressStats stats;
    const rom::CompressedFamily cf = rom::compress_family(fam, copt, &stats);

    // The union basis never grows past the stacked member bases.
    EXPECT_LE(stats.basis_columns_union, stats.basis_columns_in);
    ASSERT_EQ(cf.members.size(), fam.members.size());
    for (std::size_t i = 0; i < cf.members.size(); ++i) {
        EXPECT_GE(cf.members[i].encoding_error, 0.0);
        // The stored certificate is the original inflated by the MEASURED
        // response deviation of the decoded member -- never deflated.
        EXPECT_DOUBLE_EQ(cf.members[i].certified_error,
                         fam.members[i].certified_error + cf.members[i].encoding_error);
    }
    for (std::size_t c = 0; c < cf.cells.size(); ++c)
        EXPECT_GE(cf.cells[c].best_error, fam.cells[c].best_error);
    double worst = 0.0;
    for (const rom::CoverageCell& cell : cf.cells) worst = std::max(worst, cell.best_error);
    EXPECT_EQ(cf.max_training_error, worst);
    EXPECT_EQ(cf.converged, worst <= cf.tol);
}

TEST(FamilyCodec, DecodeIsDeterministicAndCertifiedAgainstTheDecodedModel) {
    const rom::Family& fam = test_family();
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    const rom::CompressedFamily cf = rom::compress_family(fam, copt);
    const rom::Family a = rom::decode_family(cf);
    const rom::Family b = rom::decode_family(cf);
    ASSERT_EQ(a.members.size(), b.members.size());

    const std::vector<Complex> grid = probe_grid();
    for (std::size_t i = 0; i < a.members.size(); ++i) {
        // Deterministic materialization: both decodes produce the same basis
        // (hash included) and bit-identical responses.
        EXPECT_EQ(a.members[i].model.provenance.basis_hash,
                  b.members[i].model.provenance.basis_hash);
        const auto ra = volterra::TransferEvaluator(a.members[i].model.rom).output_h1_sweep(grid);
        const auto rb = volterra::TransferEvaluator(b.members[i].model.rom).output_h1_sweep(grid);
        const auto orig =
            volterra::TransferEvaluator(fam.members[i].model.rom).output_h1_sweep(grid);
        double dev = 0.0;
        double denom = 0.0;
        for (std::size_t g = 0; g < grid.size(); ++g) {
            EXPECT_EQ(la::max_abs(ra[g] - rb[g]), 0.0);
            dev = std::max(dev, la::max_abs(ra[g] - orig[g]));
            denom = std::max(denom, la::max_abs(orig[g]));
        }
        // The measured encoding certificate genuinely bounds the deviation
        // of the member that decode_family serves (probe points here lie
        // inside the certified band the measurement sampled).
        EXPECT_LE(dev / denom, cf.members[i].encoding_error * 1.5 + 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Sectioned save/load + mmap reader.
// ---------------------------------------------------------------------------

TEST(FamilyArtifact, MmapReaderMaterializesOnlyTouchedMembers) {
    const std::string dir = temp_dir("lazy");
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    const rom::CompressedFamily cf = rom::compress_family(test_family(), copt);
    const std::string path = dir + "/fam" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, path);

    const rom::FamilyArtifact art = rom::FamilyArtifact::open(path);
    EXPECT_EQ(art.member_count(), static_cast<int>(cf.members.size()));
    EXPECT_EQ(art.materialized_members(), 0);  // cold open decodes nothing
    const std::size_t cold = art.resident_bytes();
    EXPECT_GT(cold, 0u);  // the verified directory
    EXPECT_EQ(art.file_bytes(), std::filesystem::file_size(path));

    const auto m0 = art.member(0);
    EXPECT_EQ(art.materialized_members(), 1);
    EXPECT_GT(art.resident_bytes(), cold);
    // Repeated access shares the one materialization.
    EXPECT_EQ(art.member(0).get(), m0.get());
    EXPECT_EQ(art.materialized_members(), 1);

    // The lazy view matches the in-memory decode exactly, member by member
    // and header field by header field.
    const rom::Family direct = rom::decode_family(cf);
    EXPECT_EQ(m0->model.provenance.basis_hash, direct.members[0].model.provenance.basis_hash);
    EXPECT_EQ(la::max_abs(m0->model.v - direct.members[0].model.v), 0.0);
    EXPECT_EQ(m0->certified_error, direct.members[0].certified_error);
    EXPECT_EQ(art.family_id(), direct.family_id);
    EXPECT_EQ(art.max_training_error(), direct.max_training_error);
    for (int i = 0; i < art.member_count(); ++i) {
        const auto& want = direct.members[static_cast<std::size_t>(i)];
        EXPECT_EQ(art.member(i)->model.provenance.basis_hash,
                  want.model.provenance.basis_hash);
        EXPECT_EQ(art.member(i)->certified_error, want.certified_error);
        EXPECT_EQ(la::max_abs(art.member(i)->model.v - want.model.v), 0.0);
    }
    EXPECT_EQ(art.materialized_members(), art.member_count());
    std::filesystem::remove_all(dir);
}

TEST(FamilyArtifact, MmapServingAnswersIdenticallyToTheDecodedFamily) {
    const std::string dir = temp_dir("serve");
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    const rom::CompressedFamily cf = rom::compress_family(test_family(), copt);
    ASSERT_TRUE(cf.converged);  // lossy rounding stays inside the family tol
    const std::string path = dir + "/fam" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, path);

    // The served answer is the decoded member's own sweep, bit for bit,
    // under the decoded coverage cell's certificate.
    const rom::Family decoded = rom::decode_family(cf);
    const rom::FamilyArtifact lazy = rom::FamilyArtifact::open(path);
    rom::ServeEngine engine(std::make_shared<rom::Registry>());
    engine.host_family(lazy);
    const std::vector<Complex> grid = probe_grid();

    for (const Point& q : decoded.space.offset_grid(3)) {
        const rom::ServeResponse b = test::parametric(engine, cf.family_id, q, grid);
        ASSERT_TRUE(b.ok()) << b.error.message;
        ASSERT_FALSE(b.fallback);
        const std::size_t cell = static_cast<std::size_t>(lazy.locate(q));
        EXPECT_EQ(b.member, decoded.cells[cell].best);
        EXPECT_EQ(b.certificate.estimated_error, decoded.cells[cell].best_error);
        const rom::FamilyMember& m = decoded.members[static_cast<std::size_t>(b.member)];
        const std::vector<la::ZMatrix> a =
            volterra::TransferEvaluator(m.model.rom).output_h1_sweep(grid);
        ASSERT_EQ(a.size(), b.response.size());
        for (std::size_t g = 0; g < a.size(); ++g)
            EXPECT_EQ(la::max_abs(a[g] - b.response[g]), 0.0);
    }
    // Serving the sweep touched only the members the queries routed to.
    EXPECT_LE(lazy.materialized_members(), lazy.member_count());
    std::filesystem::remove_all(dir);
}

TEST(FamilyArtifact, ConcurrentLazyMaterializationIsSafeAndShared) {
    const std::string dir = temp_dir("threads");
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::f32;
    const rom::CompressedFamily cf = rom::compress_family(test_family(), copt);
    const std::string path = dir + "/fam" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, path);

    const rom::FamilyArtifact art = rom::FamilyArtifact::open(path);
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const rom::FamilyMember>> seen(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            // Everyone hammers every member; the caches must hand every
            // thread the same immutable materializations.
            for (int i = 0; i < art.member_count(); ++i) (void)art.member(i);
            seen[static_cast<std::size_t>(t)] = art.member(0);
        });
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(art.materialized_members(), art.member_count());
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0].get(), seen[t].get());
    std::filesystem::remove_all(dir);
}

TEST(FamilyArtifact, DamagedSectionsAreTypedErrorsOnWhicheverPathTouchesThem) {
    const std::string dir = temp_dir("damage");
    const rom::CompressedFamily cf = rom::compress_family(test_family());
    const std::string path = dir + "/fam" + rom::kFamilyExtension;
    rom::save_family_artifact(cf, path);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }

    // Flip one byte inside the LAST block (member payload territory): the
    // directory still verifies, open succeeds, but materializing the member
    // whose section was hit must throw a typed checksum error -- and only
    // then (lazy integrity is per-section).
    std::string damaged = bytes;
    damaged[damaged.size() - 9] ^= 0x40;  // inside the final block, before the envelope checksum
    const std::string bad_path = dir + "/damaged" + rom::kFamilyExtension;
    {
        std::ofstream out(bad_path, std::ios::binary);
        out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    const rom::FamilyArtifact art = rom::FamilyArtifact::open(bad_path);
    int typed = 0;
    for (int i = 0; i < art.member_count(); ++i) {
        try {
            (void)art.member(i);
        } catch (const rom::IoError& e) {
            EXPECT_EQ(e.kind(), rom::IoErrorKind::checksum_mismatch);
            ++typed;
        }
    }
    EXPECT_GE(typed, 1);

    // Flip a byte inside the directory: open itself must reject.
    std::string bad_dir = bytes;
    bad_dir[40] ^= 0x01;  // inside the framed directory region
    const std::string bad_dir_path = dir + "/baddir" + rom::kFamilyExtension;
    {
        std::ofstream out(bad_dir_path, std::ios::binary);
        out.write(bad_dir.data(), static_cast<std::streamsize>(bad_dir.size()));
    }
    EXPECT_THROW((void)rom::FamilyArtifact::open(bad_dir_path), rom::IoError);
    std::filesystem::remove_all(dir);
}

/// Payload offset of the directory's u32 basis-group count: everything
/// before it is the family header.
std::size_t group_count_offset(const rom::CompressedFamily& cf) {
    rom::Writer prefix;
    prefix.kind(rom::PayloadKind::family);
    prefix.u8(static_cast<std::uint8_t>(cf.tier));
    prefix.u64(0);
    prefix.str(cf.family_id);
    prefix.u64(cf.space.descriptors().size());
    for (const pmor::ParamDescriptor& d : cf.space.descriptors()) {
        prefix.str(d.name);
        prefix.f64(d.min);
        prefix.f64(d.max);
        prefix.u8(static_cast<std::uint8_t>(d.scale));
    }
    prefix.f64(cf.tol);
    prefix.i32(cf.training_grid_per_dim);
    prefix.f64(cf.max_training_error);
    prefix.u8(cf.converged ? 1 : 0);
    return prefix.bytes().size();
}

/// Re-hash the directory of a forged family payload, re-mint its frame,
/// save it at `path` and require open to fail with an IoError of `kind`.
void expect_open_fails(std::string forged, const std::string& path, rom::IoErrorKind kind,
                       const std::string& what) {
    std::uint64_t header_bytes = 0;
    std::memcpy(&header_bytes, forged.data() + 2, sizeof(header_bytes));
    const std::size_t dir_len = static_cast<std::size_t>(header_bytes) - sizeof(std::uint64_t);
    const std::uint64_t sum = rom::fnv1a(forged.data(), dir_len);
    std::memcpy(&forged[dir_len], &sum, sizeof(sum));
    rom::write_file_atomically(rom::frame(forged), path);
    try {
        (void)rom::FamilyArtifact::open(path);
        FAIL() << what << " opened";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), kind) << what << ": " << e.what();
    }
}

TEST(FamilyArtifact, ForgedDirectoryCountsAreTypedTruncated) {
    // The group and member counts are bounded by the directory bytes left
    // before anything is reserved: a re-hashed directory announcing
    // 2^32 - 1 records fails open as a typed truncation, never bad_alloc.
    const std::string dir = temp_dir("counts");
    const rom::CompressedFamily cf = rom::compress_family(test_family());
    const std::string payload = rom::unframe(rom::serialize_family_artifact(cf));
    const auto u32_at = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, payload.data() + at, sizeof(v));
        return static_cast<std::size_t>(v);
    };
    // Group records are 32 bytes: a block reference (offset, bytes, hash)
    // and the rows and cols.
    const std::size_t groups_at = group_count_offset(cf);
    const std::size_t members_at = groups_at + sizeof(std::uint32_t) + 32 * u32_at(groups_at);
    ASSERT_EQ(u32_at(groups_at), cf.basis_groups.size());
    ASSERT_EQ(u32_at(members_at), cf.members.size());

    const std::string path = dir + "/forged" + rom::kFamilyExtension;
    const std::uint32_t forged_count = 0xffffffffu;
    for (const std::size_t at : {groups_at, members_at}) {
        std::string forged = payload;
        std::memcpy(&forged[at], &forged_count, sizeof(forged_count));
        expect_open_fails(forged, path, rom::IoErrorKind::truncated,
                          "count at offset " + std::to_string(at));
    }
    // A block reference whose offset or length runs past the block region is
    // refused the same way at open, before any block is fetched: the first
    // group's offset and length fields follow the group count.
    const std::uint64_t past = payload.size();
    for (const std::size_t at : {groups_at + 4, groups_at + 4 + 8}) {
        std::string forged = payload;
        std::memcpy(&forged[at], &past, sizeof(past));
        expect_open_fails(forged, path, rom::IoErrorKind::truncated,
                          "block reference field at offset " + std::to_string(at));
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Registry family tier.
// ---------------------------------------------------------------------------

TEST(FamilyArtifact, SavedAtTheRegistryPathServesCertifiedByFamilyId) {
    // The path a served family takes: compress, save at the registry's
    // family path, and let serve() find it by family id.
    const std::string dir = temp_dir("registry");
    rom::RegistryOptions ropt;
    ropt.artifact_dir = dir;
    const auto registry = std::make_shared<rom::Registry>(ropt);
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;
    const rom::CompressedFamily cf = rom::compress_family(test_family(), copt);
    ASSERT_TRUE(cf.converged);
    const std::string path = registry->family_artifact_path(cf.family_id);
    ASSERT_FALSE(path.empty());
    rom::save_family_artifact(cf, path);
    EXPECT_EQ(registry->stats().family_loads, 0);

    rom::ServeEngine engine(registry);
    const rom::ServeResponse ans = test::parametric(engine, cf.family_id, cf.space.center(),
                                                    probe_grid());
    ASSERT_TRUE(ans.ok()) << ans.error.message;
    EXPECT_FALSE(ans.fallback);
    EXPECT_TRUE(ans.certificate.certified());
    EXPECT_LE(ans.certificate.estimated_error, ans.certificate.tol);
    EXPECT_EQ(registry->stats().family_loads, 1);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace atmor
