// Fuzz-style negative coverage for rom::io: EXHAUSTIVE truncation and
// bit-flip sweeps over real artifacts of the one format version, v5.
//
// test_rom_io pins a handful of hand-built corruption cases; this file pins
// the whole space mechanically, for model artifacts (deserialize_model) and
// family artifacts (FamilyArtifact::open plus a drain of every member, the
// one family reader):
//  * truncate at EVERY byte boundary -- each prefix must raise a typed
//    IoError (truncated / bad_magic; never a crash, never an object),
//  * flip EVERY bit of the envelope header, and every bit of a payload
//    stride -- each mutation must raise a typed IoError, and the header
//    regions must raise THEIR kind: magic flips bad_magic, version flips
//    version_mismatch (every other version is unsupported), size flips
//    truncated,
// and in every failing case the loader must return NOTHING: the typed
// exception is the only observable effect.
// Family artifacts have a second integrity regime: the DIRECTORY carries its
// own checksum and every payload block its own hash, which the family reader
// checks instead of the envelope's whole-payload checksum (that is what
// keeps its cold start O(directory)). So a re-framed payload (envelope
// checksum regenerated over mutated bytes) must STILL be rejected, at open
// or at the first member materialization that touches the damaged section.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "circuits/nltl.hpp"
#include "core/atmor.hpp"
#include "pmor/family_builder.hpp"
#include "rom/family_artifact.hpp"
#include "rom/family_codec.hpp"
#include "rom/io.hpp"
#include "rom/reduced_model.hpp"
#include "test_qldae_helpers.hpp"
#include "util/rng.hpp"

namespace atmor {
namespace {

/// Header layout constants (mirrors io.cpp: magic | u32 version | u64 size).
constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeaderBytes = kMagicBytes + 4 + 8;
constexpr std::size_t kChecksumBytes = 8;

core::MorResult small_model() {
    util::Rng rng(21);
    test::QldaeOptions qopt;
    qopt.n = 8;
    qopt.inputs = 2;
    qopt.cubic = true;
    qopt.bilinear = true;
    const volterra::Qldae sys = test::random_qldae(qopt, rng);
    core::AtMorOptions mor;
    mor.k1 = 2;
    mor.k2 = 1;
    mor.k3 = 1;
    core::MorResult r = core::reduce_associated(sys, mor);
    r.provenance.source = "fuzz:model";
    return r;
}

rom::Family small_family() {
    circuits::NltlOptions base;
    base.stages = 5;
    pmor::OptionsBinder<circuits::NltlOptions> binder(base);
    binder.param("diode_alpha", &circuits::NltlOptions::diode_alpha, 30.0, 50.0);
    pmor::FamilyDesign design =
        pmor::make_design("fuzz_family", binder, [](const circuits::NltlOptions& o) {
            return circuits::current_source_line(o).to_qldae();
        });
    pmor::FamilyBuildOptions opt;
    opt.tol = 1e-1;
    opt.adaptive.tol = 1e-2;
    opt.adaptive.band_grid = 5;
    opt.adaptive.omega_max = 2.0;
    opt.adaptive.max_points = 1;
    opt.adaptive.point_order = rom::PointOrder{2, 1, 0};
    opt.adaptive.trim_orders = false;
    opt.training_grid_per_dim = 2;
    opt.max_members = 2;
    return pmor::FamilyBuilder(design, opt).build().family;
}

rom::CompressedFamily small_compressed() {
    rom::CompressOptions copt;
    copt.tier = rom::EncodingTier::q16;  // the lossiest tier: most codec paths
    return rom::compress_family(small_family(), copt);
}

std::string write_temp(const std::string& name, const std::string& bytes) {
    const auto path =
        (std::filesystem::temp_directory_path() / ("atmor_fuzz_" + name)).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
}

/// Open a (possibly damaged) artifact file lazily and drain every member, so
/// each inline block's hash gate actually fires. True only when the whole
/// artifact survives.
bool try_open_and_drain(const std::string& path, rom::IoErrorKind* error_out) {
    try {
        const rom::FamilyArtifact art = rom::FamilyArtifact::open(path);
        for (int i = 0; i < art.member_count(); ++i) (void)art.member(i);
        return true;
    } catch (const rom::IoError& e) {
        *error_out = e.kind();
        return false;
    }
}

enum class Kind { model, family };

/// The reader under test; returns true when a (fully formed) object came
/// back. Any exception OTHER than a typed IoError is a failure: bad_alloc
/// from an absurd count, a PreconditionError escaping the structural
/// translation, a segfault all abort the test.
bool try_load(Kind kind, const std::string& bytes, rom::IoErrorKind* error_out) {
    if (kind == Kind::family) {
        const std::string path = write_temp(std::to_string(::getpid()) + ".atmor-fam", bytes);
        const bool loaded = try_open_and_drain(path, error_out);
        std::filesystem::remove(path);
        return loaded;
    }
    try {
        (void)rom::deserialize_model(bytes);
        return true;
    } catch (const rom::IoError& e) {
        *error_out = e.kind();
        return false;
    }
}

void truncation_sweep(Kind kind, const std::string& bytes, const char* label) {
    // Every proper prefix must be rejected with a typed error. Prefixes
    // shorter than the header cannot even name a version; from the header on
    // the size field disagrees with the byte count.
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        rom::IoErrorKind kind_out{};
        const bool loaded = try_load(kind, bytes.substr(0, keep), &kind_out);
        ASSERT_FALSE(loaded) << label << ": truncation to " << keep << " bytes parsed";
        ASSERT_TRUE(kind_out == rom::IoErrorKind::truncated ||
                    kind_out == rom::IoErrorKind::bad_magic)
            << label << ": truncation to " << keep << " bytes raised "
            << rom::to_string(kind_out);
    }
    // And the untruncated artifact still loads (the sweep's control arm).
    rom::IoErrorKind kind_out{};
    ASSERT_TRUE(try_load(kind, bytes, &kind_out)) << label;
}

void bitflip_sweep(Kind kind, const std::string& bytes, const char* label,
                   std::size_t payload_stride) {
    const std::size_t payload_end = bytes.size() - kChecksumBytes;
    std::vector<std::size_t> offsets;
    // Exhaustive over header and checksum; strided over the payload (every
    // byte of a large payload would be slow without adding coverage: every
    // payload flip funnels into the same checksum gates). The family reader
    // never reads the envelope checksum, so family sweeps skip it.
    for (std::size_t i = 0; i < kHeaderBytes && i < bytes.size(); ++i) offsets.push_back(i);
    for (std::size_t i = kHeaderBytes; i < payload_end; i += payload_stride)
        offsets.push_back(i);
    if (kind == Kind::model)
        for (std::size_t i = payload_end; i < bytes.size(); ++i) offsets.push_back(i);

    for (const std::size_t at : offsets) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = bytes;
            mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
            rom::IoErrorKind kind_out{};
            const bool loaded = try_load(kind, mutated, &kind_out);
            ASSERT_FALSE(loaded)
                << label << ": flipping bit " << bit << " of byte " << at << " parsed";
            // Which typed error depends on the region: magic flips are
            // bad_magic, version flips version_mismatch (any flip of the
            // version field names another, unsupported version), size flips
            // truncated. Model payload and checksum flips are
            // checksum_mismatch; a family payload flip is caught by the
            // directory checksum or a block hash, or -- in the directory's
            // fixed fields -- by a structural gate, typed either way.
            if (at < kMagicBytes) {
                ASSERT_EQ(kind_out, rom::IoErrorKind::bad_magic) << label << " byte " << at;
            } else if (at < kMagicBytes + 4) {
                ASSERT_EQ(kind_out, rom::IoErrorKind::version_mismatch)
                    << label << " version byte " << at << ": " << rom::to_string(kind_out);
            } else if (at < kHeaderBytes) {
                ASSERT_EQ(kind_out, rom::IoErrorKind::truncated)
                    << label << " size byte " << at;
            } else if (kind == Kind::model) {
                ASSERT_EQ(kind_out, rom::IoErrorKind::checksum_mismatch)
                    << label << " byte " << at;
            }
        }
    }
}

TEST(RomIoFuzz, ModelTruncationAtEveryBoundary) {
    truncation_sweep(Kind::model, rom::serialize_model(small_model()), "model");
}

TEST(RomIoFuzz, ModelBitFlips) {
    bitflip_sweep(Kind::model, rom::serialize_model(small_model()), "model", 7);
}

TEST(RomIoFuzz, FamilyTruncationAtEveryBoundary) {
    truncation_sweep(Kind::family, rom::serialize_family_artifact(small_compressed()),
                     "family");
}

TEST(RomIoFuzz, FamilyBitFlips) {
    bitflip_sweep(Kind::family, rom::serialize_family_artifact(small_compressed()), "family",
                  7);
}

TEST(RomIoFuzz, EveryOtherVersionIsVersionMismatch) {
    // The readers accept v5 only: older layouts (v1-v4) and future ones are
    // refused by their version field alone, for models and families alike.
    const std::string model = rom::serialize_model(small_model());
    const std::string family = rom::serialize_family_artifact(small_compressed());
    for (const std::uint32_t version : {0u, 1u, 2u, 3u, 4u, rom::kFormatVersion + 1, ~0u}) {
        for (const Kind kind : {Kind::model, Kind::family}) {
            std::string forged = kind == Kind::model ? model : family;
            std::memcpy(&forged[kMagicBytes], &version, sizeof(version));
            rom::IoErrorKind kind_out{};
            ASSERT_FALSE(try_load(kind, forged, &kind_out)) << "version " << version;
            EXPECT_EQ(kind_out, rom::IoErrorKind::version_mismatch) << "version " << version;
        }
    }
}

std::uint64_t directory_bytes_of(const std::string& payload) {
    // Family payload: u8 kind | u8 tier | u64 header_bytes, where
    // header_bytes = directory length + its 8-byte checksum.
    std::uint64_t header_bytes = 0;
    std::memcpy(&header_bytes, payload.data() + 2, sizeof(header_bytes));
    return header_bytes;
}

TEST(RomIoFuzz, TruncatedPayloadBehindAConsistentFrameIsTyped) {
    // The frame can be internally consistent (size and checksum agree) while
    // the PAYLOAD is cut short: re-frame every truncated payload prefix and
    // check the structural reader still reports a typed error -- this is the
    // path the checksum cannot catch, where "no partial object" is earned by
    // the Reader's own bounds discipline.
    const core::MorResult model = small_model();
    rom::Writer w;
    w.kind(rom::PayloadKind::model);
    w.model(model);
    const std::string payload = w.bytes();
    for (std::size_t keep = 0; keep < payload.size(); keep += 3) {
        rom::IoErrorKind kind_out{};
        const bool loaded =
            try_load(Kind::model, rom::frame(payload.substr(0, keep)), &kind_out);
        ASSERT_FALSE(loaded) << "re-framed payload prefix of " << keep << " bytes parsed";
        ASSERT_TRUE(kind_out == rom::IoErrorKind::truncated ||
                    kind_out == rom::IoErrorKind::corrupt)
            << "payload prefix " << keep << ": " << rom::to_string(kind_out);
    }
}

TEST(RomIoFuzz, TrailingGarbageBehindAConsistentFrameIsTyped) {
    // Symmetric case: extra bytes after a complete payload, re-framed so the
    // envelope is consistent; the reader must refuse the surplus.
    rom::Writer w;
    w.kind(rom::PayloadKind::model);
    w.model(small_model());
    for (const std::size_t extra : {std::size_t{1}, std::size_t{8}, std::size_t{129}}) {
        const std::string padded = w.bytes() + std::string(extra, '\x5a');
        rom::IoErrorKind kind_out{};
        const bool loaded = try_load(Kind::model, rom::frame(padded), &kind_out);
        ASSERT_FALSE(loaded) << extra << " trailing bytes parsed";
        ASSERT_TRUE(kind_out == rom::IoErrorKind::corrupt ||
                    kind_out == rom::IoErrorKind::truncated)
            << extra << " trailing bytes: " << rom::to_string(kind_out);
    }
}

// ---------------------------------------------------------------------------
// Family artifacts below the envelope.
// ---------------------------------------------------------------------------

TEST(RomIoFuzz, ReframedFamilyPayloadFlipsAreCaughtBelowTheEnvelope) {
    // The adversarial case the envelope cannot see: mutate the PAYLOAD and
    // regenerate a consistent envelope around it. A model artifact would
    // load such bytes; a family artifact must not -- the directory checksum
    // covers every directory byte (including the block references with their
    // hashes) and each block's own hash covers the block region, so EVERY
    // single-bit payload flip behind a freshly minted frame is still a typed
    // error. Exhaustive over the directory + its checksum field, strided
    // over the (checksummed-per-block) payload blocks.
    const std::string framed = rom::serialize_family_artifact(small_compressed());
    const std::string payload = rom::unframe(framed);
    const std::uint64_t dir_end = directory_bytes_of(payload);
    ASSERT_LT(dir_end, payload.size());

    std::vector<std::size_t> offsets;
    for (std::size_t i = 0; i < dir_end; ++i) offsets.push_back(i);
    for (std::size_t i = dir_end; i < payload.size(); i += 5) offsets.push_back(i);

    for (const std::size_t at : offsets) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = payload;
            mutated[at] = static_cast<char>(mutated[at] ^ (1 << bit));
            rom::IoErrorKind kind_out{};
            const bool loaded = try_load(Kind::family, rom::frame(mutated), &kind_out);
            ASSERT_FALSE(loaded) << "re-framed family payload: flipping bit " << bit
                                 << " of byte " << at << " parsed";
        }
    }
    // Control arm: the unmutated re-frame is the original artifact.
    rom::IoErrorKind kind_out{};
    ASSERT_TRUE(try_load(Kind::family, rom::frame(payload), &kind_out));
}

TEST(RomIoFuzz, ForgedFamilyStructuralFieldsBehindValidChecksumsAreTyped) {
    // Deeper than the checksum gates: forge structural bytes and PATCH the
    // directory checksum (and re-frame), so the mutation reaches the
    // structural readers themselves. Tier and kind tags plus the
    // header_bytes field are the dispatch-critical bytes; none of their
    // forgeries may crash or yield an object.
    const std::string payload = rom::unframe(rom::serialize_family_artifact(small_compressed()));
    const std::uint64_t dir_end = directory_bytes_of(payload);
    const std::size_t dir_len = static_cast<std::size_t>(dir_end) - 8;

    const auto forge = [&](std::size_t at, char value) {
        std::string mutated = payload;
        mutated[at] = value;
        if (at < dir_len) {  // keep the directory checksum telling the truth
            const std::uint64_t sum = rom::fnv1a(mutated.data(), dir_len);
            std::memcpy(&mutated[dir_len], &sum, sizeof(sum));
        }
        rom::IoErrorKind kind_out{};
        const bool loaded = try_load(Kind::family, rom::frame(mutated), &kind_out);
        ASSERT_FALSE(loaded) << "forged byte " << at << " = " << static_cast<int>(value)
                             << " parsed";
    };

    forge(0, '\x00');  // kind: model tag on a family loader
    forge(0, '\x7f');  // kind: unknown tag
    forge(0, '\x01');  // kind: registry entry tag
    forge(1, '\x04');  // tier: one past q8 (unknown tag)
    forge(1, '\x03');  // tier: VALID q8 tag over q16-sized blocks (size gate)
    forge(1, '\x7f');
    for (int byte = 0; byte < 8; ++byte) {  // header_bytes: every byte forged high
        forge(2 + static_cast<std::size_t>(byte), '\x66');
    }
}

// ---------------------------------------------------------------------------
// External artifacts.
// ---------------------------------------------------------------------------

TEST(RomIoFuzz, ExternalArtifactUnderEnvVar) {
    // CI hook: point ATMOR_FUZZ_ARTIFACT at any .atmor-fam file (e.g. the
    // uploaded sample artifact) and this test fuzzes THAT artifact through
    // the lazy reader -- strided truncations and bit flips, each of which
    // must be a typed error with no crash. Skipped when the variable is
    // unset, so local runs stay hermetic.
    const char* target = std::getenv("ATMOR_FUZZ_ARTIFACT");
    if (target == nullptr || *target == '\0')
        GTEST_SKIP() << "set ATMOR_FUZZ_ARTIFACT=<path> to fuzz an external artifact";
    std::string bytes;
    {
        std::ifstream in(target, std::ios::binary);
        ASSERT_TRUE(in.good()) << "cannot read " << target;
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    const std::string path = write_temp("external.atmor-fam", bytes);
    rom::IoErrorKind kind_out{};
    ASSERT_TRUE(try_open_and_drain(path, &kind_out)) << "control arm failed";

    const std::size_t trunc_stride = std::max<std::size_t>(1, bytes.size() / 512);
    for (std::size_t keep = 0; keep < bytes.size(); keep += trunc_stride) {
        (void)write_temp("external.atmor-fam", bytes.substr(0, keep));
        ASSERT_FALSE(try_open_and_drain(path, &kind_out))
            << "truncation to " << keep << " bytes parsed";
    }
    const std::size_t flip_stride = std::max<std::size_t>(1, bytes.size() / 256);
    for (std::size_t at = 0; at + kChecksumBytes < bytes.size(); at += flip_stride) {
        std::string mutated = bytes;
        mutated[at] = static_cast<char>(mutated[at] ^ 0x10);
        (void)write_temp("external.atmor-fam", mutated);
        ASSERT_FALSE(try_open_and_drain(path, &kind_out))
            << "bit flip at byte " << at << " went unnoticed";
    }
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace atmor
