// rom::io: versioned binary round-trips of ReducedModel artifacts.
//
// The load-bearing property is BIT-exactness: a saved-and-reloaded ROM is
// indistinguishable from the in-memory one, down to simulating to exactly
// the same output trace. The rejection paths (version skew, truncation,
// corruption, foreign files) must all surface as typed IoErrors.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "circuits/nltl.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "ode/transient.hpp"
#include "rom/io.hpp"
#include "test_qldae_helpers.hpp"
#include "util/rng.hpp"

namespace atmor {
namespace {

std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / ("atmor_io_test_" + name)).string();
}

/// A small reduced model with quadratic, cubic and bilinear blocks so every
/// serializer branch is exercised.
core::MorResult make_model() {
    util::Rng rng(7);
    test::QldaeOptions qopt;
    qopt.n = 10;
    qopt.inputs = 2;
    qopt.cubic = true;
    qopt.bilinear = true;
    const volterra::Qldae sys = test::random_qldae(qopt, rng);
    core::AtMorOptions mor;
    mor.k1 = 3;
    mor.k2 = 2;
    mor.k3 = 1;
    core::MorResult result = core::reduce_associated(sys, mor);
    result.provenance.source = "test:random_qldae(n=10,m=2)";
    return result;
}

void expect_matrices_identical(const la::Matrix& a, const la::Matrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) EXPECT_EQ(a(i, j), b(i, j));
}

TEST(RomIo, ModelRoundTripIsBitExact) {
    const core::MorResult model = make_model();
    const std::string path = temp_path("roundtrip.atmor-rom");
    rom::save_model(model, path);
    const rom::ReducedModel loaded = rom::load_model(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.provenance.source, model.provenance.source);
    EXPECT_EQ(loaded.provenance.method, "atmor");
    EXPECT_EQ(loaded.provenance.expansion_points, model.provenance.expansion_points);
    EXPECT_EQ(loaded.provenance.k1, 3);
    EXPECT_EQ(loaded.provenance.k2, 2);
    EXPECT_EQ(loaded.provenance.k3, 1);
    EXPECT_EQ(loaded.provenance.full_order, 10);
    EXPECT_EQ(loaded.provenance.basis_hash, model.provenance.basis_hash);
    EXPECT_EQ(loaded.build_seconds, model.build_seconds);
    EXPECT_EQ(loaded.raw_vectors, model.raw_vectors);
    EXPECT_EQ(loaded.order, model.order);

    expect_matrices_identical(loaded.v, model.v);
    expect_matrices_identical(loaded.rom.g1(), model.rom.g1());
    expect_matrices_identical(loaded.rom.b(), model.rom.b());
    expect_matrices_identical(loaded.rom.c(), model.rom.c());
    ASSERT_EQ(loaded.rom.has_bilinear(), model.rom.has_bilinear());
    for (int i = 0; i < model.rom.inputs(); ++i)
        expect_matrices_identical(loaded.rom.d1(i), model.rom.d1(i));
    // The tensors round-trip entry-for-entry (same order => identical
    // floating-point accumulation everywhere downstream).
    ASSERT_EQ(loaded.rom.g2().entries().size(), model.rom.g2().entries().size());
    for (std::size_t e = 0; e < model.rom.g2().entries().size(); ++e) {
        EXPECT_EQ(loaded.rom.g2().entries()[e].row, model.rom.g2().entries()[e].row);
        EXPECT_EQ(loaded.rom.g2().entries()[e].value, model.rom.g2().entries()[e].value);
    }
    ASSERT_EQ(loaded.rom.g3().entries().size(), model.rom.g3().entries().size());

    // The acceptance pin: the loaded ROM simulates to EXACTLY the trace of
    // the in-memory ROM.
    ode::TransientOptions topt;
    topt.t_end = 1.0;
    topt.dt = 1e-2;
    const auto input = circuits::combine_inputs(
        {circuits::sine_input(0.05, 0.5), circuits::sine_input(0.03, 0.8)});
    const auto y_mem = ode::simulate(model.rom, input, topt);
    const auto y_load = ode::simulate(loaded.rom, input, topt);
    ASSERT_EQ(y_mem.t.size(), y_load.t.size());
    for (std::size_t r = 0; r < y_mem.t.size(); ++r)
        EXPECT_EQ(y_mem.y[r][0], y_load.y[r][0]) << "trace diverges at record " << r;
}

TEST(RomIo, SparseQldaeIsStoredDense) {
    // One stored form: a sparse-stamped system is written through its dense
    // mirrors and reads back as the same dense system.
    circuits::NltlOptions copt;
    copt.stages = 8;
    const volterra::Qldae sys = circuits::current_source_line(copt).to_qldae();
    ASSERT_TRUE(sys.is_sparse());

    rom::Writer w;
    w.qldae(sys);
    rom::Reader r(w.bytes());
    const volterra::Qldae back = r.qldae();
    EXPECT_TRUE(r.at_end());

    EXPECT_FALSE(back.is_sparse());
    ASSERT_EQ(back.order(), sys.order());
    const auto same = [](const la::Matrix& a, const la::Matrix& b) {
        ASSERT_EQ(a.rows(), b.rows());
        ASSERT_EQ(a.cols(), b.cols());
        for (int i = 0; i < a.rows(); ++i)
            for (int j = 0; j < a.cols(); ++j) EXPECT_EQ(a(i, j), b(i, j)) << i << "," << j;
    };
    same(back.g1(), sys.g1());
    same(back.b(), sys.b());
    same(back.c(), sys.c());
    EXPECT_EQ(back.g2().entry_count(), sys.g2().entry_count());
    EXPECT_EQ(back.g3().entry_count(), sys.g3().entry_count());
}

TEST(RomIo, VersionMismatchIsRejected) {
    const core::MorResult model = make_model();
    std::string bytes = rom::serialize_model(model);
    bytes[8] = char(bytes[8] + 1);  // bump the u32 version field after the magic
    try {
        (void)rom::deserialize_model(bytes);
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::version_mismatch);
    }
}

TEST(RomIo, TruncatedFileIsRejected) {
    const core::MorResult model = make_model();
    const std::string bytes = rom::serialize_model(model);
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{19}, bytes.size() / 2,
          bytes.size() - 1}) {
        try {
            (void)rom::deserialize_model(bytes.substr(0, keep));
            FAIL() << "expected IoError at " << keep << " bytes";
        } catch (const rom::IoError& e) {
            EXPECT_TRUE(e.kind() == rom::IoErrorKind::truncated ||
                        e.kind() == rom::IoErrorKind::bad_magic)
                << "kept " << keep << " bytes, got " << rom::to_string(e.kind());
        }
    }
}

TEST(RomIo, CorruptPayloadIsRejected) {
    const core::MorResult model = make_model();
    std::string bytes = rom::serialize_model(model);
    bytes[bytes.size() / 2] = char(bytes[bytes.size() / 2] ^ 0x5a);
    try {
        (void)rom::deserialize_model(bytes);
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::checksum_mismatch);
    }
}

TEST(RomIo, StructurallyInvalidTensorIsCorrupt) {
    sparse::SparseTensor3 t(2, 2, 2);
    t.add(0, 0, 1, 1.0);
    t.add(1, 1, 0, 2.0);
    rom::Writer w;
    w.tensor3(t);
    std::string payload = w.bytes();
    // Layout: i32 rows, i32 n1, i32 n2, u64 count, then (i32 row, i32 i,
    // i32 j, f64 value) per entry. Patch the first entry's row out of range;
    // the checksum would pass (we parse the payload directly), so the
    // READER's structural validation is what must catch it.
    const std::size_t row_offset = 4 + 4 + 4 + 8;
    const int bad = 99;
    payload.replace(row_offset, sizeof(bad),
                    std::string(reinterpret_cast<const char*>(&bad), sizeof(bad)));
    rom::Reader r(payload);
    try {
        (void)r.tensor3();
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::corrupt);
    }
}

TEST(RomIo, ForeignFileIsRejected) {
    const std::string path = temp_path("foreign.atmor-rom");
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not a reduced-order model, but long enough to parse";
    }
    try {
        (void)rom::load_model(path);
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::bad_magic);
    }
    std::remove(path.c_str());
}

TEST(RomIo, MissingFileReportsOpenFailed) {
    try {
        (void)rom::load_model(temp_path("does_not_exist.atmor-rom"));
        FAIL() << "expected IoError";
    } catch (const rom::IoError& e) {
        EXPECT_EQ(e.kind(), rom::IoErrorKind::open_failed);
    }
}

}  // namespace
}  // namespace atmor
