// rom::Registry: LRU memory tier, disk artifact tier, and the single-flight
// guarantee that concurrent callers reduce a configuration exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/atmor.hpp"
#include "rom/io.hpp"
#include "rom/registry.hpp"
#include "test_qldae_helpers.hpp"
#include "util/rng.hpp"

namespace atmor {
namespace {

/// A real (small) reduction as the builder payload.
rom::ReducedModel build_model(int seed) {
    util::Rng rng(static_cast<unsigned>(seed));
    test::QldaeOptions qopt;
    qopt.n = 8;
    const volterra::Qldae sys = test::random_qldae(qopt, rng);
    core::AtMorOptions mor;
    mor.k1 = 3;
    mor.k2 = 1;
    mor.k3 = 0;
    return core::reduce_associated(sys, mor);
}

std::string temp_dir(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / ("atmor_registry_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

TEST(RomRegistry, SingleFlightBuildsExactlyOnce) {
    rom::Registry registry;
    std::atomic<int> builder_runs{0};
    const auto builder = [&] {
        ++builder_runs;
        // Hold the flight open long enough that every thread arrives while
        // the build is still in progress.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return build_model(1);
    };

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const rom::ReducedModel>> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] { results[static_cast<std::size_t>(t)] =
                                          registry.get_or_build("model-a", builder); });
    for (auto& t : threads) t.join();

    EXPECT_EQ(builder_runs.load(), 1);
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[static_cast<std::size_t>(t)],
                                                 results[0]);
    const rom::RegistryStats stats = registry.stats();
    EXPECT_EQ(stats.builds, 1);
    EXPECT_EQ(stats.lookups, kThreads);
    EXPECT_EQ(stats.coalesced + stats.memory_hits, kThreads - 1);
}

TEST(RomRegistry, MemoryHitsAfterFirstBuild) {
    rom::Registry registry;
    int builder_runs = 0;
    const auto builder = [&] {
        ++builder_runs;
        return build_model(2);
    };
    const auto first = registry.get_or_build("model-b", builder);
    const auto second = registry.get_or_build("model-b", builder);
    EXPECT_EQ(builder_runs, 1);
    EXPECT_EQ(first, second);
    EXPECT_EQ(registry.stats().memory_hits, 1);
    EXPECT_NE(registry.cached("model-b"), nullptr);
    EXPECT_EQ(registry.cached("model-missing"), nullptr);
}

TEST(RomRegistry, LruEvictsLeastRecentlyUsed) {
    rom::RegistryOptions opt;
    opt.max_memory_models = 2;
    rom::Registry registry(opt);
    int builder_runs = 0;
    const auto builder = [&] {
        ++builder_runs;
        return build_model(3);
    };
    (void)registry.get_or_build("k1", builder);
    (void)registry.get_or_build("k2", builder);
    (void)registry.get_or_build("k1", builder);  // touch k1 so k2 is the LRU victim
    (void)registry.get_or_build("k3", builder);  // evicts k2
    EXPECT_EQ(registry.memory_count(), 2u);
    EXPECT_EQ(registry.stats().evictions, 1);
    EXPECT_NE(registry.cached("k1"), nullptr);
    EXPECT_EQ(registry.cached("k2"), nullptr);
    EXPECT_NE(registry.cached("k3"), nullptr);
    // Rebuilding the evicted key is a full build again (no disk tier here).
    (void)registry.get_or_build("k2", builder);
    EXPECT_EQ(builder_runs, 4);
}

TEST(RomRegistry, DiskTierServesASecondRegistry) {
    const std::string dir = temp_dir("disk");
    rom::RegistryOptions opt;
    opt.artifact_dir = dir;
    int builder_runs = 0;
    const auto builder = [&] {
        ++builder_runs;
        return build_model(4);
    };

    rom::Registry first(opt);
    const auto built = first.get_or_build("model-d", builder);
    EXPECT_EQ(first.stats().builds, 1);
    EXPECT_TRUE(std::filesystem::exists(first.artifact_path("model-d")));

    // A fresh registry over the same directory loads instead of building.
    rom::Registry second(opt);
    const auto loaded = second.get_or_build("model-d", builder);
    EXPECT_EQ(builder_runs, 1);
    const rom::RegistryStats stats = second.stats();
    EXPECT_EQ(stats.builds, 0);
    EXPECT_EQ(stats.disk_hits, 1);
    ASSERT_EQ(loaded->order, built->order);
    for (int i = 0; i < built->v.rows(); ++i)
        for (int j = 0; j < built->v.cols(); ++j) EXPECT_EQ(loaded->v(i, j), built->v(i, j));
    std::filesystem::remove_all(dir);
}

TEST(RomRegistry, CorruptArtifactFallsBackToBuild) {
    const std::string dir = temp_dir("corrupt");
    rom::RegistryOptions opt;
    opt.artifact_dir = dir;
    rom::Registry registry(opt);
    {
        std::ofstream out(registry.artifact_path("model-e"), std::ios::binary);
        out << "garbage that is definitely not an artifact";
    }
    int builder_runs = 0;
    const auto model = registry.get_or_build("model-e", [&] {
        ++builder_runs;
        return build_model(5);
    });
    EXPECT_EQ(builder_runs, 1);
    EXPECT_NE(model, nullptr);
    const rom::RegistryStats stats = registry.stats();
    EXPECT_EQ(stats.disk_errors, 1);
    EXPECT_EQ(stats.builds, 1);
    // The damaged artifact was overwritten with a good one.
    rom::Registry fresh(opt);
    (void)fresh.get_or_build("model-e", [&] {
        ++builder_runs;
        return build_model(5);
    });
    EXPECT_EQ(builder_runs, 1);
    EXPECT_EQ(fresh.stats().disk_hits, 1);
    std::filesystem::remove_all(dir);
}

TEST(RomRegistry, WrongKeyArtifactIsRebuiltNotServed) {
    const std::string dir = temp_dir("collision");
    rom::RegistryOptions opt;
    opt.artifact_dir = dir;
    int builder_runs = 0;
    const auto builder = [&] {
        ++builder_runs;
        return build_model(7);
    };
    rom::Registry first(opt);
    (void)first.get_or_build("key-one", builder);
    // Simulate a filename-hash collision (or a stale foreign file): key-two
    // finds key-one's artifact at its hashed path. The stored full key must
    // not match, so the registry rebuilds instead of serving the wrong model.
    rom::Registry second(opt);
    std::filesystem::copy_file(first.artifact_path("key-one"),
                               second.artifact_path("key-two"));
    (void)second.get_or_build("key-two", builder);
    EXPECT_EQ(builder_runs, 2);
    const rom::RegistryStats stats = second.stats();
    EXPECT_EQ(stats.disk_hits, 0);
    EXPECT_EQ(stats.disk_errors, 1);
    EXPECT_EQ(stats.builds, 1);
    std::filesystem::remove_all(dir);
}

TEST(RomRegistry, TrailingBytesBehindAValidChecksumAreRebuiltNotServed) {
    // An entry whose payload carries extra bytes behind a complete model,
    // re-framed so the envelope checksum is valid: the disk tier must treat
    // it exactly like deserialize_model does (corrupt), rebuild and
    // overwrite, never serve it.
    const std::string dir = temp_dir("trailing");
    rom::RegistryOptions opt;
    opt.artifact_dir = dir;
    int builder_runs = 0;
    const auto builder = [&] {
        ++builder_runs;
        return build_model(8);
    };
    const std::string path = rom::Registry(opt).artifact_path("model-t");
    {
        rom::Registry first(opt);
        (void)first.get_or_build("model-t", builder);
    }
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    const std::string padded = rom::frame(rom::unframe(bytes) + std::string(16, '\x5a'));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(padded.data(), static_cast<std::streamsize>(padded.size()));
    }

    rom::Registry second(opt);
    (void)second.get_or_build("model-t", builder);
    EXPECT_EQ(builder_runs, 2);
    const rom::RegistryStats stats = second.stats();
    EXPECT_EQ(stats.disk_hits, 0);
    EXPECT_EQ(stats.disk_errors, 1);
    EXPECT_EQ(stats.builds, 1);
    // The rebuilt entry overwrote the padded one and loads cleanly.
    rom::Registry third(opt);
    (void)third.get_or_build("model-t", builder);
    EXPECT_EQ(builder_runs, 2);
    EXPECT_EQ(third.stats().disk_hits, 1);
    std::filesystem::remove_all(dir);
}

TEST(RomRegistry, BuilderExceptionPropagatesAndLeavesNoEntry) {
    rom::Registry registry;
    int attempts = 0;
    const auto failing = [&]() -> rom::ReducedModel {
        ++attempts;
        throw std::runtime_error("reduction exploded");
    };
    EXPECT_THROW((void)registry.get_or_build("model-f", failing), std::runtime_error);
    EXPECT_EQ(registry.cached("model-f"), nullptr);
    // The key is retryable: a later good build succeeds.
    const auto model = registry.get_or_build("model-f", [&] { return build_model(6); });
    EXPECT_NE(model, nullptr);
    EXPECT_EQ(attempts, 1);
}

}  // namespace
}  // namespace atmor
