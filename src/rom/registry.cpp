#include "rom/registry.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

#include "rom/io.hpp"
#include "util/check.hpp"

namespace atmor::rom {

namespace {

/// `<dir>/<16 lowercase hex digits of hash><ext>`: how the registry names
/// its model and family artifacts.
std::string hashed_path(const std::string& dir, std::uint64_t hash, const char* ext) {
    std::string name(16, '0');
    for (int i = 15; i >= 0; --i) {
        name[static_cast<std::size_t>(i)] = "0123456789abcdef"[hash & 0xf];
        hash >>= 4;
    }
    return (std::filesystem::path(dir) / (name + ext)).string();
}

// The registry's artifact payload is the FULL key followed by the model, so
// a load is accepted only when the stored key matches the requested one --
// a filename-hash collision or a foreign/stale file at the hashed name is
// detected and rebuilt instead of silently serving the wrong model.

void save_entry(const std::string& key, const ReducedModel& model, const std::string& path) {
    Writer w;
    w.kind(PayloadKind::registry_entry);
    w.str(key);
    w.model(model);
    write_file_atomically(frame(w.bytes()), path);
}

ReducedModel load_entry(const std::string& key, const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError(IoErrorKind::open_failed, "registry: cannot read " + path);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const std::string payload = unframe(bytes);
    Reader r(payload);
    r.expect_kind(PayloadKind::registry_entry);
    const std::string stored_key = r.str();
    if (stored_key != key)
        throw IoError(IoErrorKind::corrupt, "registry: artifact at " + path + " stores key \"" +
                                                stored_key + "\", not \"" + key + "\"");
    ReducedModel model = r.model();
    if (!r.at_end())
        throw IoError(IoErrorKind::corrupt,
                      "registry: trailing bytes after the entry payload at " + path);
    return model;
}

}  // namespace

Registry::Registry(RegistryOptions opt) : opt_(std::move(opt)) {
    ATMOR_REQUIRE(opt_.max_memory_models >= 1, "Registry: need at least one memory slot");
    if (!opt_.artifact_dir.empty()) std::filesystem::create_directories(opt_.artifact_dir);
}

std::string Registry::artifact_path(const std::string& key) const {
    if (opt_.artifact_dir.empty()) return {};
    return hashed_path(opt_.artifact_dir, fnv1a(key.data(), key.size()), kArtifactExtension);
}

std::string Registry::family_artifact_path(const std::string& family_id) const {
    if (opt_.artifact_dir.empty()) return {};
    return hashed_path(opt_.artifact_dir, fnv1a(family_id.data(), family_id.size()),
                       kFamilyExtension);
}

FamilyArtifact Registry::open_family(const std::string& family_id) {
    const std::string path = family_artifact_path(family_id);
    if (path.empty())
        throw IoError(IoErrorKind::open_failed,
                      "registry: family artifacts require the disk tier (artifact_dir)");
    FamilyArtifact artifact = FamilyArtifact::open(path);
    stats_.family_loads.fetch_add(1, std::memory_order_relaxed);
    return artifact;
}

std::shared_ptr<const ReducedModel> Registry::cached(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    return it == slots_.end() ? nullptr : it->second->second;
}

void Registry::insert_locked(const std::string& key, ModelPtr model) {
    lru_.emplace_front(key, std::move(model));
    slots_[key] = lru_.begin();
    if (lru_.size() > opt_.max_memory_models) {
        slots_.erase(lru_.back().first);
        lru_.pop_back();
        stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    }
}

std::shared_ptr<const ReducedModel> Registry::get_or_build(const std::string& key,
                                                           const Builder& build) {
    ATMOR_REQUIRE(!key.empty(), "Registry::get_or_build: empty key");
    ATMOR_REQUIRE(static_cast<bool>(build), "Registry::get_or_build: null builder");
    std::promise<ModelPtr> promise;
    stats_.lookups.fetch_add(1, std::memory_order_relaxed);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto slot = slots_.find(key);
        if (slot != slots_.end()) {
            lru_.splice(lru_.begin(), lru_, slot->second);  // touch
            stats_.memory_hits.fetch_add(1, std::memory_order_relaxed);
            return slot->second->second;
        }
        auto flight = inflight_.find(key);
        if (flight != inflight_.end()) {
            std::shared_future<ModelPtr> future = flight->second;
            stats_.coalesced.fetch_add(1, std::memory_order_relaxed);
            lock.unlock();
            return future.get();  // rethrows the leader's builder exception
        }
        inflight_.emplace(key, promise.get_future().share());
    }

    // This caller is the flight leader: disk probe then build, outside the
    // lock so other keys proceed concurrently. The counter bumps along the
    // way are relaxed atomics on purpose -- taking mutex_ from the middle of
    // a minutes-long build would stall every warm lookup behind it.
    ModelPtr model;
    try {
        const std::string path = artifact_path(key);
        if (!path.empty() && std::filesystem::exists(path)) {
            try {
                model = std::make_shared<const ReducedModel>(load_entry(key, path));
                stats_.disk_hits.fetch_add(1, std::memory_order_relaxed);
            } catch (const IoError&) {
                // Damaged or wrong-key artifact: rebuild and overwrite below.
                stats_.disk_errors.fetch_add(1, std::memory_order_relaxed);
            }
        }
        if (!model) {
            model = std::make_shared<const ReducedModel>(build());
            stats_.builds.fetch_add(1, std::memory_order_relaxed);
            if (!path.empty()) {
                try {
                    save_entry(key, *model, path);
                } catch (const IoError&) {
                    // Serving must not fail because the artifact tier is
                    // unwritable; the model is still returned and cached.
                    stats_.disk_errors.fetch_add(1, std::memory_order_relaxed);
                }
            }
        }
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inflight_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        insert_locked(key, model);
        inflight_.erase(key);
    }
    promise.set_value(model);
    return model;
}

RegistryStats Registry::stats() const {
    RegistryStats s;
    s.lookups = stats_.lookups.load(std::memory_order_relaxed);
    s.memory_hits = stats_.memory_hits.load(std::memory_order_relaxed);
    s.coalesced = stats_.coalesced.load(std::memory_order_relaxed);
    s.disk_hits = stats_.disk_hits.load(std::memory_order_relaxed);
    s.builds = stats_.builds.load(std::memory_order_relaxed);
    s.evictions = stats_.evictions.load(std::memory_order_relaxed);
    s.disk_errors = stats_.disk_errors.load(std::memory_order_relaxed);
    s.family_loads = stats_.family_loads.load(std::memory_order_relaxed);
    return s;
}

std::size_t Registry::memory_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

}  // namespace atmor::rom
