// Thread-safe reduced-model store: reduce once, serve everyone.
//
// Keys are stable strings composed from (circuit id, parameters, reduction
// options) -- circuits::*Options::key() provides the circuit part. Lookup
// tiers, cheapest first:
//   1. in-memory LRU of live ReducedModel handles (bounded; eviction only
//      drops the memory slot, outstanding shared_ptrs stay valid),
//   2. on-disk artifact directory (optional): rom::io-framed entries that
//      store the FULL key ahead of the model. Files are NAMED by the FNV-1a
//      hash of the key, but a load is only accepted when the stored key
//      matches -- hash collisions and foreign files rebuild instead of
//      serving the wrong model,
//   3. the caller-supplied builder (the expensive offline reduction).
// Concurrent get_or_build calls for the SAME key are single-flight: exactly
// one caller runs the builder, the rest block on its shared_future and
// receive the same handle (pinned by test_rom_registry). Distinct keys build
// concurrently.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "rom/family_artifact.hpp"
#include "rom/reduced_model.hpp"

namespace atmor::rom {

struct RegistryOptions {
    /// Bound on live in-memory models (LRU eviction past it).
    std::size_t max_memory_models = 8;
    /// Artifact directory for the disk tier; empty disables it. Created on
    /// construction when missing.
    std::string artifact_dir;
};

struct RegistryStats {
    long lookups = 0;      ///< get_or_build calls
    long memory_hits = 0;  ///< served from the LRU tier
    long coalesced = 0;    ///< joined another caller's in-flight build
    long disk_hits = 0;    ///< loaded from the artifact tier
    long builds = 0;       ///< builder invocations (the expensive path)
    long evictions = 0;    ///< LRU slots reclaimed
    long disk_errors = 0;  ///< unreadable/corrupt artifacts (fell back to build)
    // -- Family artifact tier. ------------------------------------------------
    long family_loads = 0;  ///< open_family calls that mapped an artifact
};

class Registry {
public:
    using Builder = std::function<ReducedModel()>;

    explicit Registry(RegistryOptions opt = {});

    /// The model for `key`, from the cheapest tier that has it; on a full
    /// miss, runs `build` exactly once across all concurrent callers and
    /// (when the disk tier is enabled) persists the artifact. A builder
    /// exception propagates to every waiting caller and leaves no entry
    /// behind, so the next lookup retries.
    [[nodiscard]] std::shared_ptr<const ReducedModel> get_or_build(const std::string& key,
                                                                   const Builder& build);

    /// Memory-tier peek (no disk probe, no build, no LRU touch); nullptr
    /// when not resident.
    [[nodiscard]] std::shared_ptr<const ReducedModel> cached(const std::string& key) const;

    /// Artifact path for `key` (empty string when the disk tier is off).
    [[nodiscard]] std::string artifact_path(const std::string& key) const;

    /// Sectioned family artifact path for `family_id` (empty when the disk
    /// tier is off): where rom::save_family_artifact must write a family for
    /// open_family to find it.
    [[nodiscard]] std::string family_artifact_path(const std::string& family_id) const;

    /// mmap the family artifact saved under `family_id` (lazy member
    /// materialization; see rom::FamilyArtifact). Typed IoError on a
    /// missing/damaged artifact or a disabled disk tier.
    [[nodiscard]] FamilyArtifact open_family(const std::string& family_id);

    /// Per-field consistent snapshot (each field one relaxed atomic load);
    /// takes no lock, so stats polling never contends with lookups or an
    /// in-flight build.
    [[nodiscard]] RegistryStats stats() const;
    [[nodiscard]] std::size_t memory_count() const;
    [[nodiscard]] const RegistryOptions& options() const { return opt_; }

private:
    using ModelPtr = std::shared_ptr<const ReducedModel>;

    /// Insert into the LRU front, evicting past capacity. Caller holds mutex_.
    void insert_locked(const std::string& key, ModelPtr model);

    /// Relaxed-atomic counters behind the RegistryStats snapshot. Lock-free
    /// on purpose: the flight leader bumps disk_hits/builds/disk_errors from
    /// the MIDDLE of a cold build, and with plain counters those bumps would
    /// reacquire mutex_ and stall warm lookups behind a build in progress.
    struct AtomicStats {
        std::atomic<long> lookups{0};
        std::atomic<long> memory_hits{0};
        std::atomic<long> coalesced{0};
        std::atomic<long> disk_hits{0};
        std::atomic<long> builds{0};
        std::atomic<long> evictions{0};
        std::atomic<long> disk_errors{0};
        std::atomic<long> family_loads{0};
    };

    RegistryOptions opt_;

    mutable std::mutex mutex_;
    // LRU list front = most recent; slots_ indexes it by key.
    std::list<std::pair<std::string, ModelPtr>> lru_;
    std::unordered_map<std::string, std::list<std::pair<std::string, ModelPtr>>::iterator>
        slots_;
    std::unordered_map<std::string, std::shared_future<ModelPtr>> inflight_;
    AtomicStats stats_;  // lock-free; snapshot via stats()
};

}  // namespace atmor::rom
