// The online half of the offline/online split: batched queries against
// registry-resident reduced models, built to be hit from a POOL of request
// handler threads at once.
//
// A query never touches the full-order system. Frequency-response sweeps fan
// out across grid points on the global work-stealing ThreadPool through a
// per-model TransferEvaluator whose resolvent backend caches factorisations
// across queries (a repeated grid is pure cache hits). Transient batches ride
// ode::simulate_batch's warm-factorisation path, with the warm Newton
// Jacobian stamped ONCE per (model, horizon, step size) and replayed by every
// later batch.
//
// Concurrency model (the serving claims are counters, not eyeballs):
//  * Engine state is HASH-SHARDED: per-model ModelStates live in kShardCount
//    independently locked shards, so queries against different models never
//    contend on engine locks, and a query against one model contends only on
//    that model's warm structures. No query path takes a global engine lock.
//  * Query counters are relaxed atomics; stats() assembles a per-field
//    consistent snapshot (each field is a single atomic load -- never torn,
//    monotonic -- though fields incremented by in-flight queries may lag one
//    another by a query).
//  * Concurrent sweep requests against ONE model COALESCE: a request landing
//    while another request's sweep is in flight joins that leader's batch. The leader evaluates the
//    UNION of the batch's distinct grid points as one blocked multi-RHS
//    sweep and scatters per-request answers. Every grid point's value is a
//    pure function of its shift, so a coalesced answer is BIT-IDENTICAL to
//    serial per-query execution (pinned by test_serve_concurrent and the
//    bench_serve_load invariant checker), and shared points across requests
//    are evaluated once (deduped_points counts the wins).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "la/solver_backend.hpp"
#include "ode/transient.hpp"
#include "rom/family_artifact.hpp"
#include "rom/registry.hpp"
#include "rom/serve_api.hpp"
#include "volterra/transfer.hpp"

namespace atmor::rom {

struct ServeStats {
    long frequency_queries = 0;   ///< sweep queries answered
    long frequency_points = 0;    ///< grid points requested across them
    long transient_queries = 0;   ///< batch queries answered
    long transient_waveforms = 0; ///< waveforms integrated across them
    long certificate_queries = 0; ///< error-bound lookups answered
    long parametric_queries = 0;  ///< parametric points answered
    long parametric_fallbacks = 0; ///< routed to the on-demand build path
    // -- Cross-request coalescing. Every request is still accounted above
    // (frequency_points counts REQUESTED points), so coalescing never loses
    // or double-counts per-request stats; these measure how much work the
    // merge avoided.
    long coalesced_queries = 0;   ///< sweeps answered by joining another request's batch
    long coalesced_batches = 0;   ///< merged multi-request batches evaluated
    long deduped_points = 0;      ///< requested points served from a batch-mate's
                                  ///< identical point instead of a fresh solve
    double busy_seconds = 0.0;    ///< summed per-query wall time
    double max_query_seconds = 0.0;
    RegistryStats registry;       ///< model-resolution counters
    /// Aggregated over every per-model serving backend (frequency +
    /// transient). max_factor_dim is the load-bearing field: it must stay at
    /// reduced order while serving.
    la::SolverStats solver;
};

/// Engine-wide serving knobs.
struct ServeOptions {
    /// Bound on live per-model serving states across all shards: keyed
    /// models, family members and per-tolerance fallback builds all pin a
    /// model plus factorization caches, and parametric sweep traffic
    /// can mint distinct keys without limit. Evicted least-recently-used,
    /// per shard.
    std::size_t max_model_states = 128;
};

class ServeEngine {
public:
    /// Host-side realization of BuildSpec recipes (rom/serve_api.hpp): the
    /// catalog of builds the engine is willing to run for requests that name
    /// a spec instead of a key. Unset means every build_spec ModelRef is an
    /// UnresolvedError.
    using SpecResolver = std::function<ReducedModel(const BuildSpec&)>;

    explicit ServeEngine(std::shared_ptr<Registry> registry, ServeOptions opt = {});

    /// THE query API: dispatch a typed ServeRequest (the same type that
    /// crosses the wire) and return a ServeResponse that is NEVER a thrown
    /// exception -- failures come back as the typed error taxonomy of
    /// util/error_codes.hpp (UnresolvedError -> serve_unresolved, IoError by
    /// kind, PreconditionError -> precondition, anything else -> internal),
    /// so the daemon and in-process callers observe identical outcomes.
    ///
    /// Sweeps answer the output-mapped H1(grid[p]) of the reduced model in
    /// grid order (exactly TransferEvaluator::output_h1_sweep of the ROM --
    /// coalescing with concurrent requests never changes the bits), fanned
    /// out across grid points. Transient batches answer one waveform per
    /// input, all sharing the model's warm Newton factorisation (stamped on
    /// first use for the given horizon and step size, replayed afterwards).
    /// Parametric queries locate the point's training cell in the hosted
    /// family, serve the certifying member's sweep with the cell's
    /// offline-certified error as the certificate, or route to the host's
    /// fallback build when no member certifies under tolerance; members
    /// materialize only when a query routes to them. Empty grids and
    /// batches are typed precondition errors, never silent no-ops.
    [[nodiscard]] ServeResponse serve(const ServeRequest& req);

    /// Register the BuildSpec catalog. Thread-safe; replaces any previous
    /// resolver (requests in flight keep the one they started with).
    void set_spec_resolver(SpecResolver resolver);

    /// Host a family artifact for parametric queries that name it by
    /// family_id: the hosted catalog is probed before the registry's
    /// family-artifact tier. `defaults` supplies the server-side fallback
    /// hooks (and default tolerance), which a request cannot carry.
    void host_family(FamilyArtifact family, ParametricOptions defaults = {});

    /// Per-field consistent snapshot: every counter is one relaxed atomic
    /// load (never torn, monotonic across calls); the solver block
    /// aggregates each shard's live and evicted backend counters under that
    /// shard's lock only.
    [[nodiscard]] ServeStats stats() const;

    [[nodiscard]] const std::shared_ptr<Registry>& registry() const { return registry_; }
    [[nodiscard]] const ServeOptions& options() const { return opt_; }

private:
    /// A sweep request parked on another request's batch: the leader
    /// evaluates its grid and fulfills the promise (value or the batch's
    /// exception). The grid pointer stays valid because the owner blocks on
    /// the future until fulfilled.
    struct SweepWaiter {
        const std::vector<la::Complex>* grid = nullptr;
        std::promise<std::vector<la::ZMatrix>> promise;
    };

    /// Per-model batching stage for sweep requests. leader_active marks a
    /// request currently collecting/evaluating; later arrivals enqueue on
    /// pending and are served by the leader's next round. The mutex guards
    /// only the queue handoff -- never a solve.
    struct SweepCoalescer {
        std::mutex mutex;
        bool leader_active = false;  ///< guarded by mutex
        std::vector<std::unique_ptr<SweepWaiter>> pending;  ///< guarded by mutex
    };

    /// Per-model serving state: the evaluator + backends live as long as the
    /// state so factorisation caches and warm starts persist across queries
    /// (even past registry eviction: a held state never asks the registry
    /// again).
    struct ModelState {
        std::shared_ptr<const ReducedModel> model;
        std::shared_ptr<volterra::TransferEvaluator> evaluator;
        std::shared_ptr<la::SolverBackend> transient_backend;
        SweepCoalescer coalescer;  ///< batches concurrent sweeps on this model
        /// LRU tick for the shard bound: keyed, family-member and fallback
        /// states all pin a model plus factorization caches, so the
        /// engine cannot keep one per distinct key forever under parametric
        /// sweep traffic.
        std::uint64_t last_used = 0;
        std::mutex warm_mutex;  ///< guards the warm-start map below
        /// One warm Newton factorisation per (t_end, dt), so clients
        /// alternating horizons or step sizes each keep their replay.
        /// Bounded (kMaxWarmStarts in the .cpp) with least-recently-USED
        /// eviction via the tick, so a hot configuration is never the
        /// victim of colder ones.
        std::map<std::pair<double, double>, std::pair<ode::WarmStart, std::uint64_t>> warm;
        std::uint64_t warm_tick = 0;
    };

    /// One lock + state map per hash shard; queries on models in different
    /// shards share NO engine lock. evicted_solver accumulates the backend
    /// counters of evicted states so stats() stays monotonic.
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<std::string, std::shared_ptr<ModelState>> states;
        la::SolverStats evicted_solver;  ///< guarded by mutex
    };

    /// Relaxed-atomic query counters: every increment is lock-free, so the
    /// sharded hot path carries no counter lock traffic. Doubles are updated
    /// by CAS loops (C++17 atomics have no floating fetch_add).
    struct Counters {
        std::atomic<long> frequency_queries{0};
        std::atomic<long> frequency_points{0};
        std::atomic<long> transient_queries{0};
        std::atomic<long> transient_waveforms{0};
        std::atomic<long> certificate_queries{0};
        std::atomic<long> parametric_queries{0};
        std::atomic<long> parametric_fallbacks{0};
        std::atomic<long> coalesced_queries{0};
        std::atomic<long> coalesced_batches{0};
        std::atomic<long> deduped_points{0};
        std::atomic<double> busy_seconds{0.0};
        std::atomic<double> max_query_seconds{0.0};
    };

    static constexpr std::size_t kShardCount = 16;  // power of two (hash mask)

    [[nodiscard]] Shard& shard_for(const std::string& key);

    /// Evaluator + backend wiring for a resolved model (one wiring for every
    /// path, so they can never drift); called OUTSIDE any shard lock --
    /// construction copies the ROM into the evaluator and sizes caches.
    [[nodiscard]] static std::shared_ptr<ModelState> make_state(
        std::shared_ptr<const ReducedModel> model);

    /// THE engine-state path: the state cached under `key` in its shard, or
    /// on a miss one built over the model `load()` returns. The load (a
    /// registry resolution with any cold build behind it, a file read, or a
    /// family member) and the state construction run OUTSIDE every engine
    /// lock, so a slow build never blocks warm serves -- not even of models
    /// in the same shard; on a race the first insertion wins.
    [[nodiscard]] std::shared_ptr<ModelState> keyed_state(
        const std::string& key,
        const std::function<std::shared_ptr<const ReducedModel>()>& load);

    /// THE model-resolution path every ModelRef funnels through.
    /// registry_key refs load through the registry with a probe that throws
    /// UnresolvedError on a full miss; artifact_path refs load the file
    /// under "artifact:<path>@<file identity>"; build_spec refs load through
    /// the registry, running the registered SpecResolver on a miss, under
    /// the spec's stable key.
    [[nodiscard]] std::shared_ptr<ModelState> resolve(const ModelRef& ref);

    /// Throwing core behind serve(): dispatch on the request kind, fill the
    /// response payload and account the query in its per-kind counters.
    [[nodiscard]] ServeResponse dispatch(const ServeRequest& req);

    /// The transient serving core (warm-start lookup + batch run + counter
    /// accounting) against an already-resolved state.
    [[nodiscard]] std::vector<ode::TransientResult> run_transient_batch(
        ModelState& st, const std::vector<ode::InputFn>& inputs,
        const ode::TransientOptions& opt);

    /// The coalescing sweep path every output_h1 sweep goes through: become
    /// the model's batch leader (evaluating own + merged grids until the
    /// pending queue drains) or park on the active leader's batch.
    [[nodiscard]] std::vector<la::ZMatrix> coalesced_sweep(ModelState& st,
                                                           const std::vector<la::Complex>& grid);

    /// One parametric point against a hosted family: the routing, sweep and
    /// certificate of a parametric_query response (kind left unset).
    [[nodiscard]] ServeResponse serve_point(const FamilyArtifact& family,
                                            const pmor::Point& coords,
                                            const std::vector<la::Complex>& grid,
                                            const ParametricOptions& opt);

    /// Serving state for a family member (keyed_state over the member
    /// itself, no registry resolution); keyed by family id + member index +
    /// basis hash so a reloaded family with identical members reuses the
    /// caches.
    [[nodiscard]] std::shared_ptr<ModelState> member_state(
        const std::string& family_id, int member, std::shared_ptr<const FamilyMember> fm);

    void note_query(double seconds, long freq_points, long waveforms);

    /// Evict least-recently-used states past the shard's share of
    /// max_model_states (never `keep_key`); their solver counters fold into
    /// the shard's evicted_solver so stats() stays monotonic. Caller holds
    /// the shard mutex. Outstanding ModelState handles stay valid; a later
    /// query for an evicted key re-resolves and rebuilds.
    void bound_shard_locked(Shard& shard, const std::string& keep_key);

    /// A family in the hosted catalog: the artifact plus the server-side
    /// ParametricOptions applied to queries against it.
    struct HostedFamily {
        FamilyArtifact artifact;
        ParametricOptions defaults;
    };

    /// The hosted family for `family_id`: catalog first, then the registry's
    /// family-artifact tier (cached in the catalog so the mmap happens
    /// once). Throws UnresolvedError when neither has it.
    [[nodiscard]] HostedFamily hosted_family(const std::string& family_id);

    std::shared_ptr<Registry> registry_;
    ServeOptions opt_;
    std::size_t shard_capacity_;  ///< per-shard live-state bound
    std::array<Shard, kShardCount> shards_;
    std::atomic<std::uint64_t> state_tick_{0};
    Counters counters_;

    mutable std::mutex catalog_mutex_;  ///< guards the two members below
    std::unordered_map<std::string, HostedFamily> hosted_;
    SpecResolver spec_resolver_;
};

}  // namespace atmor::rom
