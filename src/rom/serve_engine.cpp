#include "rom/serve_engine.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "rom/io.hpp"
#include "rom/reduced_model.hpp"
#include "util/check.hpp"
#include "util/key_format.hpp"
#include "util/timer.hpp"

namespace atmor::rom {

namespace {

/// Serving backends get a deeper factorisation cache than the library
/// default: a hot model is probed at many grid shifts and all of them should
/// replay across queries.
constexpr std::size_t kServeCacheSlots = 64;

/// Bound on distinct transient configurations whose warm Newton
/// factorisations a model keeps alive simultaneously.
constexpr std::size_t kMaxWarmStarts = 8;

void accumulate(la::SolverStats& acc, const la::SolverStats& s) {
    acc.factorizations += s.factorizations;
    acc.cache_misses += s.cache_misses;
    acc.cache_hits += s.cache_hits;
    acc.solves += s.solves;
    acc.max_factor_dim = std::max(acc.max_factor_dim, s.max_factor_dim);
}

/// acc += v, relaxed (C++17 atomics have no floating-point fetch_add).
void add_relaxed(std::atomic<double>& acc, double v) {
    double cur = acc.load(std::memory_order_relaxed);
    while (!acc.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
}

/// acc = max(acc, v), relaxed.
void max_relaxed(std::atomic<double>& acc, double v) {
    double cur = acc.load(std::memory_order_relaxed);
    while (cur < v && !acc.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/// What a request against a hosted family is served under: the host's
/// registered defaults (a request cannot carry the fallback hooks), the
/// request's tolerance when it sets one, and no fallback build when the
/// request disallows it.
ParametricOptions request_options(ParametricOptions opt, double tol, bool allow_fallback) {
    if (tol > 0.0) opt.tol = tol;
    if (!allow_fallback) opt.fallback_build = nullptr;
    return opt;
}

/// The build-time accuracy contract a model's provenance records.
ErrorCertificate certificate_of(const ReducedModel& m) {
    ErrorCertificate cert;
    cert.method = m.provenance.method;
    cert.tol = m.provenance.tol;
    cert.band_min = m.provenance.band_min;
    cert.band_max = m.provenance.band_max;
    cert.estimated_error = m.provenance.estimated_error;
    cert.expansion_points = static_cast<int>(m.provenance.expansion_points.size());
    cert.order = m.order;
    return cert;
}

}  // namespace

ServeEngine::ServeEngine(std::shared_ptr<Registry> registry, ServeOptions opt)
    : registry_(std::move(registry)),
      opt_(opt),
      shard_capacity_(std::max<std::size_t>(1, opt.max_model_states / kShardCount)) {
    ATMOR_REQUIRE(registry_ != nullptr, "ServeEngine: null registry");
    ATMOR_REQUIRE(opt_.max_model_states >= 1, "ServeEngine: need at least one model state");
}

ServeEngine::Shard& ServeEngine::shard_for(const std::string& key) {
    return shards_[fnv1a(key.data(), key.size()) & (kShardCount - 1)];
}

std::shared_ptr<ServeEngine::ModelState> ServeEngine::make_state(
    std::shared_ptr<const ReducedModel> model) {
    auto st = std::make_shared<ModelState>();
    st->model = std::move(model);
    // Sweeps take the resolvent backend (one Schur pass per dense Galerkin
    // ROM, then a triangular backsolve per grid shift), transients the
    // factor-and-solve one.
    const la::LinearOperator& g1 = st->model->rom.g1_op();
    st->evaluator = std::make_shared<volterra::TransferEvaluator>(
        st->model->rom, la::make_resolvent_backend(g1, kServeCacheSlots));
    st->transient_backend = la::make_default_backend(g1, kServeCacheSlots);
    return st;
}

void ServeEngine::bound_shard_locked(Shard& shard, const std::string& keep_key) {
    while (shard.states.size() > shard_capacity_) {
        auto victim = shard.states.end();
        for (auto it = shard.states.begin(); it != shard.states.end(); ++it) {
            if (it->first == keep_key) continue;
            if (victim == shard.states.end() ||
                it->second->last_used < victim->second->last_used)
                victim = it;
        }
        if (victim == shard.states.end()) break;
        accumulate(shard.evicted_solver, victim->second->evaluator->backend()->stats());
        accumulate(shard.evicted_solver, victim->second->transient_backend->stats());
        shard.states.erase(victim);
    }
}

std::shared_ptr<ServeEngine::ModelState> ServeEngine::keyed_state(
    const std::string& key, const std::function<std::shared_ptr<const ReducedModel>()>& load) {
    Shard& shard = shard_for(key);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.states.find(key);
        if (it != shard.states.end()) {
            it->second->last_used = state_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
            return it->second;
        }
    }
    // The load (a registry resolution, perhaps a cold build, or a file
    // read) and the state construction run outside the lock: a slow build
    // must not stall warm serves of other models in the shard.
    std::shared_ptr<ModelState> fresh = make_state(load());
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::shared_ptr<ModelState>& st = shard.states[key];
    if (!st) st = std::move(fresh);
    st->last_used = state_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::shared_ptr<ModelState> out = st;  // st invalidates if eviction rehashes
    bound_shard_locked(shard, key);
    return out;
}

std::shared_ptr<ServeEngine::ModelState> ServeEngine::member_state(
    const std::string& family_id, int member, std::shared_ptr<const FamilyMember> fm) {
    const std::string key = "family:" + family_id + "#" + std::to_string(member) + ":" +
                            std::to_string(fm->model.provenance.basis_hash);
    // The state aliases the artifact's cached member instead of copying it.
    return keyed_state(key, [&fm] {
        return std::shared_ptr<const ReducedModel>(fm, &fm->model);
    });
}

std::vector<la::ZMatrix> ServeEngine::coalesced_sweep(ModelState& st,
                                                      const std::vector<la::Complex>& grid) {
    SweepCoalescer& co = st.coalescer;
    {
        std::unique_lock<std::mutex> lock(co.mutex);
        if (co.leader_active) {
            // Another request's sweep on this model is collecting or in
            // flight: park on its batch. The leader evaluates our points in
            // its next round and fulfills the promise (or propagates the
            // round's exception).
            auto waiter = std::make_unique<SweepWaiter>();
            waiter->grid = &grid;
            std::future<std::vector<la::ZMatrix>> answer = waiter->promise.get_future();
            co.pending.push_back(std::move(waiter));
            lock.unlock();
            counters_.coalesced_queries.fetch_add(1, std::memory_order_relaxed);
            return answer.get();
        }
        co.leader_active = true;
    }

    std::vector<la::ZMatrix> own;
    bool own_done = false;
    std::vector<std::unique_ptr<SweepWaiter>> batch;
    try {
        while (true) {
            {
                std::lock_guard<std::mutex> lock(co.mutex);
                batch.swap(co.pending);  // batch is empty here: swap = take all
                if (own_done && batch.empty()) {
                    co.leader_active = false;
                    break;
                }
            }
            // Union of the batch's distinct grid points, first-seen order.
            // Each point is evaluated ONCE and scattered to every request
            // that asked for it: a point's value is a pure function of its
            // shift, so the copy is bit-identical to evaluating that
            // request's grid alone.
            std::map<std::pair<double, double>, std::size_t> point_index;
            std::vector<la::Complex> unique;
            long requested = 0;
            const auto add_points = [&](const std::vector<la::Complex>& g) {
                requested += static_cast<long>(g.size());
                for (const la::Complex& s : g) {
                    const auto [it, fresh] =
                        point_index.emplace(std::make_pair(s.real(), s.imag()), unique.size());
                    (void)it;
                    if (fresh) unique.push_back(s);
                }
            };
            if (!own_done) add_points(grid);
            for (const auto& w : batch) add_points(*w->grid);

            // One blocked multi-RHS sweep over the union (each point solves
            // all input columns in one factor pass; the grid fans out on the
            // global pool).
            const std::vector<la::ZMatrix> results = st.evaluator->output_h1_sweep(unique);

            const auto scatter = [&](const std::vector<la::Complex>& g) {
                std::vector<la::ZMatrix> out;
                out.reserve(g.size());
                for (const la::Complex& s : g)
                    out.push_back(
                        results[point_index.at(std::make_pair(s.real(), s.imag()))]);
                return out;
            };
            const int round_requests = (own_done ? 0 : 1) + static_cast<int>(batch.size());
            if (!own_done) {
                own = scatter(grid);
                own_done = true;
            }
            for (auto& w : batch) w->promise.set_value(scatter(*w->grid));
            batch.clear();

            if (round_requests > 1)
                counters_.coalesced_batches.fetch_add(1, std::memory_order_relaxed);
            counters_.deduped_points.fetch_add(requested - static_cast<long>(unique.size()),
                                               std::memory_order_relaxed);
        }
    } catch (...) {
        // Fail every parked request with this round's exception and resign
        // leadership (drain + resign under ONE lock hold, so a request
        // enqueueing afterwards finds no leader and serves itself).
        std::vector<std::unique_ptr<SweepWaiter>> orphans;
        {
            std::lock_guard<std::mutex> lock(co.mutex);
            orphans.swap(co.pending);
            co.leader_active = false;
        }
        const std::exception_ptr err = std::current_exception();
        for (auto& w : batch) w->promise.set_exception(err);
        for (auto& w : orphans) w->promise.set_exception(err);
        throw;
    }
    return own;
}

ServeResponse ServeEngine::serve_point(const FamilyArtifact& family, const pmor::Point& coords,
                                       const std::vector<la::Complex>& grid,
                                       const ParametricOptions& opt) {
    ATMOR_REQUIRE(!grid.empty(), "ServeEngine: parametric_query: empty frequency grid");
    ATMOR_REQUIRE(family.member_count() > 0, "ServeEngine: parametric_query: family is empty");
    const pmor::ParamSpace& space = family.space();
    space.require_inside(coords, "ServeEngine: parametric_query");
    const double tol = opt.tol > 0.0 ? opt.tol : family.tol();
    ATMOR_REQUIRE(tol > 0.0, "ServeEngine: parametric_query: no tolerance (family tol is 0)");
    util::Timer timer;
    ServeResponse ans;

    // The artifact reader validated every cell's member references at open.
    const int cell_index = family.locate(coords);
    const CoverageCell* cell =
        cell_index >= 0 ? &family.cells()[static_cast<std::size_t>(cell_index)] : nullptr;

    if (cell && cell->best >= 0 && cell->best_error <= tol) {
        // -- Certified member path. ----------------------------------------
        ans.member = cell->best;
        const std::shared_ptr<const FamilyMember> best = family.member(cell->best);
        ans.response = coalesced_sweep(*member_state(family.family_id(), cell->best, best), grid);
        // The served contract: the member's band/method provenance with the
        // coverage cell's certified cross error (>= the member's own
        // build-time estimate) and the tolerance actually enforced.
        ans.certificate = certificate_of(best->model);
        ans.certificate.tol = tol;
        ans.certificate.estimated_error = cell->best_error;
    } else {
        // -- Rejection path: no member certifies under tol. ----------------
        ATMOR_REQUIRE(static_cast<bool>(opt.fallback_build),
                      "ServeEngine: parametric_query: no family member certifies point ["
                          << space.key(coords) << "] under tol " << tol
                          << " and no fallback_build was provided");
        // The default key is tolerance-tagged: a later query at the same
        // point demanding a TIGHTER accuracy must not silently reuse a
        // looser cached fallback model.
        const std::string key =
            opt.fallback_key ? opt.fallback_key(coords)
                             : "family:" + family.family_id() + "@" + space.key(coords) +
                                   "|fallback(tol=" + util::key_num(tol) + ")";
        // The registry (single flight, disk tier) runs the build outside
        // every engine lock, so a slow fallback never blocks warm member
        // serves.
        const std::shared_ptr<ModelState> st = keyed_state(key, [&] {
            return registry_->get_or_build(key, [&] { return opt.fallback_build(coords); });
        });
        ans.fallback = true;
        ans.response = coalesced_sweep(*st, grid);
        ans.certificate = certificate_of(*st->model);
    }

    // Parametric traffic is accounted by its own counters, not the keyed
    // frequency_queries/points pair; note_query still aggregates the
    // latency fields.
    note_query(timer.seconds(), -1, -1);
    counters_.parametric_queries.fetch_add(1, std::memory_order_relaxed);
    if (ans.fallback) counters_.parametric_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return ans;
}

std::vector<ode::TransientResult> ServeEngine::run_transient_batch(
    ModelState& stref, const std::vector<ode::InputFn>& inputs,
    const ode::TransientOptions& opt) {
    ModelState* st = &stref;
    util::Timer timer;
    ode::TransientOptions o = opt;
    o.backend = st->transient_backend;

    // Stamp the warm Newton factorisation once per (model, t_end, dt); every
    // later batch with that configuration replays it, and clients
    // alternating configurations each keep theirs. Stamped at the zero
    // state/input (the rest state every deviation model starts from), so it
    // is batch-content independent; a waveform that drives Newton off the
    // linearisation refactors privately inside the integrator.
    // A NaN horizon would break the ordering of the cache's keys, so it is
    // rejected before the lookup; make_warm_start rejects every other bad
    // horizon before an entry is evicted.
    ATMOR_REQUIRE(!std::isnan(o.t_end) && !std::isnan(o.dt),
                  "transient: NaN t_end or dt (t_end = " << o.t_end << ", dt = " << o.dt << ")");
    ode::WarmStart warm;
    {
        const auto config = std::make_pair(o.t_end, o.dt);
        std::lock_guard<std::mutex> lock(st->warm_mutex);
        auto it = st->warm.find(config);
        if (it == st->warm.end()) {
            ode::WarmStart stamped = ode::make_warm_start(st->model->rom, o);
            if (st->warm.size() >= kMaxWarmStarts) {
                auto victim = st->warm.begin();
                for (auto cand = st->warm.begin(); cand != st->warm.end(); ++cand)
                    if (cand->second.second < victim->second.second) victim = cand;
                st->warm.erase(victim);
            }
            it = st->warm.emplace(config, std::make_pair(std::move(stamped), std::uint64_t{0}))
                     .first;
        }
        it->second.second = ++st->warm_tick;
        warm = it->second.first;
    }

    std::vector<ode::TransientResult> out = ode::simulate_batch(st->model->rom, inputs, o, warm);
    note_query(timer.seconds(), -1, static_cast<long>(inputs.size()));
    return out;
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

std::shared_ptr<ServeEngine::ModelState> ServeEngine::resolve(const ModelRef& ref) {
    // Keyed and spec refs ask the registry (single flight, disk tier) only
    // when the engine holds no state for the key; a held state keeps its
    // model, factor caches and warm starts past registry eviction.
    switch (ref.kind) {
        case ModelRef::Kind::registry_key: {
            // Resolvable only from the registry's memory/disk tiers. The
            // probe builder turns a full miss into a typed UnresolvedError
            // instead of a silent rebuild of nothing.
            const std::string& key = ref.key;
            return keyed_state(key, [&] {
                return registry_->get_or_build(key, [&key]() -> ReducedModel {
                    throw UnresolvedError("ServeEngine: registry key '" + key +
                                          "' resolves to no cached model or artifact and "
                                          "the request carries no build recipe");
                });
            });
        }
        case ModelRef::Kind::artifact_path: {
            // Served from the file itself, never through the registry (whose
            // disk tier would keep a copy that outlives a replaced file).
            // The state is keyed on the file's identity, read by one stat()
            // per request: save_model publishes by rename, so a replaced
            // file has a new inode and loads afresh, while an unchanged one
            // loads once. IoError (missing/damaged artifact) propagates
            // typed.
            const std::string& path = ref.path;
            struct stat st{};
            if (::stat(path.c_str(), &st) != 0)
                throw IoError(IoErrorKind::open_failed,
                              "ServeEngine: cannot open artifact " + path);
            const std::string key = ref.cache_key() + "@" + std::to_string(st.st_dev) + ":" +
                                    std::to_string(st.st_ino) + ":" +
                                    std::to_string(st.st_size) + ":" +
                                    std::to_string(st.st_mtim.tv_sec) + "." +
                                    std::to_string(st.st_mtim.tv_nsec);
            return keyed_state(key, [&path] {
                return std::make_shared<const ReducedModel>(load_model(path));
            });
        }
        case ModelRef::Kind::build_spec: {
            SpecResolver resolver;
            {
                std::lock_guard<std::mutex> lock(catalog_mutex_);
                resolver = spec_resolver_;
            }
            if (!resolver)
                throw UnresolvedError("ServeEngine: request names build spec '" +
                                      ref.spec.key() +
                                      "' but no spec resolver is registered");
            const std::string key = ref.cache_key();
            return keyed_state(key, [&] {
                return registry_->get_or_build(key, [&] { return resolver(ref.spec); });
            });
        }
    }
    ATMOR_CHECK(false, "ServeEngine::resolve: unknown ModelRef kind");
    return nullptr;
}

void ServeEngine::set_spec_resolver(SpecResolver resolver) {
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    spec_resolver_ = std::move(resolver);
}

void ServeEngine::host_family(FamilyArtifact family, ParametricOptions defaults) {
    std::string id = family.family_id();
    HostedFamily hf{std::move(family), std::move(defaults)};
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    hosted_.insert_or_assign(std::move(id), std::move(hf));
}

ServeEngine::HostedFamily ServeEngine::hosted_family(const std::string& family_id) {
    {
        std::lock_guard<std::mutex> lock(catalog_mutex_);
        auto it = hosted_.find(family_id);
        if (it != hosted_.end()) return it->second;
    }
    // Fall through to the registry's family-artifact tier; the mapped
    // artifact joins the catalog (default options: no server-side fallback)
    // so the mmap + directory verification happens once per family.
    try {
        HostedFamily hf{registry_->open_family(family_id), ParametricOptions{}};
        std::lock_guard<std::mutex> lock(catalog_mutex_);
        auto [it, fresh] = hosted_.emplace(family_id, std::move(hf));
        (void)fresh;  // a racing host_family won: serve what it registered
        return it->second;
    } catch (const IoError& err) {
        if (err.kind() == IoErrorKind::open_failed)
            throw UnresolvedError("ServeEngine: family '" + family_id +
                                  "' is neither hosted nor in the registry's artifact "
                                  "tier");
        throw;  // a damaged artifact stays a typed io error
    }
}

ServeResponse ServeEngine::dispatch(const ServeRequest& req) {
    ServeResponse resp;
    switch (req.kind()) {
        case RequestKind::frequency_sweep: {
            const auto& body = std::get<FrequencySweepRequest>(req.body);
            ATMOR_REQUIRE(!body.grid.empty(),
                          "ServeEngine: frequency_sweep: empty frequency grid");
            const std::shared_ptr<ModelState> st = resolve(body.model);
            util::Timer timer;
            resp.response = coalesced_sweep(*st, body.grid);
            note_query(timer.seconds(), static_cast<long>(body.grid.size()), -1);
            resp.certificate = certificate_of(*st->model);
            break;
        }
        case RequestKind::transient_batch: {
            const auto& body = std::get<TransientBatchRequest>(req.body);
            // raw_inputs (the in-process closure path) wins; wire requests
            // carry WaveformSpecs and instantiate here.
            std::vector<ode::InputFn> inputs = body.raw_inputs;
            if (inputs.empty()) {
                inputs.reserve(body.inputs.size());
                for (const WaveformSpec& spec : body.inputs)
                    inputs.push_back(spec.instantiate());
            }
            ATMOR_REQUIRE(!inputs.empty(),
                          "ServeEngine: transient_batch: empty waveform batch");
            const std::shared_ptr<ModelState> st = resolve(body.model);
            resp.transients = run_transient_batch(*st, inputs, body.options.to_options());
            resp.certificate = certificate_of(*st->model);
            break;
        }
        case RequestKind::parametric_query: {
            const auto& body = std::get<ParametricQueryRequest>(req.body);
            const HostedFamily hf = hosted_family(body.family_id);
            resp = serve_point(hf.artifact, body.coords, body.grid,
                               request_options(hf.defaults, body.tol, body.allow_fallback));
            break;
        }
        case RequestKind::parametric_batch: {
            const auto& body = std::get<ParametricBatchRequest>(req.body);
            ATMOR_REQUIRE(!body.coords.empty(),
                          "ServeEngine: parametric_batch: empty point batch");
            const HostedFamily hf = hosted_family(body.family_id);
            const ParametricOptions opt =
                request_options(hf.defaults, body.tol, body.allow_fallback);
            resp.response.reserve(body.coords.size() * body.grid.size());
            resp.batch_member.reserve(body.coords.size());
            resp.batch_error.reserve(body.coords.size());
            resp.batch_fallback.reserve(body.coords.size());
            double worst = -1.0;
            for (const pmor::Point& p : body.coords) {
                ServeResponse ans = serve_point(hf.artifact, p, body.grid, opt);
                for (la::ZMatrix& m : ans.response) resp.response.push_back(std::move(m));
                resp.batch_member.push_back(ans.member);
                resp.batch_error.push_back(ans.certificate.estimated_error);
                resp.batch_fallback.push_back(ans.fallback ? 1 : 0);
                // The batch certificate is the WORST point's: a client
                // checking one certificate against tol gets the
                // conservative answer for the whole batch.
                if (ans.certificate.estimated_error > worst) {
                    worst = ans.certificate.estimated_error;
                    resp.certificate = std::move(ans.certificate);
                }
            }
            break;
        }
        case RequestKind::certificate: {
            const auto& body = std::get<CertificateRequest>(req.body);
            resp.certificate = certificate_of(*resolve(body.model)->model);
            counters_.certificate_queries.fetch_add(1, std::memory_order_relaxed);
            break;
        }
    }
    resp.kind = req.kind();
    return resp;
}

ServeResponse ServeEngine::serve(const ServeRequest& req) {
    const auto fail = [&req](util::ErrorCode code, const char* what) {
        ServeResponse resp;
        resp.kind = req.kind();
        resp.error.code = code;
        resp.error.message = what;
        return resp;
    };
    // Order matters: UnresolvedError IS-A PreconditionError, IoError and
    // InternalError are std::runtime_error.
    try {
        return dispatch(req);
    } catch (const UnresolvedError& e) {
        return fail(util::ErrorCode::serve_unresolved, e.what());
    } catch (const IoError& e) {
        return fail(error_code(e.kind()), e.what());
    } catch (const util::PreconditionError& e) {
        return fail(util::ErrorCode::precondition, e.what());
    } catch (const std::exception& e) {
        return fail(util::ErrorCode::internal, e.what());
    }
}

void ServeEngine::note_query(double seconds, long freq_points, long waveforms) {
    if (freq_points >= 0) {
        counters_.frequency_queries.fetch_add(1, std::memory_order_relaxed);
        counters_.frequency_points.fetch_add(freq_points, std::memory_order_relaxed);
    }
    if (waveforms >= 0) {
        counters_.transient_queries.fetch_add(1, std::memory_order_relaxed);
        counters_.transient_waveforms.fetch_add(waveforms, std::memory_order_relaxed);
    }
    add_relaxed(counters_.busy_seconds, seconds);
    max_relaxed(counters_.max_query_seconds, seconds);
}

ServeStats ServeEngine::stats() const {
    ServeStats s;
    s.frequency_queries = counters_.frequency_queries.load(std::memory_order_relaxed);
    s.frequency_points = counters_.frequency_points.load(std::memory_order_relaxed);
    s.transient_queries = counters_.transient_queries.load(std::memory_order_relaxed);
    s.transient_waveforms = counters_.transient_waveforms.load(std::memory_order_relaxed);
    s.certificate_queries = counters_.certificate_queries.load(std::memory_order_relaxed);
    s.parametric_queries = counters_.parametric_queries.load(std::memory_order_relaxed);
    s.parametric_fallbacks = counters_.parametric_fallbacks.load(std::memory_order_relaxed);
    s.coalesced_queries = counters_.coalesced_queries.load(std::memory_order_relaxed);
    s.coalesced_batches = counters_.coalesced_batches.load(std::memory_order_relaxed);
    s.deduped_points = counters_.deduped_points.load(std::memory_order_relaxed);
    s.busy_seconds = counters_.busy_seconds.load(std::memory_order_relaxed);
    s.max_query_seconds = counters_.max_query_seconds.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        accumulate(s.solver, shard.evicted_solver);
        for (const auto& [key, st] : shard.states) {
            (void)key;
            accumulate(s.solver, st->evaluator->backend()->stats());
            accumulate(s.solver, st->transient_backend->stats());
        }
    }
    s.registry = registry_->stats();
    return s;
}

}  // namespace atmor::rom
