// Shared vocabulary of the repo benchmark: the run context, operation
// accounting, the circuits it reduces, and the cold pipeline pass
// (stamp -> reduce or family-build -> check -> compress -> save -> an
// engine that has not seen the artifact opens it -> first wire answer)
// that every workload runs, as its timed loop (`build`) or as its set-up
// (`transient`, `wire`).
//
// The benchmark drives the library only through public entry points.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "core/atmor.hpp"
#include "measure.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "ode/transient.hpp"
#include "pmor/family_builder.hpp"
#include "rom/family_codec.hpp"
#include "rom/serve_api.hpp"
#include "rom/serve_engine.hpp"
#include "volterra/qldae.hpp"

namespace perfbench {

using namespace atmor;

/// Operations attempted and failed. A typed error, a refused request or a
/// wrong answer is a failed operation; the first few go to stderr.
class Ledger {
public:
    void ok() { attempted_.fetch_add(1); }
    void fail(const std::string& what);
    /// Count one operation; fail it with `what` unless `cond` holds.
    bool check(bool cond, const std::string& what) {
        if (cond)
            ok();
        else
            fail(what);
        return cond;
    }
    [[nodiscard]] long attempted() const { return attempted_.load(); }
    [[nodiscard]] long failed() const { return failed_.load(); }

private:
    std::atomic<long> attempted_{0};
    std::atomic<long> failed_{0};
    std::mutex mutex_;
    int reported_ = 0;  ///< guarded by mutex_
};

/// Ordered name -> (value, unit) record of everything a run measured.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] bool has(const std::string& name) const { return index_.count(name) != 0; }
    [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
    items() const {
        return items_;
    }

private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
    std::map<std::string, std::size_t> index_;
};

struct Ctx {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;  ///< stop after set-up (run.py's extra set-up samples)
    int threads = 1;
    std::string work_dir;  ///< temporary artifacts, removed when the run ends
    std::mt19937_64 rng;
    Tracer tracer;
    HostSpeed speed;  ///< sampled by the main thread between timed operations, on now_s()
    Ledger ledger;
    Metrics metrics;
};

/// Seconds on the steady clock.
double now_s();

/// A steal-free timer started with the process, where set-up starts.
StealFreeTimer process_timer();

/// Uniform draw in [lo, hi).
double uniform(std::mt19937_64& rng, double lo, double hi);

/// `n` points j*omega with omega uniform in [lo, hi).
std::vector<la::Complex> random_grid(std::mt19937_64& rng, int n, double lo, double hi);

/// `n` evenly spaced points j*omega over [lo, hi].
std::vector<la::Complex> band_grid(int n, double lo, double hi);

/// A seeded point drawn uniformly from the box of `space`.
pmor::Point random_point(std::mt19937_64& rng, const pmor::ParamSpace& space);

/// A parametric query against a hosted family. Fallback is off: a point no
/// member covers is a typed error, never a build.
rom::ServeRequest family_request(const std::string& family_id, pmor::Point coords,
                                 std::vector<la::Complex> grid);

// ---------------------------------------------------------------------------
// Circuits.
// ---------------------------------------------------------------------------

/// A drive for one paper circuit: one WaveformSpec per circuit input.
struct Wave {
    std::vector<rom::WaveformSpec> parts;
    [[nodiscard]] ode::InputFn instantiate() const;
};

/// One of the paper's three circuits as the benchmark reduces and drives it.
struct PaperCircuit {
    std::string name;                               ///< "nltl" | "varistor" | "rf"
    std::function<volterra::Qldae()> stamp;         ///< the full model
    core::AtMorOptions mor;                         ///< moment counts and points
    rom::TransientSpec transient;                   ///< integration settings
    double tol = 0.0;                               ///< allowed peak relative error
    std::function<Wave(const DriveDraw&)> draw;     ///< one seeded drive
};

/// NLTL current line (Fig. 3, k = 6/3/2), cubic varistor ladder (Fig. 5,
/// sized so its reduction takes about a second) and two-input RF receiver
/// (Fig. 4, k3 = 0).
const std::vector<PaperCircuit>& paper_circuits();

/// The 72x72 power-grid mesh family (n = 5192, sparse, k1-only members).
pmor::FamilyDesign mesh_design(const std::string& family_id);
pmor::FamilyBuildOptions mesh_options();

/// The small NLTL family the wire workload hosts for parametric queries.
pmor::FamilyDesign nltl_family_design(const std::string& family_id);
pmor::FamilyBuildOptions nltl_family_options();

// ---------------------------------------------------------------------------
// Serving.
// ---------------------------------------------------------------------------

/// A loopback daemon over its own engine, registry and artifact directory.
struct Host {
    std::string dir;
    std::shared_ptr<rom::ServeEngine> engine;
    std::unique_ptr<net::Daemon> daemon;

    Host(std::string artifact_dir, int workers);
    ~Host();
    Host(const Host&) = delete;
    Host& operator=(const Host&) = delete;
    /// Stop accepting, drain and join; returns the final daemon stats.
    net::DaemonStats stop();

private:
    bool stopped_ = false;
};

/// A fresh in-process engine over `dir` (the serial reference).
std::shared_ptr<rom::ServeEngine> make_engine(const std::string& dir);

/// One wire request with its encoded payload and the raw answer bytes.
struct WireCall {
    rom::ServeRequest request;
    std::string payload;
    std::string answer;   ///< raw response payload ("" when the call threw)
    std::string error;    ///< transport failure text
    long request_id = -1;
};

/// Send `call.payload` on `client`, recording the answer or the transport
/// failure (never throws).
void send(net::ServeClient& client, WireCall& call);

/// Family certification of a decoded parametric answer under `tol`.
bool certified(const rom::ServeResponse& resp, double tol);

// ---------------------------------------------------------------------------
// The cold pipeline pass.
// ---------------------------------------------------------------------------

struct Artifact {
    std::string name;       ///< circuit name, or "mesh"
    std::string path;
    std::string family_id;  ///< set for the mesh family
    double family_tol = 0.0;
    std::shared_ptr<rom::ReducedModel> model;  ///< ROM artifacts
    std::size_t bytes = 0;
};

/// What one pass measured.
struct PassResult {
    /// Per paper circuit: stamp -> saved, checked ROM artifact. This and
    /// family_s are steal-free wall seconds scaled to the reference host
    /// speed by the probe samples right around the item.
    std::vector<double> reduce_s;
    double family_s = 0.0;      ///< stamp -> saved, certified, compressed mesh family
    double stamp_s = 0.0;       ///< stamping the three paper circuits
    double core_reduce_s = 0.0; ///< core::reduce_associated calls alone
    double compress_s = 0.0;    ///< rom::compress_family
    double save_s = 0.0;        ///< rom::save_model + rom::save_family_artifact
    Samples first_answer_s;     ///< artifact on disk -> first verified wire answer
    double artifact_bytes = 0.0;
    std::vector<WireCall> calls;  ///< the first answers, for verification
    std::vector<Artifact> artifacts;
    std::vector<std::shared_ptr<volterra::Qldae>> fulls;  ///< stamped paper circuits
    la::SolverStats reduce_solver;  ///< resolvent backends of the paper reductions
    pmor::FamilyBuildStats family_stats;
};

/// Run one cold pass against `host`: every artifact name carries `tag` so
/// the host's engine has never seen it. Checks and wire verification are
/// booked on ctx.ledger.
PassResult cold_pass(Ctx& ctx, Host& host, const std::string& tag);

// ---------------------------------------------------------------------------
// Workloads and the traced per-layer probes.
// ---------------------------------------------------------------------------

void run_build(Ctx& ctx);
void run_transient(Ctx& ctx);
void run_wire(Ctx& ctx);

/// Check every first answer of every pass against a fresh serial in-process
/// engine (byte-identical), certify the family answers, then fold the
/// passes' cold metrics into ctx.metrics (medians over passes).
void verify_and_report(Ctx& ctx, const std::vector<PassResult>& passes);

/// The waveform rates every workload reports. Each round draws a batch of
/// kBatch stratified drives per paper circuit and runs each drive through
/// ServeEngine::serve (a transient request on the ROM artifact) and through
/// ode::simulate_batch on the full model, and checks every ROM trace
/// against its full trace. Each drive is its own request, so that every
/// transient is timed between two host speed probe samples and scaled by
/// them. The pool has one thread while rounds run, so a transient runs on
/// the calling thread and its thread CPU time is the whole cost.
class RateLoop {
public:
    /// Drives per circuit and round, one per stratum of each parameter.
    static constexpr int kBatch = 4;

    /// An in-process engine warmed on each of the pass's ROM artifacts.
    RateLoop(Ctx& ctx, const PassResult& pass);

    /// Rounds until at least `min_rounds` ran and `seconds` passed. A traced
    /// run traces every other round, for trace.overhead_frac.
    void run(int min_rounds, double seconds);

    /// Set rom_waveforms_per_s and full_waveforms_per_s, and when traced the
    /// ode and transient-batch per-layer metrics.
    void report() const;

    [[nodiscard]] const rom::ServeStats& base_stats() const { return base_; }
    [[nodiscard]] rom::ServeStats stats() const { return engine_->stats(); }
    [[nodiscard]] const Samples& traced_rounds() const { return traced_round_; }
    [[nodiscard]] const Samples& plain_rounds() const { return plain_round_; }

private:
    void round();

    Ctx& ctx_;
    const PassResult& pass_;
    std::shared_ptr<rom::ServeEngine> engine_;
    rom::ServeStats base_;
    /// Per circuit: seconds per waveform at the reference host speed.
    std::vector<Samples> rom_s_, full_s_;
    Samples batch_s_, full_batch_s_;  ///< raw CPU seconds per circuit's batch of drives
    Samples traced_round_, plain_round_;
    ode::TransientResult counters_;   ///< summed over the ROM traces
    long rounds_ = 0;
};

/// Layer probes on the workload's own models (traced runs only).
void probe_layers(Ctx& ctx, const PassResult& pass);

/// Span aggregates (per-layer self time) into ctx.metrics, and the span
/// file written when the run ends.
void report_spans(Ctx& ctx, const std::string& path);

}  // namespace perfbench
