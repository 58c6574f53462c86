// The serving API: ONE typed request/response vocabulary shared by
// in-process callers (rom::ServeEngine::serve) and the wire (net::Daemon /
// net::ServeClient). Model resolution is a ModelRef (registry key, artifact
// path, or build spec, all daemon-resolvable), waveforms are typed
// WaveformSpec parameter records instead of closures, and every answer is a
// ServeResponse carrying payload + ErrorCertificate + a typed error with a
// stable numeric code (util/error_codes.hpp).
//
// Wire encoding reuses the rom::io Writer/Reader primitives, so doubles are
// raw 8-byte and a round-trip is BIT-EXACT: a daemon answer is byte-for-byte
// the in-process answer (pinned by test_serve_protocol / test_serve_daemon).
// encode_response leaves out the serving-local timing field (solve_seconds)
// so an encoded response is a pure function of the payload.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "la/matrix.hpp"
#include "ode/transient.hpp"
#include "pmor/param_space.hpp"
#include "rom/reduced_model.hpp"
#include "util/error_codes.hpp"

namespace atmor::rom {

/// The accuracy contract a model was built under, surfaced per query: what
/// band the a-posteriori estimate covers, the tolerance targeted, and the
/// certified estimate itself (all from Provenance; zeros mean the model was
/// built by a fixed-order front-end and carries no certificate).
struct ErrorCertificate {
    std::string method;           ///< "adaptive" | "atmor" | "linear" | "norm"
    double tol = 0.0;             ///< build-time accuracy target (0 = none)
    double band_min = 0.0;        ///< certified band [rad/s]
    double band_max = 0.0;
    double estimated_error = 0.0; ///< a-posteriori max relative band error
    int expansion_points = 0;
    int order = 0;
    /// True when the model carries a build-time error estimate at all.
    [[nodiscard]] bool certified() const { return estimated_error > 0.0; }
};

/// The host-side serving defaults of a hosted family (ServeEngine::
/// host_family): what a request, which cannot carry closures, is answered
/// under, and what the rejection path is.
struct ParametricOptions {
    /// Certification tolerance; 0 uses the family's own tol. A request's
    /// own positive tol takes precedence.
    double tol = 0.0;
    /// The rejection path: build a dedicated model for the query point when
    /// no member certifies it (resolved through the registry, so repeated
    /// uncovered queries at one point build once). Without it an uncovered
    /// query is a typed PreconditionError.
    std::function<ReducedModel(const pmor::Point&)> fallback_build;
    /// Registry key for the fallback model at a point. Defaults to a key
    /// composed from the family id, the point and the EFFECTIVE tolerance,
    /// so queries demanding different accuracies never share a cached
    /// fallback. Supply pmor::member_key(design, adaptive, p) here when the
    /// fallback build's accuracy is fixed, so on-demand builds at one point
    /// share one registry entry across query tolerances.
    std::function<std::string(const pmor::Point&)> fallback_key;
};

/// Thrown (and reported as ErrorCode::serve_unresolved) when a ModelRef or
/// family reference names nothing the serving side can resolve -- distinct
/// from a generic precondition so a wire client can tell "bad key" from
/// "bad request shape".
class UnresolvedError : public util::PreconditionError {
public:
    using util::PreconditionError::PreconditionError;
};

/// A serializable build recipe, resolved daemon-side through the resolver
/// the host registered (ServeEngine::set_spec_resolver). `recipe` names a
/// catalog entry, `params` its numeric arguments -- the serving library
/// never interprets them, so hosts can expose exactly the builds they are
/// willing to run for remote callers.
struct BuildSpec {
    std::string recipe;
    std::vector<double> params;

    /// Stable registry key for the build ("spec:recipe(p1,p2,...)",
    /// shortest-round-trip doubles), so identical specs coalesce in the
    /// single-flight registry.
    [[nodiscard]] std::string key() const;
};

/// How a request names its model; all three tagged alternatives cross the
/// wire. In-process builds are BuildSpec recipes like remote ones.
struct ModelRef {
    enum class Kind : std::uint8_t {
        registry_key = 0,   ///< must already be resolvable by the registry
        artifact_path = 1,  ///< .atmor-rom file served from the file itself
                            ///< (loaded once per engine, never copied into
                            ///< the registry)
        build_spec = 2,     ///< built server-side through the spec resolver
    };

    Kind kind = Kind::registry_key;
    std::string key;   ///< registry key (registry_key kind)
    std::string path;  ///< artifact path (artifact_path kind)
    BuildSpec spec;    ///< build recipe (build_spec kind)

    [[nodiscard]] static ModelRef by_key(std::string key);
    [[nodiscard]] static ModelRef from_artifact(std::string path);
    [[nodiscard]] static ModelRef from_spec(BuildSpec spec);

    /// The registry/cache key this ref resolves under (kind-prefixed for the
    /// non-key kinds so distinct reference styles never alias).
    [[nodiscard]] std::string cache_key() const;
};

/// A typed, serializable input waveform: the parameter records behind the
/// circuits::*_input factories, instantiable on either side of the wire.
struct WaveformSpec {
    enum class Kind : std::uint8_t {
        zero = 0,
        step = 1,
        pulse = 2,
        sine = 3,
        surge = 4,
        multi_tone = 5,  ///< sum of sin tones (intermodulation drives)
        am = 6,          ///< amplitude-modulated carrier (envelope drives)
    };

    Kind kind = Kind::zero;
    int arity = 1;             ///< output vector length (zero kind); 1 otherwise
    double amplitude = 0.0;    ///< also the am carrier amplitude
    double t_on = 0.0;         ///< step/pulse switch-on time
    double rise = 0.0;         ///< pulse rise span
    double t_off = 0.0;        ///< pulse fall start
    double fall = 0.0;         ///< pulse fall span
    double frequency_hz = 0.0; ///< sine frequency; am carrier frequency
    double tau_rise = 0.0;     ///< surge time constants
    double tau_decay = 0.0;
    double mod_hz = 0.0;       ///< am modulation frequency
    double mod_depth = 0.0;    ///< am modulation depth in [0, 1]
    /// multi_tone: per-tone amplitude / frequency / phase, shared length.
    /// tone_phases may stay empty (all zero).
    std::vector<double> tone_amplitudes;
    std::vector<double> tones_hz;
    std::vector<double> tone_phases;

    [[nodiscard]] static WaveformSpec zero(int arity = 1);
    [[nodiscard]] static WaveformSpec step(double amplitude, double t_on = 0.0);
    [[nodiscard]] static WaveformSpec pulse(double amplitude, double t_on, double rise,
                                            double t_off, double fall);
    [[nodiscard]] static WaveformSpec sine(double amplitude, double frequency_hz);
    [[nodiscard]] static WaveformSpec surge(double amplitude, double tau_rise,
                                            double tau_decay);
    [[nodiscard]] static WaveformSpec multi_tone(std::vector<double> amplitudes,
                                                 std::vector<double> freqs_hz,
                                                 std::vector<double> phases = {});
    [[nodiscard]] static WaveformSpec am(double amplitude, double carrier_hz, double mod_hz,
                                         double depth);

    /// The waveform as an ode::InputFn: the circuits::*_input factory of
    /// its kind. Typed PreconditionError on inconsistent parameters (e.g. a
    /// pulse whose hold ends before its rise).
    [[nodiscard]] ode::InputFn instantiate() const;
};

/// The serializable subset of ode::TransientOptions (everything but the
/// caller-supplied backend, which the engine overrides with its own warm
/// backend anyway).
struct TransientSpec {
    double t_end = 1.0;
    double dt = 1e-3;
    ode::Method method = ode::Method::trapezoidal;
    int record_stride = 1;
    double newton_tol = 1e-10;
    int newton_max_iter = 25;
    bool refactor_every_step = false;

    [[nodiscard]] ode::TransientOptions to_options() const;
};

enum class RequestKind : std::uint8_t {
    frequency_sweep = 0,
    transient_batch = 1,
    parametric_query = 2,
    certificate = 3,
    parametric_batch = 4,
};

const char* to_string(RequestKind kind);

/// Batched frequency response of the referenced model over `grid`.
struct FrequencySweepRequest {
    ModelRef model;
    std::vector<la::Complex> grid;
};

/// Batched transient scenarios against the referenced model. `inputs` is the
/// wire form; the non-serialized `raw_inputs` wins when non-empty, so
/// in-process callers can drive arbitrary closures.
struct TransientBatchRequest {
    ModelRef model;
    std::vector<WaveformSpec> inputs;
    TransientSpec options;
    std::vector<ode::InputFn> raw_inputs;  ///< in-process only, never serialized
};

/// Parametric query against a family, named by `family_id` and resolved
/// server-side (hosted catalog, then the registry's mmap artifact tier).
/// The answer is the sweep of the one member the point's coverage cell
/// certifies. Requests use the HOST-registered fallback (host_family's
/// defaults), gated by `allow_fallback`.
struct ParametricQueryRequest {
    std::string family_id;
    pmor::Point coords;
    std::vector<la::Complex> grid;
    double tol = 0.0;            ///< 0 = family tolerance
    bool allow_fallback = true;  ///< false strips the server-side fallback build
};

/// The certified error bound of the referenced model.
struct CertificateRequest {
    ModelRef model;
};

/// Many parameter points against ONE family in one round trip -- the
/// Monte-Carlo process-variation shape, where a yield sweep asks for
/// hundreds of perturbed instances of the same design. The family resolves
/// ONCE (hosted catalog / artifact mmap) and every point routes through the
/// shared coverage table, so per-point cost is the member sweep alone. The
/// response concatenates per-point sweeps in request order (point p's grid
/// occupies response[p*grid.size() ..]) and records per-point routing in the
/// batch_* vectors; the top-level certificate is the WORST point's.
struct ParametricBatchRequest {
    std::string family_id;
    std::vector<pmor::Point> coords;
    std::vector<la::Complex> grid;
    double tol = 0.0;            ///< 0 = family tolerance
    bool allow_fallback = true;  ///< false strips the server-side fallback build
};

/// The tagged request variant: one vocabulary for every serving entrypoint,
/// in-process and on the wire.
struct ServeRequest {
    /// Admission-control identity (net::Daemon token buckets); empty is the
    /// anonymous tenant.
    std::string tenant;
    std::variant<FrequencySweepRequest, TransientBatchRequest, ParametricQueryRequest,
                 CertificateRequest, ParametricBatchRequest>
        body;

    [[nodiscard]] RequestKind kind() const {
        return static_cast<RequestKind>(body.index());
    }
};

/// Typed serving failure: a stable numeric code plus the exception text. A
/// wire response reports exactly what the in-process exception would.
struct ServeError {
    util::ErrorCode code = util::ErrorCode::ok;
    std::string message;

    [[nodiscard]] bool ok() const { return code == util::ErrorCode::ok; }
};

/// The uniform answer: payload fields for the request's kind, the model's
/// ErrorCertificate, and a typed error (code != ok means the payload fields
/// are empty/default). Transients keep the rich ode::TransientResult;
/// encode_response serializes the deterministic fields and leaves out the
/// wall-time one.
struct ServeResponse {
    RequestKind kind = RequestKind::frequency_sweep;
    ServeError error;
    ErrorCertificate certificate;
    // -- frequency_sweep / parametric_query payload. -------------------------
    std::vector<la::ZMatrix> response;
    // -- transient_batch payload. --------------------------------------------
    std::vector<ode::TransientResult> transients;
    // -- parametric_query routing record. ------------------------------------
    int member = -1;
    bool fallback = false;
    // -- parametric_batch per-point routing record (parallel arrays, one
    //    entry per requested point; batch_error[p] is point p's certified
    //    estimated error). ----------------------------------------------------
    std::vector<int> batch_member;
    std::vector<double> batch_error;
    std::vector<std::uint8_t> batch_fallback;

    [[nodiscard]] bool ok() const { return error.ok(); }
};

// ---------------------------------------------------------------------------
// Wire codec: payload bytes only (no framing -- net/protocol.hpp wraps them
// in the checksummed length-prefixed envelope). Decoders throw typed
// IoError{truncated|corrupt} on damaged payloads, mirroring rom::io.
// ---------------------------------------------------------------------------

/// Serialize a request. The tenant is encoded FIRST so peek_tenant can read
/// it without decoding the body (admission control runs before any payload
/// work). Throws PreconditionError when the request carries in-process-only
/// state (raw input closures).
std::string encode_request(const ServeRequest& req);
ServeRequest decode_request(const std::string& payload);

/// The tenant of an encoded request without decoding the body.
std::string peek_tenant(const std::string& payload);

/// Serialize a response. The wall-time field TransientResult::solve_seconds
/// is not encoded (a decoded result keeps its default 0), so the bytes are a
/// deterministic function of the payload.
std::string encode_response(const ServeResponse& resp);
ServeResponse decode_response(const std::string& payload);

}  // namespace atmor::rom
