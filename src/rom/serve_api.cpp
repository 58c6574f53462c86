#include "rom/serve_api.hpp"

#include <utility>

#include "circuits/waveforms.hpp"
#include "rom/io.hpp"
#include "util/check.hpp"
#include "util/key_format.hpp"

namespace atmor::rom {

namespace {

[[noreturn]] void fail_corrupt(const std::string& what) {
    throw IoError(IoErrorKind::corrupt, "serve_api: " + what);
}

// Smallest encoded size of each record a decoded count announces; the
// decoders bound every count by it through Reader::count before they
// reserve or loop. Vec: its u64 length. Grid point: two f64. ZMatrix: rows
// and cols i32. WaveformSpec: kind u8 and eight f64 fields.
// TransientResult: t, row count and x_final (8 bytes each when empty), then
// three u64 counters.
constexpr std::size_t kVecBytes = 8;
constexpr std::size_t kComplexBytes = 2 * 8;
constexpr std::size_t kZMatrixBytes = 2 * 4;
constexpr std::size_t kWaveformBytes = 1 + 8 * 8;
constexpr std::size_t kTransientBytes = 3 * 8 + 3 * 8;

}  // namespace

// ---------------------------------------------------------------------------
// BuildSpec / ModelRef
// ---------------------------------------------------------------------------

std::string BuildSpec::key() const {
    std::string out = "spec:" + recipe + "(";
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (i) out += ',';
        out += util::key_num(params[i]);
    }
    out += ')';
    return out;
}

ModelRef ModelRef::by_key(std::string key) {
    ModelRef ref;
    ref.kind = Kind::registry_key;
    ref.key = std::move(key);
    return ref;
}

ModelRef ModelRef::from_artifact(std::string path) {
    ModelRef ref;
    ref.kind = Kind::artifact_path;
    ref.path = std::move(path);
    return ref;
}

ModelRef ModelRef::from_spec(BuildSpec spec) {
    ModelRef ref;
    ref.kind = Kind::build_spec;
    ref.spec = std::move(spec);
    return ref;
}

std::string ModelRef::cache_key() const {
    switch (kind) {
        case Kind::registry_key: return key;
        case Kind::artifact_path: return "artifact:" + path;
        case Kind::build_spec: return spec.key();
    }
    return key;
}

// ---------------------------------------------------------------------------
// WaveformSpec
// ---------------------------------------------------------------------------

WaveformSpec WaveformSpec::step(double amplitude, double t_on) {
    WaveformSpec w;
    w.kind = Kind::step;
    w.amplitude = amplitude;
    w.t_on = t_on;
    return w;
}

WaveformSpec WaveformSpec::pulse(double amplitude, double t_on, double rise, double t_off,
                                 double fall) {
    WaveformSpec w;
    w.kind = Kind::pulse;
    w.amplitude = amplitude;
    w.t_on = t_on;
    w.rise = rise;
    w.t_off = t_off;
    w.fall = fall;
    return w;
}

WaveformSpec WaveformSpec::sine(double amplitude, double frequency_hz) {
    WaveformSpec w;
    w.kind = Kind::sine;
    w.amplitude = amplitude;
    w.frequency_hz = frequency_hz;
    return w;
}

WaveformSpec WaveformSpec::surge(double amplitude, double tau_rise, double tau_decay) {
    WaveformSpec w;
    w.kind = Kind::surge;
    w.amplitude = amplitude;
    w.tau_rise = tau_rise;
    w.tau_decay = tau_decay;
    return w;
}

WaveformSpec WaveformSpec::multi_tone(std::vector<double> amplitudes,
                                      std::vector<double> freqs_hz,
                                      std::vector<double> phases) {
    WaveformSpec w;
    w.kind = Kind::multi_tone;
    w.tone_amplitudes = std::move(amplitudes);
    w.tones_hz = std::move(freqs_hz);
    w.tone_phases = std::move(phases);
    return w;
}

WaveformSpec WaveformSpec::am(double amplitude, double carrier_hz, double mod_hz,
                              double depth) {
    WaveformSpec w;
    w.kind = Kind::am;
    w.amplitude = amplitude;
    w.frequency_hz = carrier_hz;
    w.mod_hz = mod_hz;
    w.mod_depth = depth;
    return w;
}

ode::InputFn WaveformSpec::instantiate() const {
    switch (kind) {
        case Kind::step:
            return circuits::step_input(amplitude, t_on);
        case Kind::pulse:
            return circuits::pulse_input(amplitude, t_on, rise, t_off, fall);
        case Kind::sine:
            return circuits::sine_input(amplitude, frequency_hz);
        case Kind::surge:
            return circuits::surge_input(amplitude, tau_rise, tau_decay);
        case Kind::multi_tone:
            return circuits::multi_tone_input(tone_amplitudes, tones_hz, tone_phases);
        case Kind::am:
            return circuits::am_input(amplitude, frequency_hz, mod_hz, mod_depth);
    }
    ATMOR_REQUIRE(false, "WaveformSpec: unknown kind");
    return {};
}

// ---------------------------------------------------------------------------
// TransientSpec
// ---------------------------------------------------------------------------

ode::TransientOptions TransientSpec::to_options() const {
    ode::TransientOptions opt;
    opt.t_end = t_end;
    opt.dt = dt;
    opt.record_stride = record_stride;
    return opt;
}

const char* to_string(RequestKind kind) {
    switch (kind) {
        case RequestKind::frequency_sweep: return "frequency_sweep";
        case RequestKind::transient_batch: return "transient_batch";
        case RequestKind::parametric_query: return "parametric_query";
        case RequestKind::certificate: return "certificate";
        case RequestKind::parametric_batch: return "parametric_batch";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------------

namespace {

void write_model_ref(Writer& w, const ModelRef& ref) {
    w.u8(static_cast<std::uint8_t>(ref.kind));
    w.str(ref.key);
    w.str(ref.path);
    w.str(ref.spec.recipe);
    w.vec(ref.spec.params);
}

ModelRef read_model_ref(Reader& r) {
    ModelRef ref;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(ModelRef::Kind::build_spec))
        fail_corrupt("unknown ModelRef kind");
    ref.kind = static_cast<ModelRef::Kind>(kind);
    ref.key = r.str();
    ref.path = r.str();
    ref.spec.recipe = r.str();
    ref.spec.params = r.vec();
    return ref;
}

void write_waveform(Writer& w, const WaveformSpec& spec) {
    w.u8(static_cast<std::uint8_t>(spec.kind));
    w.f64(spec.amplitude);
    w.f64(spec.t_on);
    w.f64(spec.rise);
    w.f64(spec.t_off);
    w.f64(spec.fall);
    w.f64(spec.frequency_hz);
    w.f64(spec.tau_rise);
    w.f64(spec.tau_decay);
    // Kind-gated extensions keep the original kinds' byte layout untouched.
    if (spec.kind == WaveformSpec::Kind::multi_tone) {
        w.vec(spec.tone_amplitudes);
        w.vec(spec.tones_hz);
        w.vec(spec.tone_phases);
    }
    if (spec.kind == WaveformSpec::Kind::am) {
        w.f64(spec.mod_hz);
        w.f64(spec.mod_depth);
    }
}

WaveformSpec read_waveform(Reader& r) {
    WaveformSpec spec;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(WaveformSpec::Kind::am))
        fail_corrupt("unknown WaveformSpec kind");
    spec.kind = static_cast<WaveformSpec::Kind>(kind);
    spec.amplitude = r.f64();
    spec.t_on = r.f64();
    spec.rise = r.f64();
    spec.t_off = r.f64();
    spec.fall = r.f64();
    spec.frequency_hz = r.f64();
    spec.tau_rise = r.f64();
    spec.tau_decay = r.f64();
    if (spec.kind == WaveformSpec::Kind::multi_tone) {
        spec.tone_amplitudes = r.vec();
        spec.tones_hz = r.vec();
        spec.tone_phases = r.vec();
    }
    if (spec.kind == WaveformSpec::Kind::am) {
        spec.mod_hz = r.f64();
        spec.mod_depth = r.f64();
    }
    return spec;
}

void write_transient_spec(Writer& w, const TransientSpec& s) {
    w.f64(s.t_end);
    w.f64(s.dt);
    w.i32(s.record_stride);
}

TransientSpec read_transient_spec(Reader& r) {
    TransientSpec s;
    s.t_end = r.f64();
    s.dt = r.f64();
    s.record_stride = r.i32();
    return s;
}

void write_zgrid(Writer& w, const std::vector<la::Complex>& grid) {
    w.u64(grid.size());
    for (la::Complex z : grid) w.complex(z);
}

std::vector<la::Complex> read_zgrid(Reader& r) {
    const std::size_t n = r.count(r.u64(), kComplexBytes);
    std::vector<la::Complex> grid;
    grid.reserve(n);
    for (std::size_t i = 0; i < n; ++i) grid.push_back(r.complex());
    return grid;
}

void write_certificate(Writer& w, const ErrorCertificate& c) {
    w.str(c.method);
    w.f64(c.tol);
    w.f64(c.band_min);
    w.f64(c.band_max);
    w.f64(c.estimated_error);
    w.i32(c.expansion_points);
    w.i32(c.order);
}

ErrorCertificate read_certificate(Reader& r) {
    ErrorCertificate c;
    c.method = r.str();
    c.tol = r.f64();
    c.band_min = r.f64();
    c.band_max = r.f64();
    c.estimated_error = r.f64();
    c.expansion_points = r.i32();
    c.order = r.i32();
    return c;
}

/// TransientResult minus the wall-time field solve_seconds, so the response
/// bytes are deterministic (bit-identity across daemon and in-process
/// answers is pinned on the encoded form).
void write_transient_result(Writer& w, const ode::TransientResult& res) {
    w.vec(res.t);
    w.u64(res.y.size());
    for (const la::Vec& row : res.y) w.vec(row);
    w.vec(res.x_final);
    w.u64(static_cast<std::uint64_t>(res.steps));
    w.u64(static_cast<std::uint64_t>(res.newton_iterations));
    w.u64(static_cast<std::uint64_t>(res.factorizations));
}

ode::TransientResult read_transient_result(Reader& r) {
    ode::TransientResult res;
    res.t = r.vec();
    const std::size_t ny = r.count(r.u64(), kVecBytes);
    res.y.reserve(ny);
    for (std::size_t i = 0; i < ny; ++i) res.y.push_back(r.vec());
    res.x_final = r.vec();
    res.steps = static_cast<long>(r.u64());
    res.newton_iterations = static_cast<long>(r.u64());
    res.factorizations = static_cast<long>(r.u64());
    return res;
}

}  // namespace

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

std::string encode_request(const ServeRequest& req) {
    Writer w;
    w.str(req.tenant);
    w.u8(static_cast<std::uint8_t>(req.kind()));
    switch (req.kind()) {
        case RequestKind::frequency_sweep: {
            const auto& body = std::get<FrequencySweepRequest>(req.body);
            write_model_ref(w, body.model);
            write_zgrid(w, body.grid);
            break;
        }
        case RequestKind::transient_batch: {
            const auto& body = std::get<TransientBatchRequest>(req.body);
            ATMOR_REQUIRE(body.raw_inputs.empty(),
                          "encode_request: TransientBatchRequest carries raw input "
                          "closures; use WaveformSpec inputs for wire requests");
            write_model_ref(w, body.model);
            w.u64(body.inputs.size());
            for (const WaveformSpec& spec : body.inputs) write_waveform(w, spec);
            write_transient_spec(w, body.options);
            break;
        }
        case RequestKind::parametric_query: {
            const auto& body = std::get<ParametricQueryRequest>(req.body);
            w.str(body.family_id);
            w.vec(body.coords);
            write_zgrid(w, body.grid);
            w.f64(body.tol);
            w.u8(body.allow_fallback ? 1 : 0);
            break;
        }
        case RequestKind::certificate: {
            const auto& body = std::get<CertificateRequest>(req.body);
            write_model_ref(w, body.model);
            break;
        }
        case RequestKind::parametric_batch: {
            const auto& body = std::get<ParametricBatchRequest>(req.body);
            w.str(body.family_id);
            w.u64(body.coords.size());
            for (const pmor::Point& p : body.coords) w.vec(p);
            write_zgrid(w, body.grid);
            w.f64(body.tol);
            w.u8(body.allow_fallback ? 1 : 0);
            break;
        }
    }
    return w.bytes();
}

ServeRequest decode_request(const std::string& payload) {
    Reader r(payload);
    ServeRequest req;
    req.tenant = r.str();
    const std::uint8_t kind = r.u8();
    switch (kind) {
        case static_cast<std::uint8_t>(RequestKind::frequency_sweep): {
            FrequencySweepRequest body;
            body.model = read_model_ref(r);
            body.grid = read_zgrid(r);
            req.body = std::move(body);
            break;
        }
        case static_cast<std::uint8_t>(RequestKind::transient_batch): {
            TransientBatchRequest body;
            body.model = read_model_ref(r);
            const std::size_t n = r.count(r.u64(), kWaveformBytes);
            body.inputs.reserve(n);
            for (std::size_t i = 0; i < n; ++i) body.inputs.push_back(read_waveform(r));
            body.options = read_transient_spec(r);
            req.body = std::move(body);
            break;
        }
        case static_cast<std::uint8_t>(RequestKind::parametric_query): {
            ParametricQueryRequest body;
            body.family_id = r.str();
            body.coords = r.vec();
            body.grid = read_zgrid(r);
            body.tol = r.f64();
            body.allow_fallback = r.u8() != 0;
            req.body = std::move(body);
            break;
        }
        case static_cast<std::uint8_t>(RequestKind::certificate): {
            CertificateRequest body;
            body.model = read_model_ref(r);
            req.body = std::move(body);
            break;
        }
        case static_cast<std::uint8_t>(RequestKind::parametric_batch): {
            ParametricBatchRequest body;
            body.family_id = r.str();
            const std::size_t n = r.count(r.u64(), kVecBytes);
            body.coords.reserve(n);
            for (std::size_t i = 0; i < n; ++i) body.coords.push_back(r.vec());
            body.grid = read_zgrid(r);
            body.tol = r.f64();
            body.allow_fallback = r.u8() != 0;
            req.body = std::move(body);
            break;
        }
        default: fail_corrupt("unknown ServeRequest kind");
    }
    if (!r.at_end()) fail_corrupt("trailing bytes after ServeRequest");
    return req;
}

std::string peek_tenant(const std::string& payload) {
    Reader r(payload);
    return r.str();
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

std::string encode_response(const ServeResponse& resp) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(resp.kind));
    w.i32(static_cast<std::int32_t>(resp.error.code));
    w.str(resp.error.message);
    write_certificate(w, resp.certificate);
    w.u64(resp.response.size());
    for (const la::ZMatrix& m : resp.response) w.zmatrix(m);
    w.u64(resp.transients.size());
    for (const ode::TransientResult& t : resp.transients) write_transient_result(w, t);
    w.i32(resp.member);
    w.u8(resp.fallback ? 1 : 0);
    w.u64(resp.batch_member.size());
    for (const int m : resp.batch_member) w.i32(m);
    w.vec(resp.batch_error);
    w.u64(resp.batch_fallback.size());
    for (const std::uint8_t f : resp.batch_fallback) w.u8(f);
    return w.bytes();
}

ServeResponse decode_response(const std::string& payload) {
    Reader r(payload);
    ServeResponse resp;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(RequestKind::parametric_batch))
        fail_corrupt("unknown ServeResponse kind");
    resp.kind = static_cast<RequestKind>(kind);
    resp.error.code = static_cast<util::ErrorCode>(r.i32());
    resp.error.message = r.str();
    resp.certificate = read_certificate(r);
    const std::size_t nresp = r.count(r.u64(), kZMatrixBytes);
    resp.response.reserve(nresp);
    for (std::size_t i = 0; i < nresp; ++i) resp.response.push_back(r.zmatrix());
    const std::size_t ntrans = r.count(r.u64(), kTransientBytes);
    resp.transients.reserve(ntrans);
    for (std::size_t i = 0; i < ntrans; ++i) resp.transients.push_back(read_transient_result(r));
    resp.member = r.i32();
    resp.fallback = r.u8() != 0;
    const std::size_t nbm = r.count(r.u64(), sizeof(std::int32_t));
    resp.batch_member.reserve(nbm);
    for (std::size_t i = 0; i < nbm; ++i) resp.batch_member.push_back(r.i32());
    resp.batch_error = r.vec();
    const std::size_t nbf = r.count(r.u64(), sizeof(std::uint8_t));
    resp.batch_fallback.reserve(nbf);
    for (std::size_t i = 0; i < nbf; ++i) resp.batch_fallback.push_back(r.u8());
    if (!r.at_end()) fail_corrupt("trailing bytes after ServeResponse");
    return resp;
}

}  // namespace atmor::rom
