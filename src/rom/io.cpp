#include "rom/io.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/check.hpp"

namespace atmor::rom {

namespace {

constexpr char kMagic[8] = {'A', 'T', 'M', 'O', 'R', 'R', 'O', 'M'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + sizeof(std::uint32_t) +
                                     sizeof(std::uint64_t);
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);

// Smallest encoded size of a matrix record (rows and cols i32); Reader::count
// bounds the D1 count by it before anything is reserved.
constexpr std::size_t kMatrixHeaderBytes = 2 * 4;

[[noreturn]] void fail(IoErrorKind kind, const std::string& what) {
    throw IoError(kind, std::string("rom::io: ") + what);
}

/// Translate a structural precondition failure (from_parts, tensor add,
/// Qldae validation) into the typed corrupt error the loaders promise.
template <class Fn>
auto structurally(Fn&& fn) -> decltype(fn()) {
    try {
        return fn();
    } catch (const util::PreconditionError& e) {
        fail(IoErrorKind::corrupt, std::string("invalid structure: ") + e.what());
    }
}

}  // namespace

const char* to_string(IoErrorKind kind) {
    switch (kind) {
        case IoErrorKind::open_failed:
            return "open_failed";
        case IoErrorKind::truncated:
            return "truncated";
        case IoErrorKind::bad_magic:
            return "bad_magic";
        case IoErrorKind::version_mismatch:
            return "version_mismatch";
        case IoErrorKind::checksum_mismatch:
            return "checksum_mismatch";
        case IoErrorKind::corrupt:
            return "corrupt";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

void Writer::raw(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
}

void Writer::u8(std::uint8_t v) { raw(&v, sizeof(v)); }
void Writer::u32(std::uint32_t v) { raw(&v, sizeof(v)); }
void Writer::u64(std::uint64_t v) { raw(&v, sizeof(v)); }
void Writer::i32(std::int32_t v) { raw(&v, sizeof(v)); }
void Writer::f64(double v) { raw(&v, sizeof(v)); }

void Writer::str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
}

void Writer::complex(la::Complex z) {
    f64(z.real());
    f64(z.imag());
}

void Writer::matrix(const la::Matrix& m) {
    i32(m.rows());
    i32(m.cols());
    raw(m.data(), static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols()) *
                      sizeof(double));
}

void Writer::zmatrix(const la::ZMatrix& m) {
    i32(m.rows());
    i32(m.cols());
    raw(m.data(), static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols()) *
                      sizeof(la::Complex));
}

void Writer::vec(const la::Vec& v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
}

void Writer::tensor3(const sparse::SparseTensor3& t) {
    i32(t.rows());
    i32(t.n1());
    i32(t.n2());
    u64(t.entries().size());
    for (const auto& e : t.entries()) {
        i32(e.row);
        i32(e.i);
        i32(e.j);
        f64(e.value);
    }
}

void Writer::tensor4(const sparse::SparseTensor4& t) {
    i32(t.n());
    u64(t.entries().size());
    for (const auto& e : t.entries()) {
        i32(e.row);
        i32(e.i);
        i32(e.j);
        i32(e.k);
        f64(e.value);
    }
}

void Writer::qldae(const volterra::Qldae& sys) {
    const std::uint32_t nd1 =
        sys.has_bilinear() ? static_cast<std::uint32_t>(sys.inputs()) : 0;
    matrix(sys.g1());
    matrix(sys.b());
    matrix(sys.c());
    u32(nd1);
    for (std::uint32_t i = 0; i < nd1; ++i) matrix(sys.d1(static_cast<int>(i)));
    tensor3(sys.g2());
    tensor4(sys.g3());
}

void Writer::provenance(const Provenance& p) {
    str(p.source);
    str(p.method);
    u64(p.expansion_points.size());
    for (la::Complex s0 : p.expansion_points) complex(s0);
    i32(p.k1);
    i32(p.k2);
    i32(p.k3);
    i32(p.full_order);
    u64(p.basis_hash);
    // v2 accuracy block.
    u64(p.point_orders.size());
    for (const PointOrder& po : p.point_orders) {
        i32(po.k1);
        i32(po.k2);
        i32(po.k3);
    }
    f64(p.tol);
    f64(p.band_min);
    f64(p.band_max);
    f64(p.estimated_error);
}

void Writer::model(const ReducedModel& m) {
    provenance(m.provenance);
    f64(m.build_seconds);
    i32(m.raw_vectors);
    i32(m.order);
    qldae(m.rom);
    matrix(m.v);
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

void Reader::raw(void* out, std::size_t n) {
    if (buf_.size() - pos_ < n)
        fail(IoErrorKind::truncated, "payload ends mid-structure (need " + std::to_string(n) +
                                         " bytes, have " + std::to_string(buf_.size() - pos_) +
                                         ")");
    if (n == 0) return;  // an empty Vec's null data() must not reach memcpy
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
}

std::size_t Reader::count(std::uint64_t n, std::size_t elem_size) {
    if (n > (buf_.size() - pos_) / elem_size)
        fail(IoErrorKind::truncated,
             "element count " + std::to_string(n) + " exceeds remaining payload");
    return static_cast<std::size_t>(n);
}

std::uint8_t Reader::u8() {
    std::uint8_t v;
    raw(&v, sizeof(v));
    return v;
}

std::uint32_t Reader::u32() {
    std::uint32_t v;
    raw(&v, sizeof(v));
    return v;
}

std::uint64_t Reader::u64() {
    std::uint64_t v;
    raw(&v, sizeof(v));
    return v;
}

std::int32_t Reader::i32() {
    std::int32_t v;
    raw(&v, sizeof(v));
    return v;
}

double Reader::f64() {
    double v;
    raw(&v, sizeof(v));
    return v;
}

std::string Reader::str() {
    const std::size_t n = count(u64(), 1);
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
}

la::Complex Reader::complex() {
    const double re = f64();
    const double im = f64();
    return la::Complex(re, im);
}

la::Matrix Reader::matrix() {
    const std::int32_t rows = i32();
    const std::int32_t cols = i32();
    if (rows < 0 || cols < 0) fail(IoErrorKind::corrupt, "negative matrix dimension");
    const std::size_t n =
        count(static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols),
              sizeof(double));
    la::Matrix m(rows, cols);
    raw(m.data(), n * sizeof(double));
    return m;
}

la::ZMatrix Reader::zmatrix() {
    const std::int32_t rows = i32();
    const std::int32_t cols = i32();
    if (rows < 0 || cols < 0) fail(IoErrorKind::corrupt, "negative matrix dimension");
    const std::size_t n =
        count(static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols),
              sizeof(la::Complex));
    la::ZMatrix m(rows, cols);
    raw(m.data(), n * sizeof(la::Complex));
    return m;
}

la::Vec Reader::vec() {
    const std::size_t n = count(u64(), sizeof(double));
    la::Vec v(n);
    raw(v.data(), n * sizeof(double));
    return v;
}

sparse::SparseTensor3 Reader::tensor3() {
    const std::int32_t rows = i32();
    const std::int32_t n1 = i32();
    const std::int32_t n2 = i32();
    if (rows < 0 || n1 < 0 || n2 < 0) fail(IoErrorKind::corrupt, "negative tensor3 dimension");
    const std::size_t n = count(u64(), 3 * sizeof(std::int32_t) + sizeof(double));
    return structurally([&] {
        sparse::SparseTensor3 t(rows, n1, n2);
        for (std::size_t e = 0; e < n; ++e) {
            const std::int32_t r = i32();
            const std::int32_t i = i32();
            const std::int32_t j = i32();
            t.add(r, i, j, f64());
        }
        return t;
    });
}

sparse::SparseTensor4 Reader::tensor4() {
    const std::int32_t dim = i32();
    if (dim < 0) fail(IoErrorKind::corrupt, "negative tensor4 dimension");
    const std::size_t n = count(u64(), 4 * sizeof(std::int32_t) + sizeof(double));
    return structurally([&] {
        sparse::SparseTensor4 t(dim);
        for (std::size_t e = 0; e < n; ++e) {
            const std::int32_t r = i32();
            const std::int32_t i = i32();
            const std::int32_t j = i32();
            const std::int32_t k = i32();
            t.add(r, i, j, k, f64());
        }
        return t;
    });
}

volterra::Qldae Reader::qldae() {
    la::Matrix g1 = matrix();
    la::Matrix b = matrix();
    la::Matrix c = matrix();
    const std::size_t nd1 = count(u32(), kMatrixHeaderBytes);
    std::vector<la::Matrix> d1;
    d1.reserve(nd1);
    for (std::size_t i = 0; i < nd1; ++i) d1.push_back(matrix());
    sparse::SparseTensor3 g2 = tensor3();
    sparse::SparseTensor4 g3 = tensor4();
    return structurally([&] {
        return volterra::Qldae(std::move(g1), std::move(g2), std::move(g3), std::move(d1),
                               std::move(b), std::move(c));
    });
}

Provenance Reader::provenance() {
    Provenance prov;
    prov.source = str();
    prov.method = str();
    const std::size_t npoints = count(u64(), 2 * sizeof(double));
    prov.expansion_points.reserve(npoints);
    for (std::size_t p = 0; p < npoints; ++p) prov.expansion_points.push_back(complex());
    prov.k1 = i32();
    prov.k2 = i32();
    prov.k3 = i32();
    prov.full_order = i32();
    prov.basis_hash = u64();
    const std::size_t norders = count(u64(), 3 * sizeof(std::int32_t));
    prov.point_orders.reserve(norders);
    for (std::size_t p = 0; p < norders; ++p) {
        PointOrder po;
        po.k1 = i32();
        po.k2 = i32();
        po.k3 = i32();
        prov.point_orders.push_back(po);
    }
    prov.tol = f64();
    prov.band_min = f64();
    prov.band_max = f64();
    prov.estimated_error = f64();
    return prov;
}

ReducedModel Reader::model() {
    Provenance prov = provenance();
    const double build_seconds = f64();
    const std::int32_t raw_vectors = i32();
    const std::int32_t order = i32();
    volterra::Qldae rom = qldae();
    la::Matrix v = matrix();
    if (order != v.cols() || rom.order() != order)
        fail(IoErrorKind::corrupt, "order field disagrees with the stored ROM/basis");
    ReducedModel m{std::move(rom), std::move(v), build_seconds, raw_vectors, order,
                   std::move(prov)};
    return m;
}

void Reader::expect_kind(PayloadKind k) {
    const std::uint8_t tag = u8();
    if (tag != static_cast<std::uint8_t>(k))
        fail(IoErrorKind::corrupt, "payload kind " + std::to_string(tag) + ", expected " +
                                       std::to_string(static_cast<int>(k)));
}

// ---------------------------------------------------------------------------
// Framing + top-level API.
// ---------------------------------------------------------------------------

std::string frame(const std::string& payload) {
    std::string out;
    out.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
    out.append(kMagic, sizeof(kMagic));
    out.append(reinterpret_cast<const char*>(&kFormatVersion), sizeof(kFormatVersion));
    const std::uint64_t size = payload.size();
    out.append(reinterpret_cast<const char*>(&size), sizeof(size));
    out.append(payload);
    const std::uint64_t checksum = fnv1a(payload.data(), payload.size());
    out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    return out;
}

std::string_view detail::envelope_payload(std::string_view bytes) {
    if (bytes.size() < kHeaderBytes + kChecksumBytes)
        fail(IoErrorKind::truncated, "file smaller than the artifact header");
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        fail(IoErrorKind::bad_magic, "not an atmor ROM artifact");
    std::uint32_t version;
    std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
    if (version != kFormatVersion)
        fail(IoErrorKind::version_mismatch, "artifact format version " +
                                                std::to_string(version) + ", reader supports " +
                                                std::to_string(kFormatVersion));
    std::uint64_t size;
    std::memcpy(&size, bytes.data() + sizeof(kMagic) + sizeof(version), sizeof(size));
    if (size != bytes.size() - kHeaderBytes - kChecksumBytes)
        fail(IoErrorKind::truncated, "payload size field disagrees with the file size");
    return bytes.substr(kHeaderBytes, static_cast<std::size_t>(size));
}

std::string unframe(const std::string& bytes) {
    const std::string_view payload = detail::envelope_payload(bytes);
    std::uint64_t stored;
    std::memcpy(&stored, payload.data() + payload.size(), sizeof(stored));
    if (stored != fnv1a(payload.data(), payload.size()))
        fail(IoErrorKind::checksum_mismatch, "payload checksum mismatch");
    return std::string(payload);
}

std::string serialize_model(const ReducedModel& m) {
    Writer w;
    w.kind(PayloadKind::model);
    w.model(m);
    return frame(w.bytes());
}

ReducedModel deserialize_model(const std::string& bytes) {
    const std::string payload = unframe(bytes);
    Reader r(payload);
    r.expect_kind(PayloadKind::model);
    ReducedModel m = r.model();
    if (!r.at_end()) fail(IoErrorKind::corrupt, "trailing bytes after the model payload");
    return m;
}

void write_file_atomically(const std::string& bytes, const std::string& path) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) fail(IoErrorKind::open_failed, "cannot open " + tmp + " for writing");
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out) fail(IoErrorKind::open_failed, "short write to " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        fail(IoErrorKind::open_failed, "cannot publish " + path);
    }
}

void save_model(const ReducedModel& m, const std::string& path) {
    write_file_atomically(serialize_model(m), path);
}

ReducedModel load_model(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) fail(IoErrorKind::open_failed, "cannot open " + path + " for reading");
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    if (in.bad()) fail(IoErrorKind::open_failed, "read error on " + path);
    return deserialize_model(bytes);
}

}  // namespace atmor::rom
