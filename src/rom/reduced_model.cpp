#include "rom/reduced_model.hpp"

namespace atmor::rom {

std::size_t resident_bytes(const ReducedModel& m) {
    const volterra::Qldae& sys = m.rom;
    const std::size_t n = static_cast<std::size_t>(sys.order());
    const std::size_t inputs = static_cast<std::size_t>(sys.inputs());
    // Dense G1 (n x n), B (n x m), C (l x n) and one n x n D1 per input, as
    // rom::io stores them, counted from the dimensions.
    std::size_t doubles = n * (n + inputs + static_cast<std::size_t>(sys.outputs()));
    if (sys.has_bilinear()) doubles += inputs * n * n;
    doubles += static_cast<std::size_t>(m.v.rows()) * static_cast<std::size_t>(m.v.cols());
    doubles += sys.packed_coefficients();
    std::size_t bytes = doubles * sizeof(double);
    bytes += sys.g2().entry_count() * sizeof(sparse::SparseTensor3::Entry);
    bytes += sys.g3().entry_count() * sizeof(sparse::SparseTensor4::Entry);
    return bytes;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= kPrime;
    }
    return h;
}

std::uint64_t basis_hash(const la::Matrix& v) {
    const std::int64_t dims[2] = {v.rows(), v.cols()};
    std::uint64_t h = fnv1a(dims, sizeof(dims));
    return fnv1a(v.data(),
                 static_cast<std::size_t>(v.rows()) * static_cast<std::size_t>(v.cols()) *
                     sizeof(double),
                 h);
}

}  // namespace atmor::rom
