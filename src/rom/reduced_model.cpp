#include "rom/reduced_model.hpp"

namespace atmor::rom {

namespace {

std::size_t matrix_bytes(const la::Matrix& m) {
    return static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols()) *
           sizeof(double);
}

std::size_t csr_bytes(const sparse::CsrMatrix& m) {
    return m.row_ptr().size() * sizeof(int) + m.col_idx().size() * sizeof(int) +
           m.values().size() * sizeof(double);
}

}  // namespace

std::size_t resident_bytes(const ReducedModel& m) {
    std::size_t bytes = matrix_bytes(m.v);
    const volterra::Qldae& sys = m.rom;
    if (sys.is_sparse()) {
        bytes += csr_bytes(*sys.g1_csr()) + csr_bytes(*sys.b_csr()) + csr_bytes(*sys.c_csr());
        for (const sparse::CsrMatrix& d : sys.d1_csr_blocks()) bytes += csr_bytes(d);
    } else {
        bytes += matrix_bytes(sys.g1()) + matrix_bytes(sys.b()) + matrix_bytes(sys.c());
        if (sys.has_bilinear())
            for (int i = 0; i < sys.inputs(); ++i) bytes += matrix_bytes(sys.d1(i));
    }
    bytes += sys.g2().entry_count() * sizeof(sparse::SparseTensor3::Entry);
    bytes += sys.g3().entry_count() * sizeof(sparse::SparseTensor4::Entry);
    bytes += sys.packed_coefficients() * sizeof(double);
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
