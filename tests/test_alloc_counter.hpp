// Counts every global allocation of the test binary that includes it, so an
// allocation pin can check that a hot loop on warmed buffers allocates
// nothing. It replaces the global operator new and delete: include it from
// exactly one translation unit of a test binary. The replacements are not
// inlined, so the compiler never pairs an inlined malloc with a
// new-expression's delete.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace atmor::test {

inline std::atomic<long> g_allocations{0};

/// Global allocations made so far by this binary.
inline long allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace atmor::test

[[gnu::noinline]] void* operator new(std::size_t size) {
    atmor::test::g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
    return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
    std::free(p);
}
