// The one dense GEMM behind la::matmul and the structured Kronecker solvers.
//
// Every output element C(i, j) accumulates A(i, k) B(k, j) over the inner
// indices in ascending k, one la/simd row update per (i, k). Tiling over
// column panels and splitting rows/panels across the pool only choose which
// thread runs which (i, panel) slice, never the order of any element's
// products, so the result is the same bit for bit at every thread count.
#include <algorithm>
#include <numeric>
#include <vector>

#include "la/matrix.hpp"
#include "util/thread_pool.hpp"

namespace atmor::la {

namespace {

/// Column-panel width: one panel row of B is 2 KiB, so the kd x panel slice
/// of B that every row of a row block streams over stays in L2.
template <class T>
constexpr int kPanel = static_cast<int>(2048 / sizeof(T));

/// Products with fewer multiply-adds than this run on the calling thread:
/// below it a pool dispatch (wake-up and completion wait) costs about what
/// the split saves.
constexpr long kSplitWork = 1L << 16;

/// Tasks per pool participant when a product is split, so a worker that
/// wakes late still finds work.
constexpr int kTasksPerThread = 2;

int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// C[r0:r1, c0:c1) += A[r0:r1, ks] B[ks, c0:c1), panel by panel.
template <class T>
void gemm_block(const T* a, const T* b, T* c, int kd, int m, const std::vector<int>& ks, int r0,
                int r1, int c0, int c1) {
    const std::size_t ld = static_cast<std::size_t>(m);
    for (int p0 = c0; p0 < c1; p0 += kPanel<T>) {
        const int width = std::min(c1 - p0, kPanel<T>);
        const T* bp = b + p0;
        for (int i = r0; i < r1; ++i) {
            const T* ai = a + static_cast<std::size_t>(i) * static_cast<std::size_t>(kd);
            T* ci = c + static_cast<std::size_t>(i) * ld + p0;
            for (const int k : ks) {
                const T aik = ai[k];
                if (aik == T(0)) continue;
                row_update(ci, aik, bp + static_cast<std::size_t>(k) * ld, width);
            }
        }
    }
}

/// C += A[:, ks] B[ks, :], serial or split across the global pool by row
/// blocks first and column panels for the rest (a product with few rows and
/// many columns splits by panels only).
template <class T>
void gemm(const T* a, const T* b, T* c, int n, int kd, int m, const std::vector<int>& ks) {
    if (n == 0 || m == 0 || ks.empty()) return;
    const long work = static_cast<long>(n) * static_cast<long>(ks.size()) * m;
    util::ThreadPool* pool = work >= kSplitWork ? &util::ThreadPool::global() : nullptr;
    if (pool == nullptr || pool->size() == 1) {
        gemm_block(a, b, c, kd, m, ks, 0, n, 0, m);
        return;
    }
    const int tasks = kTasksPerThread * pool->size();
    const int rows_per = ceil_div(n, std::min(n, tasks));
    const int row_blocks = ceil_div(n, rows_per);
    const int panels = ceil_div(m, kPanel<T>);
    const int panels_per = ceil_div(panels, std::min(panels, ceil_div(tasks, row_blocks)));
    const int cols_per = panels_per * kPanel<T>;
    const int col_blocks = ceil_div(m, cols_per);
    pool->parallel_for(0, static_cast<long>(row_blocks) * col_blocks, [&](long t) {
        const int r0 = static_cast<int>(t / col_blocks) * rows_per;
        const int c0 = static_cast<int>(t % col_blocks) * cols_per;
        const int r1 = std::min(n, r0 + rows_per);
        const int c1 = std::min(m, c0 + cols_per);
        gemm_block(a, b, c, kd, m, ks, r0, r1, c0, c1);
    });
}

template <class T>
void matmul_into_impl(const T* a, const T* b, T* c, int n, int kd, int m) {
    std::fill(c, c + static_cast<std::size_t>(n) * static_cast<std::size_t>(m), T(0));
    std::vector<int> live;
    live.reserve(static_cast<std::size_t>(kd));
    for (int k = 0; k < kd; ++k) {
        const T* bk = b + static_cast<std::size_t>(k) * static_cast<std::size_t>(m);
        if (std::any_of(bk, bk + m, [](const T& v) { return v != T(0); })) live.push_back(k);
    }
    gemm(a, b, c, n, kd, m, live);
}

}  // namespace

void matmul_into(const double* a, const double* b, double* c, int n, int kd, int m) {
    matmul_into_impl(a, b, c, n, kd, m);
}

void matmul_into(const Complex* a, const Complex* b, Complex* c, int n, int kd, int m) {
    matmul_into_impl(a, b, c, n, kd, m);
}

void matmul_acc(const Complex* a, const Complex* b, Complex* c, int n, int kd, int m) {
    std::vector<int> all(static_cast<std::size_t>(kd));
    std::iota(all.begin(), all.end(), 0);
    gemm(a, b, c, n, kd, m, all);
}

}  // namespace atmor::la
