// Work-stealing thread pool behind every parallel site in the pipeline.
//
// The MOR workloads fan out at three grain sizes -- moment chains per
// expansion point, frequency-grid points, transient scenarios -- all of them
// independent tasks of uneven cost (a refactoring Newton scenario can take
// 10x the budget of a converging one). Each worker therefore owns a deque:
// it pushes and pops its own work LIFO (cache-warm) and steals FIFO from the
// back of a random victim when it runs dry, which keeps all cores busy
// without a central queue becoming the bottleneck. A worker with nothing
// left to run or steal polls for up to a millisecond before it sleeps, so
// loops issued back to back (the split products of the Kronecker solvers)
// find it running.
//
// Determinism contract: parallel_for partitions the index space identically
// for every thread count, and parallel_map/parallel_reduce combine per-index
// results IN INDEX ORDER after the barrier. A pipeline run with 8 threads
// produces bit-for-bit the same reduced models as a serial run -- the
// property the scaling bench asserts.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace atmor::util {

class ThreadPool {
public:
    /// @param threads worker count; 0 picks default_thread_count(). The
    ///        calling thread always participates in parallel_for, so a pool
    ///        of k workers runs loops k+1 wide.
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Loop width: workers + the participating caller.
    [[nodiscard]] int size() const { return static_cast<int>(workers_.size()) + 1; }

    /// Run fn(i) for every i in [begin, end). Blocks until all iterations
    /// finish; the calling thread executes chunks alongside the workers.
    /// Iterations are claimed dynamically (chunk stealing), so uneven
    /// per-index cost balances automatically. The first exception thrown by
    /// any iteration is rethrown here (remaining chunks are drained, not
    /// started). Nested calls from inside a worker run the loop inline on
    /// the calling worker -- safe, and still deterministic.
    void parallel_for(long begin, long end, const std::function<void(long)>& fn);

    /// Map each index to a value; results land in index order regardless of
    /// which thread computed them.
    template <class R>
    std::vector<R> parallel_map(long begin, long end, const std::function<R(long)>& fn) {
        ATMOR_REQUIRE(end >= begin, "parallel_map: end < begin");
        std::vector<R> out(static_cast<std::size_t>(end - begin));
        parallel_for(begin, end,
                     [&](long i) { out[static_cast<std::size_t>(i - begin)] = fn(i); });
        return out;
    }

    /// Deterministic ordered reduction: acc = combine(acc, map(i)) folded in
    /// strictly increasing index order (the map calls run in parallel, the
    /// fold is serial over the buffered results -- same answer every run).
    template <class R>
    R parallel_reduce(long begin, long end, R init, const std::function<R(long)>& map,
                      const std::function<R(R, R)>& combine) {
        std::vector<R> mapped = parallel_map<R>(begin, end, map);
        R acc = std::move(init);
        for (auto& r : mapped) acc = combine(std::move(acc), std::move(r));
        return acc;
    }

    /// Process-wide pool, sized once from ATMOR_NUM_THREADS (else hardware
    /// concurrency) on first use; set_global_threads() rebuilds it.
    static ThreadPool& global();

    /// Resize the global pool (benches sweep thread counts through this).
    /// Must not be called from inside a parallel region.
    static void set_global_threads(int threads);

    /// ATMOR_NUM_THREADS env override, else std::thread::hardware_concurrency.
    static int default_thread_count();

private:
    struct Batch;

    /// One mutex-guarded deque per worker; owner pops back (LIFO), thieves
    /// pop front (FIFO) so stealing grabs the oldest -- largest-granularity --
    /// work first.
    struct WorkerQueue {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void worker_loop(std::size_t self);
    bool try_run_one(std::size_t self);

    std::vector<std::thread> workers_;
    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    std::uint64_t wake_epoch_ = 0;  ///< guarded by wake_mutex_
    /// parallel_for calls so far; idle workers poll it before sleeping.
    std::atomic<std::uint64_t> dispatches_{0};
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> next_queue_{0};
};

}  // namespace atmor::util
