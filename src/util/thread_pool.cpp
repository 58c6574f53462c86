#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

namespace atmor::util {

namespace {

/// Set while a thread is executing pool work; nested parallel_for detects it
/// and runs inline instead of re-entering the scheduler (which could
/// deadlock a pool whose workers are all blocked on the outer loop).
thread_local bool t_in_pool_task = false;

/// How long an idle worker polls for the next parallel_for before it sleeps.
/// The Kronecker solvers split products back to back, under a millisecond
/// apart; a polling worker picks the next one up at once, where waking a
/// sleeping worker on an idle CPU can take as long as the product itself.
constexpr std::chrono::microseconds kPollBeforeSleep{1000};

}  // namespace

/// Shared state of one parallel_for: a dynamic chunk counter plus completion
/// bookkeeping. Chunks are claimed atomically, so a worker that finishes its
/// share keeps pulling -- the work-stealing complement at loop granularity.
struct ThreadPool::Batch {
    long begin = 0;
    long end = 0;
    long chunk = 1;
    const std::function<void(long)>* fn = nullptr;

    std::atomic<long> next{0};         ///< next unclaimed chunk start
    std::atomic<long> remaining{0};    ///< indices not yet finished
    std::atomic<bool> cancelled{false};

    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;  ///< first failure (guarded by mutex)

    /// Claim and run chunks until the index space is exhausted. Returns when
    /// this thread can make no further progress on the batch.
    void drain() {
        for (;;) {
            const long lo = next.fetch_add(chunk, std::memory_order_relaxed);
            if (lo >= end) return;
            const long hi = std::min(end, lo + chunk);
            if (!cancelled.load(std::memory_order_relaxed)) {
                try {
                    for (long i = lo; i < hi; ++i) (*fn)(i);
                } catch (...) {
                    cancelled.store(true, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!error) error = std::current_exception();
                }
            }
            if (remaining.fetch_sub(hi - lo, std::memory_order_acq_rel) == hi - lo) {
                std::lock_guard<std::mutex> lock(mutex);
                done.notify_all();
            }
        }
    }
};

ThreadPool::ThreadPool(int threads) {
    if (threads <= 0) threads = default_thread_count();
    // size() counts the participating caller, so spawn threads - 1 workers.
    const int workers = std::max(0, threads - 1);
    queues_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        stop_.store(true, std::memory_order_release);
        ++wake_epoch_;
        wake_.notify_all();
    }
    for (auto& w : workers_) w.join();
}

bool ThreadPool::try_run_one(std::size_t self) {
    const std::size_t n = queues_.size();
    // Own queue first (back = LIFO, cache-warm), then steal from the front of
    // the others (oldest task = biggest remaining work).
    for (std::size_t probe = 0; probe < n; ++probe) {
        const std::size_t q = (self + probe) % n;
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lock(queues_[q]->mutex);
            if (queues_[q]->tasks.empty()) continue;
            if (probe == 0) {
                task = std::move(queues_[q]->tasks.back());
                queues_[q]->tasks.pop_back();
            } else {
                task = std::move(queues_[q]->tasks.front());
                queues_[q]->tasks.pop_front();
            }
        }
        t_in_pool_task = true;
        task();
        t_in_pool_task = false;
        return true;
    }
    return false;
}

void ThreadPool::worker_loop(std::size_t self) {
    // Epoch handshake against lost wakeups: a producer bumps wake_epoch_
    // under the lock after enqueueing; a worker only blocks when no enqueue
    // happened since it last scanned the queues.
    std::uint64_t seen = 0;
    std::uint64_t seen_dispatch = 0;
    for (;;) {
        if (try_run_one(self)) continue;
        const auto deadline = std::chrono::steady_clock::now() + kPollBeforeSleep;
        while (dispatches_.load(std::memory_order_acquire) == seen_dispatch &&
               !stop_.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        const std::uint64_t dispatched = dispatches_.load(std::memory_order_acquire);
        if (dispatched != seen_dispatch) {
            seen_dispatch = dispatched;
            continue;
        }
        std::unique_lock<std::mutex> lock(wake_mutex_);
        if (stop_.load(std::memory_order_acquire)) return;
        if (wake_epoch_ == seen) {
            wake_.wait(lock, [&] {
                return stop_.load(std::memory_order_acquire) || wake_epoch_ != seen;
            });
            if (stop_.load(std::memory_order_acquire)) return;
        }
        seen = wake_epoch_;
    }
}

void ThreadPool::parallel_for(long begin, long end, const std::function<void(long)>& fn) {
    ATMOR_REQUIRE(end >= begin, "parallel_for: end < begin");
    const long count = end - begin;
    if (count == 0) return;
    // Inline paths: trivial loops, a worker already inside a task (nesting),
    // or a pool with no spare workers.
    if (count == 1 || t_in_pool_task || workers_.empty()) {
        for (long i = begin; i < end; ++i) fn(i);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->begin = begin;
    batch->end = end;
    batch->next.store(begin, std::memory_order_relaxed);
    batch->remaining.store(count, std::memory_order_relaxed);
    batch->fn = &fn;
    // ~4 chunks per participant: granular enough to balance uneven tasks,
    // coarse enough that the atomic claim is noise.
    const long participants = static_cast<long>(size());
    batch->chunk = std::max(1L, count / (4 * participants));

    // One runner task per worker; each runner drains the shared chunk
    // counter. Runners are spread round-robin so idle workers can steal them.
    const std::size_t nq = queues_.size();
    for (std::size_t w = 0; w < nq; ++w) {
        const std::size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) % nq;
        {
            std::lock_guard<std::mutex> lock(queues_[q]->mutex);
            queues_[q]->tasks.emplace_back([batch] { batch->drain(); });
        }
    }
    dispatches_.fetch_add(1, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        ++wake_epoch_;
        wake_.notify_all();
    }

    // The caller participates instead of blocking.
    t_in_pool_task = true;
    batch->drain();
    t_in_pool_task = false;

    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(lock, [&] { return batch->remaining.load(std::memory_order_acquire) == 0; });
    if (batch->error) std::rethrow_exception(batch->error);
}

int ThreadPool::default_thread_count() {
    if (const char* env = std::getenv("ATMOR_NUM_THREADS")) {
        const int n = std::atoi(env);
        if (n >= 1) return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {
std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;
}  // namespace

ThreadPool& ThreadPool::global() {
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>();
    return *g_global_pool;
}

void ThreadPool::set_global_threads(int threads) {
    std::lock_guard<std::mutex> lock(g_global_mutex);
    g_global_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace atmor::util
