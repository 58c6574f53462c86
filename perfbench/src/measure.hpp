// Measurement arithmetic of the repo benchmark: percentiles from raw samples,
// span self time, and the open-loop rate-ladder rule. Header-only and free of
// library dependencies so perfbench_selftest pins it on its own.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles from raw samples.
// ---------------------------------------------------------------------------

/// One per-operation measurement stream. Every sample is kept: percentiles
/// are read from the sorted samples, never from histogram bucket edges.
class Samples {
public:
    void add(double v) { values_.push_back(v); }
    void merge(const Samples& other) {
        values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    }
    [[nodiscard]] std::size_t count() const { return values_.size(); }
    [[nodiscard]] bool empty() const { return values_.empty(); }

    /// Arithmetic mean; NaN when empty.
    [[nodiscard]] double mean() const {
        if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
        double sum = 0.0;
        for (double v : values_) sum += v;
        return sum / static_cast<double>(values_.size());
    }

    /// Middle sample (mean of the two middle samples for an even count);
    /// NaN when empty.
    [[nodiscard]] double median() const {
        if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
        std::vector<double> s = sorted();
        const std::size_t n = s.size();
        return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
    }

    /// Nearest-rank percentile p in (0, 100]: the sample at sorted index
    /// ceil(p/100 * n) - 1. NaN when empty.
    [[nodiscard]] double percentile(double p) const {
        if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
        std::vector<double> s = sorted();
        return s[rank_index(p, s.size())];
    }

    /// Samples strictly after the nearest-rank position of percentile p.
    [[nodiscard]] static std::size_t beyond(double p, std::size_t n) {
        return n == 0 ? 0 : n - 1 - rank_index(p, n);
    }

    [[nodiscard]] static std::size_t rank_index(double p, std::size_t n) {
        const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
        const double clamped = std::min(std::max(r, 1.0), static_cast<double>(n));
        return static_cast<std::size_t>(clamped) - 1;
    }

private:
    [[nodiscard]] std::vector<double> sorted() const {
        std::vector<double> s = values_;
        std::sort(s.begin(), s.end());
        return s;
    }

    std::vector<double> values_;
};

/// The tail a timing is reported with: the highest percentile of a fixed
/// candidate list that still has at least `min_beyond` samples past it.
struct Tail {
    double percentile = 50.0;  ///< chosen percentile
    double value = 0.0;        ///< its sample value
    std::size_t beyond = 0;    ///< samples strictly past it
    std::size_t count = 0;     ///< total samples
};

inline constexpr double kTailCandidates[] = {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0};

/// Highest candidate percentile with >= min_beyond samples past it; p50
/// when the stream is too short for any tail.
inline Tail tail_of(const Samples& s, std::size_t min_beyond = 10) {
    Tail t;
    t.count = s.count();
    if (s.empty()) {
        t.value = std::numeric_limits<double>::quiet_NaN();
        return t;
    }
    for (double p : kTailCandidates) {
        if (Samples::beyond(p, s.count()) >= min_beyond || p == 50.0) {
            t.percentile = p;
            t.value = s.percentile(p);
            t.beyond = Samples::beyond(p, s.count());
            return t;
        }
    }
    return t;
}

// ---------------------------------------------------------------------------
// CPU steal.
// ---------------------------------------------------------------------------

/// Aggregate CPU time of the machine from the first line of /proc/stat, in
/// clock ticks. `busy` is every non-idle column, steal included; `steal` is
/// the time the hypervisor ran something else while a CPU of this guest
/// wanted to run.
struct CpuTicks {
    double busy = 0.0;
    double steal = 0.0;
};

/// Parse "cpu  user nice system idle iowait irq softirq steal ...";
/// missing columns count as zero.
inline CpuTicks parse_cpu_ticks(const std::string& line) {
    std::istringstream in(line);
    std::string label;
    in >> label;
    double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (double& x : v)
        if (!(in >> x)) break;
    CpuTicks t;
    t.busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
    t.steal = v[7];
    return t;
}

inline CpuTicks read_cpu_ticks() {
    std::ifstream f("/proc/stat");
    std::string line;
    std::getline(f, line);
    return line.rfind("cpu ", 0) == 0 ? parse_cpu_ticks(line) : CpuTicks{};
}

/// Share of the wanted CPU time the host withheld between two reads; 0 when
/// nothing ran or /proc/stat is unavailable.
inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
    const double busy = b.busy - a.busy;
    return busy > 0.0 ? std::clamp((b.steal - a.steal) / busy, 0.0, 1.0) : 0.0;
}

/// A wall-clock interval with the host's CPU steal taken out. On a shared
/// VM the host withholds a varying share of the time this guest's CPUs want
/// to run, which stretches compute-bound wall time by the same share; the
/// steal-free time is what the code costs on an uncontended machine.
class StealFreeTimer {
public:
    using Clock = std::chrono::steady_clock;

    StealFreeTimer() : t0_(Clock::now()), c0_(read_cpu_ticks()) {}
    StealFreeTimer(Clock::time_point t0, CpuTicks c0) : t0_(t0), c0_(c0) {}

    [[nodiscard]] double wall() const {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }
    /// Wall seconds so far, scaled by the share of wanted CPU time granted.
    [[nodiscard]] double seconds() const {
        const double w = wall();
        return w * (1.0 - steal_share(c0_, read_cpu_ticks()));
    }

private:
    Clock::time_point t0_;
    CpuTicks c0_;
};

/// CPU seconds the calling thread has used. Time it spends waiting or
/// descheduled (a halted or stolen vCPU) is not in it.
inline double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The host speed probe's kernel. Each round factors and solves a 12x12
/// dense system with partial pivoting (small, branchy and L1-resident, like
/// the Newton steps of the ROM integrators) and makes 512 scattered loads
/// from a 512 KiB table (indirect and L2-resident, like the tensor applies
/// and the sparse solves of the full models). Host contention slows the two
/// by different amounts, and the ROM and full-model transients each
/// followed the mix more closely than either part. Free of the library, so
/// no change to the library moves it.
inline double reference_kernel(int rounds) {
    constexpr int n = 12;
    constexpr std::size_t kTable = 1 << 16, kIndices = 4096, kGathers = 512;
    thread_local const std::vector<double> table(kTable, 1.0);
    thread_local const std::vector<std::uint32_t> index = [] {
        std::vector<std::uint32_t> ix(kIndices);
        std::uint64_t state = 12345;
        for (std::uint32_t& i : ix) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            i = static_cast<std::uint32_t>((state >> 33) % kTable);
        }
        return ix;
    }();
    double solved = 0.0, gathered = 0.0;
    for (int r = 0; r < rounds; ++r) {
        double a[n][n], b[n];
        for (int i = 0; i < n; ++i) {
            b[i] = 1.0 + i + 1e-9 * r;
            for (int j = 0; j < n; ++j) a[i][j] = i == j ? 4.0 : 1.0 / (1 + i + j);
        }
        for (int k = 0; k < n; ++k) {
            int p = k;
            for (int i = k + 1; i < n; ++i)
                if (std::abs(a[i][k]) > std::abs(a[p][k])) p = i;
            if (p != k) {
                for (int j = 0; j < n; ++j) std::swap(a[k][j], a[p][j]);
                std::swap(b[k], b[p]);
            }
            for (int i = k + 1; i < n; ++i) {
                const double f = a[i][k] / a[k][k];
                for (int j = k; j < n; ++j) a[i][j] -= f * a[k][j];
                b[i] -= f * b[k];
            }
        }
        for (int i = n - 1; i >= 0; --i) {
            double s = b[i];
            for (int j = i + 1; j < n; ++j) s -= a[i][j] * b[j];
            b[i] = s / a[i][i];
        }
        solved += b[0];
        const std::size_t base = static_cast<std::size_t>(r) * kGathers;
        for (std::size_t k = 0; k < kGathers; ++k) gathered += table[index[(base + k) % kIndices]];
    }
    return solved + 1e-12 * gathered;
}

/// How fast the host runs this guest's cores. On a shared host the same
/// code ran at about 60% of its usual speed for minutes at a time, in
/// thread CPU time, so with no steal: other tenants on the same physical
/// cores. Every CPU-bound time moves by that factor. The probe times the
/// reference kernel on the calling thread, a millisecond or two per sample,
/// between timed operations; each timed operation is scaled by the factor
/// of the samples taken right before and right after it.
class HostSpeed {
public:
    /// Kernel rounds per sample, and their thread CPU seconds on an
    /// uncontended core of the reference host (Xeon, 4 vCPUs, KVM).
    static constexpr int kRounds = 1000;
    static constexpr double kReferenceSeconds = 0.7e-3;

    /// Time the kernel once; `now` is the caller's clock.
    void sample(double now) {
        thread_local volatile double sink = 0.0;
        const double t0 = thread_cpu_s();
        sink = sink + reference_kernel(kRounds);
        record(now, thread_cpu_s() - t0);
    }
    void record(double at, double seconds) { slices_.emplace_back(at, seconds); }

    /// Reference seconds over the median kernel seconds of the samples taken
    /// in [t0, t1]: 1 on a core as fast as the reference, 0.6 on one at 60%
    /// of its speed. Scale a time by it, divide a rate by it. NaN when no
    /// sample falls in the interval.
    [[nodiscard]] double factor(double t0, double t1) const {
        Samples s;
        for (const auto& [at, seconds] : slices_)
            if (at >= t0 && at <= t1) s.add(seconds);
        return kReferenceSeconds / s.median();
    }
    [[nodiscard]] std::size_t samples() const { return slices_.size(); }

private:
    std::vector<std::pair<double, double>> slices_;  ///< (time, kernel seconds)
};

/// Seeded draws of one drive's parameters. Drive `stratum` of `strata`
/// draws every parameter from that stratum of its range, so `strata` drives,
/// one per stratum, spread over every range the same way whatever the seed.
struct DriveDraw {
    std::mt19937_64& rng;
    int stratum = 0;
    int strata = 1;
    double operator()(double lo, double hi) const {
        const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
        return lo + (hi - lo) * (stratum + u) / strata;
    }
};

/// Waveforms per second of a mix of one waveform of each kind, from
/// per-kind samples of seconds per waveform, each already scaled to the
/// reference host speed: kinds / sum of the kinds' means. Once every sample
/// is scaled by the host speed around it, the mean repeated closer across
/// runs than the median. NaN when a kind has no samples.
inline double mix_rate(const std::vector<Samples>& per_kind) {
    double sum = 0.0;
    for (const Samples& s : per_kind) sum += s.mean();
    return static_cast<double>(per_kind.size()) / sum;
}

// ---------------------------------------------------------------------------
// Spans and self time.
// ---------------------------------------------------------------------------

/// One traced interval: a layer call made by the benchmark's own code.
struct Span {
    std::string name;        ///< "<layer>.<call>", e.g. "core.reduce_associated"
    double start = 0.0;      ///< seconds since the tracer epoch
    double end = 0.0;
    int parent = -1;         ///< index of the enclosing span, -1 at the root
    long request = -1;       ///< request/item id shared by one operation's spans
};

/// Self time of span `index`: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged, and
/// child time outside the parent interval is clipped).
inline double self_time(const std::vector<Span>& spans, int index) {
    const Span& s = spans[static_cast<std::size_t>(index)];
    std::vector<std::pair<double, double>> kids;
    for (const Span& c : spans)
        if (c.parent == index) {
            const double a = std::max(c.start, s.start);
            const double b = std::min(c.end, s.end);
            if (b > a) kids.emplace_back(a, b);
        }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_a = 0.0, cur_b = -std::numeric_limits<double>::infinity();
    for (const auto& [a, b] : kids) {
        if (a > cur_b) {
            if (cur_b > cur_a) covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
        } else {
            cur_b = std::max(cur_b, b);
        }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    return (s.end - s.start) - covered;
}

/// Layer of a span name: the text before the first '.'.
inline std::string layer_of(const std::string& name) {
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

/// In-memory span recorder. Disabled tracers record nothing (the untraced
/// runs pay one branch per scope). Parents are tracked per thread; spans
/// from several threads land in one vector under a mutex and are written
/// out only when the run ends.
class Tracer {
public:
    using Clock = std::chrono::steady_clock;

    explicit Tracer(bool enabled = false) : enabled_(enabled), epoch_(Clock::now()) {}

    void set_enabled(bool on) { enabled_ = on; }

    /// Open a span; returns its index (-1 when disabled).
    int open(const std::string& name, long request = -1) {
        if (!enabled_) return -1;
        const double now = seconds();
        std::lock_guard<std::mutex> lock(mutex_);
        Span s;
        s.name = name;
        s.start = now;
        s.end = now;
        s.parent = stack().empty() ? -1 : stack().back();
        s.request = request >= 0 || s.parent < 0
                        ? request
                        : spans_[static_cast<std::size_t>(s.parent)].request;
        spans_.push_back(std::move(s));
        const int index = static_cast<int>(spans_.size()) - 1;
        stack().push_back(index);
        return index;
    }

    void close(int index) {
        if (index < 0) return;
        const double now = seconds();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(index)].end = now;
        auto& st = stack();
        if (!st.empty() && st.back() == index) st.pop_back();
    }

    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

    /// Snapshot of every recorded span (call after the traced work joined).
    [[nodiscard]] std::vector<Span> spans() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

private:
    /// Per-thread open-span stack. Keyed by tracer so two tracers on one
    /// thread never share parents.
    std::vector<int>& stack() {
        thread_local std::vector<std::pair<const Tracer*, std::vector<int>>> stacks;
        for (auto& [owner, st] : stacks)
            if (owner == this) return st;
        stacks.emplace_back(this, std::vector<int>{});
        return stacks.back().second;
    }

    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span scope.
class Scope {
public:
    Scope(Tracer& tracer, const std::string& name, long request = -1)
        : tracer_(tracer), index_(tracer.open(name, request)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer& tracer_;
    int index_;
};

// ---------------------------------------------------------------------------
// The open-loop ladder rule.
// ---------------------------------------------------------------------------

/// One rung of the fixed-rate ladder, as measured. Latencies run from each
/// request's scheduled send to its response; lag is how late the generator
/// actually sent it. Failed or refused requests are counted, not timed.
struct Rung {
    double rate = 0.0;         ///< nominal arrival rate [1/s]
    double offered_rate = 0.0; ///< arrivals drawn / rung span [1/s]
    Samples latency;           ///< seconds, successful requests only
    std::vector<double> lag;   ///< seconds, every sent request, in schedule order
    long failed = 0;           ///< errors, refusals and wrong answers
};

struct LadderLimits {
    double p99_limit = 0.0;   ///< latency limit on p99 [s]
    double lag_growth = 0.0;  ///< allowed rise of generator lag across a rung [s]
};

/// p99 of a rung where every failed request counts as missing the limit
/// (an infinite latency).
inline double rung_p99(const Rung& r) {
    Samples all = r.latency;
    for (long i = 0; i < r.failed; ++i) all.add(std::numeric_limits<double>::infinity());
    return all.percentile(99.0);
}

/// Generator lag stays flat when the median lag of the last quarter of the
/// rung exceeds that of the first quarter by at most `lag_growth`.
inline bool lag_flat(const std::vector<double>& lag, double lag_growth) {
    if (lag.size() < 8) return true;
    const std::size_t q = lag.size() / 4;
    Samples first, last;
    for (std::size_t i = 0; i < q; ++i) first.add(lag[i]);
    for (std::size_t i = lag.size() - q; i < lag.size(); ++i) last.add(lag[i]);
    return last.median() - first.median() <= lag_growth;
}

inline bool rung_passes(const Rung& r, const LadderLimits& lim) {
    if (r.latency.empty() && r.failed == 0) return false;
    return rung_p99(r) <= lim.p99_limit && lag_flat(r.lag, lim.lag_growth);
}

/// Index of the highest rung that passes with every lower rung passing too
/// (rungs in ascending rate order); -1 when the lowest rung already fails.
inline int highest_passing_rung(const std::vector<Rung>& rungs, const LadderLimits& lim) {
    int best = -1;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        if (!rung_passes(rungs[i], lim)) break;
        best = static_cast<int>(i);
    }
    return best;
}

}  // namespace perfbench
