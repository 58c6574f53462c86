// Self-tests for the benchmark's own arithmetic (measure.hpp): percentile
// selection under the >=10-beyond rule, the waveform mix rate, stratified
// drive draws, span self time with nested and overlapping children, the
// max_rate_rps ladder rule, and the steal share read from /proc/stat. run.py
// runs this before every benchmark run; a nonzero exit stops the run.
#include <cmath>
#include <cstdio>
#include <limits>

#include "measure.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
    if (cond) return;
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

perfbench::Samples ramp(int n) {
    perfbench::Samples s;
    for (int i = n; i >= 1; --i) s.add(i);  // unsorted on purpose
    return s;
}

void test_percentiles() {
    using perfbench::Samples;
    const Samples s = ramp(100);
    expect(near(s.median(), 50.5), "median of 1..100 is 50.5");
    expect(near(s.percentile(99.0), 99.0), "nearest-rank p99 of 1..100 is 99");
    expect(Samples::beyond(99.0, 100) == 1, "one sample beyond p99 of 100");
    expect(near(ramp(7).median(), 4.0), "odd-count median is the middle sample");

    // >=10-beyond rule: 1000 samples carry p99 (10 beyond), 999 do not.
    auto t = perfbench::tail_of(ramp(1000));
    expect(t.percentile == 99.0 && t.beyond == 10 && near(t.value, 990.0),
           "1000 samples report p99 with 10 beyond");
    t = perfbench::tail_of(ramp(999));
    expect(t.percentile == 98.0 && t.beyond >= 10, "999 samples fall back to p98");
    t = perfbench::tail_of(ramp(10000));
    expect(t.percentile == 99.9 && t.beyond == 10, "10000 samples report p99.9");
    t = perfbench::tail_of(ramp(200));
    expect(t.percentile == 95.0 && t.beyond == 10 && t.count == 200,
           "200 samples report p95");
    t = perfbench::tail_of(ramp(12));
    expect(t.percentile == 50.0 && t.count == 12, "too few samples report only the median");
    t = perfbench::tail_of(Samples{});
    expect(std::isnan(t.value) && t.count == 0, "empty stream has no tail");

    // Mix rate: kinds / sum of per-kind means.
    Samples a, b;
    for (double v : {0.1, 0.1, 0.4}) a.add(v);
    b.add(0.3);
    expect(near(a.mean(), 0.2), "mean of 0.1, 0.1, 0.4 is 0.2");
    expect(std::isnan(Samples{}.mean()), "mean of no samples is NaN");
    expect(near(perfbench::mix_rate({a, b}), 4.0), "mix rate is 2 / (0.2 + 0.3)");
    expect(std::isnan(perfbench::mix_rate({a, Samples{}})), "a kind without samples gives NaN");

    // Stratified drives: drive k of 4 lands in the k-th quarter of every range.
    std::mt19937_64 rng(7);
    bool in_strata = true;
    for (int k = 0; k < 4; ++k) {
        const perfbench::DriveDraw d{rng, k, 4};
        for (int rep = 0; rep < 100; ++rep) {
            const double v = d(4.0, 12.0);
            in_strata = in_strata && v >= 4.0 + 2.0 * k && v < 6.0 + 2.0 * k;
        }
    }
    expect(in_strata, "stratified draws stay in their stratum");

    // Host speed: the median kernel time of the samples inside the interval.
    using perfbench::HostSpeed;
    HostSpeed speed;
    const double ref = HostSpeed::kReferenceSeconds;
    speed.record(1.0, ref);
    speed.record(2.0, 2.0 * ref);
    speed.record(3.0, 2.0 * ref);
    speed.record(4.0, 9.0 * ref);
    expect(near(speed.factor(1.5, 4.0), 0.5), "factor of a half-speed interval is 0.5");
    expect(near(speed.factor(0.0, 1.0), 1.0), "a reference-speed sample gives 1");
    expect(std::isnan(speed.factor(5.0, 6.0)), "no samples in the interval gives NaN");
}

void test_self_time() {
    using perfbench::Span;
    // root [0, 10] with children [1, 3] and [2, 6] (overlap -> covers 1..6)
    // and a grandchild [4, 5] that must NOT be subtracted from the root.
    std::vector<Span> spans = {
        {"core.reduce", 0.0, 10.0, -1, 7},
        {"volterra.moments", 1.0, 3.0, 0, 7},
        {"la.orth", 2.0, 6.0, 0, 7},
        {"la.kernel", 4.0, 5.0, 2, 7},
        {"rom.save", 9.5, 12.0, 0, 7},  // clipped to the parent's end
    };
    expect(near(perfbench::self_time(spans, 0), 10.0 - 5.0 - 0.5),
           "root self time subtracts merged, clipped children");
    expect(near(perfbench::self_time(spans, 2), 3.0), "nested child subtracts its own child");
    expect(near(perfbench::self_time(spans, 3), 1.0), "leaf self time is its duration");
    expect(perfbench::layer_of("volterra.a3h3_moments") == "volterra", "layer prefix");

    perfbench::Tracer tracer(true);
    {
        perfbench::Scope outer(tracer, "rom.serve", 42);
        perfbench::Scope inner(tracer, "net.call");
    }
    const auto rec = tracer.spans();
    expect(rec.size() == 2 && rec[1].parent == 0 && rec[1].request == 42,
           "nested scopes record parent and inherit the request id");
    perfbench::Tracer off(false);
    { perfbench::Scope s(off, "rom.serve"); }
    expect(off.spans().empty(), "a disabled tracer records nothing");
}

void test_steal() {
    using perfbench::parse_cpu_ticks;
    const auto a = parse_cpu_ticks("cpu  100 5 20 900 3 1 2 30 0 0");
    expect(near(a.busy, 158.0) && near(a.steal, 30.0), "busy sums the non-idle columns");
    const auto b = parse_cpu_ticks("cpu  160 5 30 950 3 1 2 60 0 0");
    expect(near(perfbench::steal_share(a, b), 0.3), "30 of 100 wanted ticks stolen");
    expect(perfbench::steal_share(a, a) == 0.0, "no busy time gives no steal");
    expect(near(parse_cpu_ticks("cpu 7 0 3").busy, 10.0), "short lines count missing as 0");
}

perfbench::Rung make_rung(double rate, int n, double latency, double lag_start, double lag_step) {
    perfbench::Rung r;
    r.rate = rate;
    r.offered_rate = rate;
    for (int i = 0; i < n; ++i) {
        r.latency.add(latency);
        r.lag.push_back(lag_start + lag_step * i);
    }
    return r;
}

void test_ladder() {
    using perfbench::LadderLimits;
    using perfbench::Rung;
    const LadderLimits lim{0.020, 0.005};
    std::vector<Rung> rungs = {make_rung(250, 500, 0.001, 0.0, 0.0),
                               make_rung(500, 1000, 0.002, 0.0, 0.0),
                               make_rung(1000, 2000, 0.030, 0.0, 0.0),  // misses the limit
                               make_rung(2000, 4000, 0.001, 0.0, 0.0)};
    expect(perfbench::highest_passing_rung(rungs, lim) == 1,
           "a missed latency limit stops the ladder");

    rungs[2] = make_rung(1000, 2000, 0.001, 0.0, 1e-5);  // lag grows 20 ms over the rung
    expect(!perfbench::lag_flat(rungs[2].lag, lim.lag_growth), "growing lag is detected");
    expect(perfbench::highest_passing_rung(rungs, lim) == 1, "growing lag fails the rung");

    rungs[2] = make_rung(1000, 2000, 0.001, 0.003, 0.0);  // late but steady
    expect(perfbench::highest_passing_rung(rungs, lim) == 3, "flat lag passes");

    // Refused requests count as misses: 11 failures in 1000 push p99 to inf.
    rungs[1].failed = 11;
    expect(std::isinf(perfbench::rung_p99(rungs[1])), "failures count as infinite latency");
    expect(perfbench::highest_passing_rung(rungs, lim) == 0, "refusals fail the rung");
    rungs[1].failed = 5;  // under 1% of 1005: p99 still a real sample
    expect(perfbench::highest_passing_rung(rungs, lim) == 3, "a few refusals stay under p99");

    rungs[0] = make_rung(250, 500, 0.5, 0.0, 0.0);
    expect(perfbench::highest_passing_rung(rungs, lim) == -1, "failing lowest rung gives -1");
}

}  // namespace

int main() {
    test_percentiles();
    test_self_time();
    test_ladder();
    test_steal();
    if (failures != 0) {
        std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
        return 1;
    }
    std::fprintf(stderr, "perfbench selftest: ok\n");
    return 0;
}
