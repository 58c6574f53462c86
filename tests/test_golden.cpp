// Golden-trace regression tests: committed reference output traces for the
// fig2 NLTL-voltage and fig4 RF-receiver experiments, compared with a
// tolerance tagged INSIDE each golden file.
//
// The perf gate (scripts/bench_compare.py) only sees the benches' summary
// numbers; a physics regression that keeps the ROM close to a WRONG full
// model sails through it. These tests pin the actual waveforms -- full model
// and ROM -- in ctest, where a stamping, lifting, reduction or integrator
// change that moves the trace beyond the tagged tolerance fails the suite
// directly.
//
// The tolerance is relative to the trace's peak magnitude (the paper's error
// measure) and generous enough for cross-compiler FP-reassociation noise
// while far below any physical change. Regenerate after an INTENDED physics
// change with:
//     ATMOR_REGEN_GOLDEN=1 ./test_golden
// which rewrites the fixtures under tests/golden/ and skips the comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/mixer.hpp"
#include "circuits/nltl.hpp"
#include "circuits/power_grid.hpp"
#include "circuits/rf_receiver.hpp"
#include "circuits/waveforms.hpp"
#include "core/atmor.hpp"
#include "ode/transient.hpp"

namespace atmor {
namespace {

struct GoldenTrace {
    std::string circuit;
    double tol_rel_peak = 0.0;
    std::vector<double> t;
    std::vector<double> y_full;
    std::vector<double> y_rom;
};

std::string golden_path(const std::string& name) {
    return std::string(ATMOR_TESTS_DIR) + "/golden/" + name;
}

bool regen_requested() { return std::getenv("ATMOR_REGEN_GOLDEN") != nullptr; }

void write_golden(const GoldenTrace& g, const std::string& path) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << "# atmor golden trace\n";
    out << "# circuit: " << g.circuit << "\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", g.tol_rel_peak);
    out << "# tol_rel_peak: " << buf << "\n";
    out << "# columns: t y_full y_rom\n";
    for (std::size_t r = 0; r < g.t.size(); ++r) {
        char line[256];
        std::snprintf(line, sizeof(line), "%.17g %.17g %.17g\n", g.t[r], g.y_full[r],
                      g.y_rom[r]);
        out << line;
    }
    ASSERT_TRUE(out) << "short write to " << path;
}

GoldenTrace read_golden(const std::string& path) {
    GoldenTrace g;
    std::ifstream in(path);
    EXPECT_TRUE(in) << "missing golden fixture " << path
                    << " (regenerate with ATMOR_REGEN_GOLDEN=1)";
    if (!in) return g;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        if (line[0] == '#') {
            const auto tag = [&](const char* key) -> std::string {
                const std::string prefix = std::string("# ") + key + ": ";
                return line.rfind(prefix, 0) == 0 ? line.substr(prefix.size()) : "";
            };
            if (!tag("circuit").empty()) g.circuit = tag("circuit");
            if (!tag("tol_rel_peak").empty()) g.tol_rel_peak = std::stod(tag("tol_rel_peak"));
            continue;
        }
        std::istringstream row(line);
        double t = 0, yf = 0, yr = 0;
        row >> t >> yf >> yr;
        EXPECT_FALSE(row.fail()) << "malformed golden row: " << line;
        g.t.push_back(t);
        g.y_full.push_back(yf);
        g.y_rom.push_back(yr);
    }
    return g;
}

/// Compare a freshly computed trace column against the golden one, relative
/// to the golden column's peak magnitude.
void expect_column_close(const std::vector<double>& golden, const std::vector<double>& fresh,
                         double tol_rel_peak, const char* what) {
    ASSERT_EQ(golden.size(), fresh.size()) << what << ": record count changed";
    double peak = 0.0;
    for (double v : golden) peak = std::max(peak, std::abs(v));
    ASSERT_GT(peak, 0.0) << what;
    for (std::size_t r = 0; r < golden.size(); ++r)
        ASSERT_LE(std::abs(golden[r] - fresh[r]), tol_rel_peak * peak)
            << what << " diverges at record " << r << " (t index): golden " << golden[r]
            << " vs fresh " << fresh[r];
}

void run_golden_case(const std::string& fixture, const std::string& circuit_key,
                     const volterra::Qldae& full, const core::MorResult& reduced,
                     const ode::InputFn& input, const ode::TransientOptions& topt,
                     double tol_rel_peak) {
    const ode::TransientResult y_full = ode::simulate(full, input, topt);
    const ode::TransientResult y_rom = ode::simulate(reduced.rom, input, topt);
    ASSERT_EQ(y_full.t.size(), y_rom.t.size());

    GoldenTrace fresh;
    fresh.circuit = circuit_key;
    fresh.tol_rel_peak = tol_rel_peak;
    fresh.t = y_full.t;
    for (std::size_t r = 0; r < y_full.t.size(); ++r) {
        fresh.y_full.push_back(y_full.output(static_cast<int>(r)));
        fresh.y_rom.push_back(y_rom.output(static_cast<int>(r)));
    }

    const std::string path = golden_path(fixture);
    if (regen_requested()) {
        write_golden(fresh, path);
        GTEST_SKIP() << "regenerated " << path;
    }
    const GoldenTrace golden = read_golden(path);
    ASSERT_FALSE(golden.t.empty());
    EXPECT_EQ(golden.circuit, circuit_key) << "fixture belongs to a different circuit";
    ASSERT_GT(golden.tol_rel_peak, 0.0);
    expect_column_close(golden.t, fresh.t, 1e-12, "time grid");
    expect_column_close(golden.y_full, fresh.y_full, golden.tol_rel_peak, "full-model trace");
    expect_column_close(golden.y_rom, fresh.y_rom, golden.tol_rel_peak, "ROM trace");
}

TEST(Golden, Fig2NltlVoltageTrace) {
    // The fig2 configuration at reduced scale (40 stages, 10 time units) so
    // the pinned physics -- voltage-type source, bilinear D1 lifting, stiff
    // exponential diodes -- runs in well under a second.
    circuits::NltlOptions copt;
    copt.stages = 40;
    const volterra::Qldae full = circuits::voltage_source_line(copt).to_qldae();

    core::AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.k3 = 2;
    mor.expansion_points = {la::Complex(1.0, 0.0)};
    const core::MorResult reduced = core::reduce_associated(full, mor);

    ode::TransientOptions topt;
    topt.t_end = 10.0;
    topt.dt = 2e-3;
    topt.record_stride = 100;
    run_golden_case("fig2_nltl_voltage.txt", copt.key(), full, reduced,
                    circuits::sine_input(0.2, 0.1), topt, 5e-6);
}

TEST(Golden, Fig4RfReceiverTrace) {
    // The fig4 two-tone MISO receiver at reduced section counts (order 43
    // instead of 173): same stages, same weakly nonlinear transconductances,
    // same interferer coupling path.
    circuits::RfReceiverOptions copt;
    copt.lna_sections = 10;
    copt.if_sections = 11;
    copt.pa_sections = 10;
    const volterra::Qldae full = circuits::rf_receiver(copt);

    core::AtMorOptions mor;
    mor.k1 = 4;
    mor.k2 = 3;
    mor.k3 = 1;
    const core::MorResult reduced = core::reduce_associated(full, mor);

    ode::TransientOptions topt;
    topt.t_end = 10.0;
    topt.dt = 5e-3;
    topt.record_stride = 50;
    const ode::InputFn input = circuits::combine_inputs(
        {circuits::sine_input(0.2, 0.05), circuits::sine_input(0.06, 0.12)});
    run_golden_case("fig4_rf_receiver.txt", copt.key(), full, reduced, input, topt, 5e-6);
}

TEST(Golden, PowerGridIrDropTrace) {
    // The power-delivery mesh at ctest scale (10x10 mesh; the n >= 5000
    // regime is bench_scenarios territory): a supply-noise current pulse
    // into the corner via, observing the far-corner IR drop through the ESD
    // clamp nonlinearity.
    circuits::PowerGridOptions copt;
    copt.rows = 10;
    copt.cols = 10;
    const volterra::Qldae full = circuits::power_grid(copt).to_qldae();

    core::AtMorOptions mor;
    mor.k1 = 6;
    mor.k2 = 3;
    mor.expansion_points = {la::Complex(1.0, 0.0)};
    const core::MorResult reduced = core::reduce_associated(full, mor);

    ode::TransientOptions topt;
    topt.t_end = 8.0;
    topt.dt = 2e-3;
    topt.record_stride = 80;
    run_golden_case("power_grid_ir_drop.txt", copt.key(), full, reduced,
                    circuits::pulse_input(0.4, 0.5, 0.5, 4.0, 0.5), topt, 5e-6);
}

TEST(Golden, MixerTwoToneTrace) {
    // The mixer under a genuinely multi-tone drive: a two-tone RF port
    // against a single-tone LO, so the pinned trace carries the wa +- wb
    // mixing products the family exists for.
    circuits::MixerOptions copt;
    const volterra::Qldae full = circuits::mixer(copt);

    core::AtMorOptions mor;
    mor.k1 = 5;
    mor.k2 = 3;
    mor.expansion_points = {la::Complex(1.0, 0.0)};
    const core::MorResult reduced = core::reduce_associated(full, mor);

    ode::TransientOptions topt;
    topt.t_end = 12.0;
    topt.dt = 2e-3;
    topt.record_stride = 100;
    const ode::InputFn input = circuits::combine_inputs(
        {circuits::multi_tone_input({0.12, 0.08}, {0.18, 0.3}, {0.0, 0.7}),
         circuits::sine_input(0.1, 0.13)});
    run_golden_case("mixer_two_tone.txt", copt.key(), full, reduced, input, topt, 5e-6);
}

}  // namespace
}  // namespace atmor
