#include "circuits/waveforms.hpp"

#include <cmath>

#include "util/check.hpp"

namespace atmor::circuits {

using la::Vec;

ode::InputFn step_input(double amplitude, double t_on) {
    return [=](double t) { return Vec{t >= t_on ? amplitude : 0.0}; };
}

ode::InputFn pulse_input(double amplitude, double t_on, double rise, double t_off,
                         double fall) {
    ATMOR_REQUIRE(rise > 0.0 && fall > 0.0 && t_off >= t_on + rise,
                  "pulse_input: inconsistent pulse timing");
    return [=](double t) {
        double v = 0.0;
        if (t >= t_on && t < t_on + rise)
            v = amplitude * (t - t_on) / rise;
        else if (t >= t_on + rise && t < t_off)
            v = amplitude;
        else if (t >= t_off && t < t_off + fall)
            v = amplitude * (1.0 - (t - t_off) / fall);
        return Vec{v};
    };
}

ode::InputFn sine_input(double amplitude, double frequency_hz) {
    const double w = 2.0 * M_PI * frequency_hz;
    return [=](double t) { return Vec{amplitude * std::sin(w * t)}; };
}

ode::InputFn surge_input(double amplitude, double tau_rise, double tau_decay) {
    ATMOR_REQUIRE(tau_decay > tau_rise && tau_rise > 0.0,
                  "surge_input: need tau_decay > tau_rise > 0");
    // Peak of e^{-t/td} - e^{-t/tr} occurs at t* = ln(td/tr) * tr*td/(td-tr).
    const double t_peak = std::log(tau_decay / tau_rise) * tau_rise * tau_decay /
                          (tau_decay - tau_rise);
    const double peak = std::exp(-t_peak / tau_decay) - std::exp(-t_peak / tau_rise);
    const double scale = amplitude / peak;
    return [=](double t) {
        if (t <= 0.0) return Vec{0.0};
        return Vec{scale * (std::exp(-t / tau_decay) - std::exp(-t / tau_rise))};
    };
}

ode::InputFn multi_tone_input(std::vector<double> amplitudes, std::vector<double> freqs_hz,
                              std::vector<double> phases) {
    ATMOR_REQUIRE(!amplitudes.empty(), "multi_tone_input: need at least one tone");
    ATMOR_REQUIRE(freqs_hz.size() == amplitudes.size(),
                  "multi_tone_input: amplitudes and freqs_hz length mismatch");
    ATMOR_REQUIRE(phases.empty() || phases.size() == amplitudes.size(),
                  "multi_tone_input: phases length mismatch");
    if (phases.empty()) phases.assign(amplitudes.size(), 0.0);
    std::vector<double> omegas(freqs_hz.size());
    for (std::size_t k = 0; k < freqs_hz.size(); ++k) omegas[k] = 2.0 * M_PI * freqs_hz[k];
    return [amps = std::move(amplitudes), omegas = std::move(omegas),
            phases = std::move(phases)](double t) {
        double v = 0.0;
        for (std::size_t k = 0; k < amps.size(); ++k)
            v += amps[k] * std::sin(omegas[k] * t + phases[k]);
        return Vec{v};
    };
}

ode::InputFn am_input(double amplitude, double carrier_hz, double mod_hz, double depth) {
    ATMOR_REQUIRE(depth >= 0.0 && depth <= 1.0, "am_input: depth must be in [0, 1]");
    ATMOR_REQUIRE(carrier_hz > 0.0, "am_input: carrier frequency must be positive");
    const double wc = 2.0 * M_PI * carrier_hz;
    const double wm = 2.0 * M_PI * mod_hz;
    return [=](double t) {
        return Vec{amplitude * (1.0 + depth * std::sin(wm * t)) * std::sin(wc * t)};
    };
}

ode::InputFn combine_inputs(std::vector<ode::InputFn> components) {
    ATMOR_REQUIRE(!components.empty(), "combine_inputs: empty component list");
    return [comps = std::move(components)](double t) {
        Vec u;
        u.reserve(comps.size());
        for (const auto& c : comps) {
            const Vec v = c(t);
            u.insert(u.end(), v.begin(), v.end());
        }
        return u;
    };
}

}  // namespace atmor::circuits
