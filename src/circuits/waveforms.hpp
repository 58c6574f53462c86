// Input waveform factories for the transient experiments.
#pragma once

#include "ode/transient.hpp"

namespace atmor::circuits {

/// u(t) = amplitude for t >= t_on, else 0.
ode::InputFn step_input(double amplitude, double t_on = 0.0);

/// Trapezoidal pulse: rises over [t_on, t_on+rise], holds until t_off, falls
/// over [t_off, t_off+fall].
ode::InputFn pulse_input(double amplitude, double t_on, double rise, double t_off, double fall);

/// u(t) = amplitude * sin(2 pi f t).
ode::InputFn sine_input(double amplitude, double frequency_hz);

/// Standard double-exponential surge amplitude*(e^{-t/tau_decay} - e^{-t/tau_rise}),
/// peak-normalised so max_t u(t) = amplitude (the 9.8 kV surge of Fig. 5).
ode::InputFn surge_input(double amplitude, double tau_rise, double tau_decay);

/// Multi-tone drive u(t) = sum_k amplitudes[k] * sin(2 pi freqs_hz[k] t +
/// phases[k]). The excitation whose steady state carries intermodulation
/// products at every sum/difference frequency (volterra::predict_intermod).
/// All three vectors share one length >= 1; `phases` may be empty (all 0).
ode::InputFn multi_tone_input(std::vector<double> amplitudes, std::vector<double> freqs_hz,
                              std::vector<double> phases = {});

/// Amplitude-modulated envelope u(t) = amplitude * (1 + depth * sin(2 pi
/// f_mod t)) * sin(2 pi f_carrier t), depth in [0, 1]. Spectrally a carrier
/// plus two sidebands at f_carrier +- f_mod -- the narrowband multi-tone.
ode::InputFn am_input(double amplitude, double carrier_hz, double mod_hz, double depth);

/// Multi-input wrapper: each component from its own scalar waveform.
ode::InputFn combine_inputs(std::vector<ode::InputFn> components);

}  // namespace atmor::circuits
