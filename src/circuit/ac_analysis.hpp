// AC small-signal analysis.
//
// Linearises the circuit at its DC operating point and solves the
// complex MNA system  (G + j*w*C) X = B  across a frequency sweep.
// Reactive elements contribute their admittance at each frequency;
// nonlinear devices contribute the same linearised stamps they would
// hand Newton at the operating point. One independent source is
// designated as the AC stimulus (magnitude 1, phase 0); every node
// voltage is then a transfer function relative to it.
//
// Used by the converter-regulation-loop stability bench: the shunt
// regulator of core::build_fig3_system is first-order by construction,
// and the AC sweep shows it (the earlier two-pole error-amplifier stage
// was unstable and showed up as a supply-current limit cycle).
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "circuit/dc_analysis.hpp"

namespace focv::circuit {

/// Result of an AC sweep: per-frequency complex node voltages.
class AcSweep {
 public:
  AcSweep(std::vector<std::string> signal_names) : names_(std::move(signal_names)) {}

  void append(double frequency_hz, std::vector<std::complex<double>> values);

  [[nodiscard]] const std::vector<double>& frequency() const { return frequency_; }
  [[nodiscard]] std::size_t size() const { return frequency_.size(); }

  /// Complex response of a signal across the sweep.
  [[nodiscard]] std::vector<std::complex<double>> response(const std::string& name) const;

  /// Magnitude in dB / phase in degrees of a signal across the sweep.
  [[nodiscard]] std::vector<double> magnitude_db(const std::string& name) const;
  [[nodiscard]] std::vector<double> phase_deg(const std::string& name) const;

  /// -3 dB corner frequency of a signal relative to its lowest-frequency
  /// magnitude (linear interpolation in log-frequency); -1 if the
  /// response never falls 3 dB within the sweep.
  [[nodiscard]] double corner_frequency(const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& signal_names() const { return names_; }

 private:
  [[nodiscard]] std::size_t index_of(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<double> frequency_;
  std::vector<std::vector<std::complex<double>>> values_;  // [point][signal]
};

/// Options for the AC analysis.
struct AcOptions {
  double f_start = 1.0;        ///< [Hz]
  double f_stop = 1e6;         ///< [Hz]
  int points_per_decade = 10;
  std::string stimulus;        ///< name of the VoltageSource or CurrentSource driven with 1 (unit) AC
  DcOptions dc;                ///< operating-point controls
  /// Optional seed for the operating-point Newton (e.g. the final state
  /// of a settling transient, whose unknown ordering matches). Useful
  /// for stiff feedback circuits where a cold DC solve cycles.
  const Vector* initial_guess = nullptr;
};

/// Run the sweep. The circuit's operating point is solved first; every
/// device then contributes its Device::stamp_ac at that point, reactive
/// ones as admittances. Capacitor voltages and inductor currents are left
/// as they were, so a later transient from initial conditions is
/// unaffected. Throws PreconditionError when `stimulus` names no
/// independent source in the circuit.
[[nodiscard]] AcSweep ac_analyze(Circuit& circuit, const AcOptions& options);

}  // namespace focv::circuit
