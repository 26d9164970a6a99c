// Averaged model of the modified buck-boost switching converter (Fig. 3,
// based on the circuit of [8]).
//
// In normal operation the converter holds its input at the voltage
// commanded by HELD_SAMPLE and moves the harvested energy into the
// store. For multi-hour simulations a switch-level model is infeasible
// (tens of kHz switching); the standard practice is an averaged
// efficiency model, which is what this is. The switch-level behaviour is
// exercised separately by the circuit-level netlists in focv::core.
#pragma once

#include "common/require.hpp"
#include "common/step_laws.hpp"

namespace focv::power {

/// Averaged buck-boost converter.
class BuckBoostConverter {
 public:
  struct Params {
    double efficiency_peak = 0.82;      ///< mid-load efficiency
    double fixed_loss = 2e-6;           ///< gate-drive/control floor [W]
    double input_power_knee = 20e-6;    ///< below this, efficiency rolls off [W]
    double min_input_voltage = 0.8;     ///< cannot convert below this [V]
    double max_input_voltage = 12.0;    ///< absolute rating [V]
  };

  explicit BuckBoostConverter(Params params) : params_(params) {
    require(params_.efficiency_peak > 0.0 && params_.efficiency_peak <= 1.0,
            "BuckBoostConverter: efficiency_peak in (0,1]");
    require(params_.fixed_loss >= 0.0, "BuckBoostConverter: fixed_loss must be >= 0");
  }
  BuckBoostConverter() : BuckBoostConverter(Params{}) {}

  /// Power delivered to the store for the given input power and voltage
  /// (zero below the input power or outside the voltage rating). The
  /// fleet's lanes run the same template (common/step_laws.hpp).
  [[nodiscard]] double output_power(double input_power, double input_voltage) const {
    return laws::buck_boost_output<laws::Scalar>(true, params_, input_power, input_voltage);
  }

  /// Converter efficiency at the given operating point.
  [[nodiscard]] double efficiency(double input_power, double input_voltage) const {
    if (input_power <= 0.0) return 0.0;
    return output_power(input_power, input_voltage) / input_power;
  }

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace focv::power
