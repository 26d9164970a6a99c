// Baseline MPPT techniques the paper compares against (Sections I, IV-B).
//
// Overhead powers and minimum operating illuminance follow the figures
// the paper quotes for each reference system:
//   [2] hill-climbing / incremental conductance: needs a microcontroller
//       ("fine-grained control of the system"), ~1 mW class.
//   [4] Simjee & Chou: FOCV with a 100 ms sampling period, ~2 mW total.
//   [5] Brunelli et al. (DATE'08): pilot solar cell, ~300 uW when 'off'.
//   [6] AmbiMax: photodetector-controlled, ~500 uA.
//   [7] indoor harvesters that "ignore MPPT completely".
//   [8] fixed-voltage operation using a voltage-reference IC (whose
//       current exceeds the proposed S&H's 8 uA).
#pragma once

#include "common/step_laws.hpp"
#include "mppt/controller.hpp"

namespace focv::mppt {

/// Perturb & observe hill climbing [2]. Senses: own terminal power
/// (microcontroller with ADC). Tracks the true MPP but cannot run from
/// indoor light levels.
class HillClimbingController : public MpptController {
 public:
  struct Params {
    double voltage_step = 0.05;      ///< perturbation [V]
    double update_period = 1.0;      ///< perturbation cadence [s]
    double start_voltage = 2.0;      ///< initial operating point [V]
    double max_voltage = 8.0;        ///< slew limit [V]
    double overhead = 1.0e-3;        ///< microcontroller + ADC [W]
    double min_lux = 1500.0;         ///< supply floor of the uC circuitry
  };

  explicit HillClimbingController(Params params);
  HillClimbingController() : HillClimbingController(Params{}) {}

  [[nodiscard]] std::string name() const override { return "hill climbing (P&O) [2]"; }
  [[nodiscard]] std::unique_ptr<MpptController> clone() const override {
    return std::make_unique<HillClimbingController>(*this);
  }
  [[nodiscard]] ControlOutput step(const SensedInputs& inputs) override;
  [[nodiscard]] double overhead_power() const override { return params_.overhead; }
  [[nodiscard]] double minimum_operating_lux() const override { return params_.min_lux; }
  void reset() override;

  [[nodiscard]] const Params& params() const { return params_; }
  /// Everything step() carries from one perturbation to the next: the
  /// fleet's hill-climber lanes (fleet/hill_lanes.cpp) start a node's
  /// lane from it and run the same update (laws::pando_step) on it.
  using State = laws::PandoState<double, bool>;
  [[nodiscard]] const State& state() const { return state_; }

 private:
  Params params_;
  State state_{};
};

/// Incremental conductance [2]: same hardware class as P&O, different
/// update law (compares dI/dV against -I/V to find the MPP).
class IncrementalConductanceController : public MpptController {
 public:
  struct Params {
    double voltage_step = 0.05;
    double update_period = 1.0;
    double start_voltage = 2.0;
    double max_voltage = 8.0;
    double tolerance = 1e-7;     ///< conductance match tolerance [A/V]
    double overhead = 1.0e-3;
    double min_lux = 1500.0;
  };

  explicit IncrementalConductanceController(Params params);
  IncrementalConductanceController() : IncrementalConductanceController(Params{}) {}

  [[nodiscard]] std::string name() const override { return "incremental conductance [2]"; }
  [[nodiscard]] std::unique_ptr<MpptController> clone() const override {
    return std::make_unique<IncrementalConductanceController>(*this);
  }
  [[nodiscard]] ControlOutput step(const SensedInputs& inputs) override;
  [[nodiscard]] double overhead_power() const override { return params_.overhead; }
  [[nodiscard]] double minimum_operating_lux() const override { return params_.min_lux; }
  void reset() override;

 private:
  Params params_;
  double voltage_;
  double prev_v_ = 0.0;
  double prev_i_ = 0.0;
  bool has_prev_ = false;
  double next_update_ = 0.0;
};

/// Pilot-cell FOCV [5]: a small matched cell stays open-circuit
/// permanently; the main cell is regulated at k * pilot scaling. No
/// disconnection of the main cell, but the pilot's Voc differs from the
/// main cell's (mismatch, different mounting) and the support circuitry
/// burns ~300 uW.
class PilotCellFocvController : public MpptController {
 public:
  struct Params {
    double k = 0.60;
    double pilot_scale = 1.0;     ///< main Voc / pilot Voc nominal ratio
    double mismatch = 0.97;       ///< systematic pilot tracking error
    double overhead = 300e-6;     ///< [W], per [5]
    double min_lux = 500.0;
  };

  explicit PilotCellFocvController(Params params);
  PilotCellFocvController() : PilotCellFocvController(Params{}) {}

  [[nodiscard]] std::string name() const override { return "pilot-cell FOCV [5]"; }
  [[nodiscard]] std::unique_ptr<MpptController> clone() const override {
    return std::make_unique<PilotCellFocvController>(*this);
  }
  [[nodiscard]] ControlOutput step(const SensedInputs& inputs) override;
  [[nodiscard]] double overhead_power() const override { return params_.overhead; }
  [[nodiscard]] double minimum_operating_lux() const override { return params_.min_lux; }
  [[nodiscard]] MacroLaw macro_law() const override { return MacroLaw::kMemoryless; }
  [[nodiscard]] const Params& params() const { return params_; }
  void reset() override {}

 private:
  Params params_;
};

/// Photodetector proxy (AmbiMax-style [6]): a light sensor estimates the
/// illuminance and an analog law maps it to an operating voltage:
///   Vset = a + b * ln(lux).
class PhotodetectorController : public MpptController {
 public:
  struct Params {
    double a = 0.0;               ///< intercept of the Vset law [V]
    double b = 0.0;               ///< slope per ln(lux) [V]
    double sensor_gain_error = 1.05;  ///< photodiode calibration error
    double overhead = 1.65e-3;    ///< 500 uA at 3.3 V, per [6]
    double min_lux = 2500.0;
  };

  explicit PhotodetectorController(Params params);
  PhotodetectorController() : PhotodetectorController(Params{}) {}

  /// Build the Vset law through two (lux, vmpp) calibration points.
  static Params calibrate(double lux1, double vmpp1, double lux2, double vmpp2, Params base);
  static Params calibrate(double lux1, double vmpp1, double lux2, double vmpp2) {
    return calibrate(lux1, vmpp1, lux2, vmpp2, Params{});
  }

  [[nodiscard]] std::string name() const override { return "photodetector proxy [6]"; }
  [[nodiscard]] std::unique_ptr<MpptController> clone() const override {
    return std::make_unique<PhotodetectorController>(*this);
  }
  [[nodiscard]] ControlOutput step(const SensedInputs& inputs) override;
  [[nodiscard]] double overhead_power() const override { return params_.overhead; }
  [[nodiscard]] double minimum_operating_lux() const override { return params_.min_lux; }
  [[nodiscard]] MacroLaw macro_law() const override { return MacroLaw::kMemoryless; }
  void reset() override {}

 private:
  Params params_;
};

/// FOCV with frequent periodic disconnection [4]: the cell is
/// open-circuited every `period` for `sample_duration`, which at 100 ms
/// costs a large disconnect fraction on top of a ~2 mW controller.
class PeriodicDisconnectFocvController : public MpptController {
 public:
  struct Params {
    double k = 0.60;
    double period = 100e-3;          ///< [s], per [4]
    double sample_duration = 5e-3;   ///< [s]
    double overhead = 2.0e-3;        ///< [W], per [4]
    double min_lux = 3000.0;
  };

  explicit PeriodicDisconnectFocvController(Params params);
  PeriodicDisconnectFocvController() : PeriodicDisconnectFocvController(Params{}) {}

  [[nodiscard]] std::string name() const override { return "100 ms periodic FOCV [4]"; }
  [[nodiscard]] std::unique_ptr<MpptController> clone() const override {
    return std::make_unique<PeriodicDisconnectFocvController>(*this);
  }
  [[nodiscard]] ControlOutput step(const SensedInputs& inputs) override;
  [[nodiscard]] double overhead_power() const override { return params_.overhead; }
  [[nodiscard]] double minimum_operating_lux() const override { return params_.min_lux; }
  void reset() override { held_voc_ = 0.0; }

 private:
  Params params_;
  double held_voc_ = 0.0;
};

/// Fixed-voltage operation [8]: the cell is held at a constant voltage
/// produced by a reference IC; correct only near the design illuminance.
class FixedVoltageController : public MpptController {
 public:
  struct Params {
    double voltage = 3.0;        ///< design operating point [V]
    double overhead = 36.3e-6;   ///< 11 uA reference IC at 3.3 V [W]
    double min_lux = 150.0;
  };

  explicit FixedVoltageController(Params params);
  FixedVoltageController() : FixedVoltageController(Params{}) {}

  [[nodiscard]] std::string name() const override { return "fixed voltage [8]"; }
  [[nodiscard]] std::unique_ptr<MpptController> clone() const override {
    return std::make_unique<FixedVoltageController>(*this);
  }
  [[nodiscard]] ControlOutput step(const SensedInputs& inputs) override;
  [[nodiscard]] double overhead_power() const override { return params_.overhead; }
  [[nodiscard]] double minimum_operating_lux() const override { return params_.min_lux; }
  [[nodiscard]] MacroLaw macro_law() const override { return MacroLaw::kMemoryless; }
  [[nodiscard]] const Params& params() const { return params_; }
  void reset() override {}

 private:
  Params params_;
};

/// No MPPT [7]: the cell is wired (through a diode) to the energy store
/// and therefore operates at the store voltage.
class DirectConnectionController : public MpptController {
 public:
  struct Params {
    double diode_drop = 0.25;  ///< Schottky [V]
    double overhead = 0.0;
  };

  explicit DirectConnectionController(Params params);
  DirectConnectionController() : DirectConnectionController(Params{}) {}

  [[nodiscard]] std::string name() const override { return "no MPPT, direct [7]"; }
  [[nodiscard]] std::unique_ptr<MpptController> clone() const override {
    return std::make_unique<DirectConnectionController>(*this);
  }
  [[nodiscard]] ControlOutput step(const SensedInputs& inputs) override;
  [[nodiscard]] double overhead_power() const override { return params_.overhead; }
  [[nodiscard]] MacroLaw macro_law() const override { return MacroLaw::kTracksStore; }
  void reset() override {}

 private:
  Params params_;
};

}  // namespace focv::mppt
