// Linear passive elements: resistor, capacitor, inductor.
#pragma once

#include "circuit/device.hpp"

namespace focv::circuit {

/// Ideal linear resistor between nodes a and b.
class Resistor : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double resistance_ohm);

  void stamp(StampContext& ctx) override;

  /// Change the value between analyses (e.g. trim potentiometer sweeps).
  void set_resistance(double resistance_ohm);
  [[nodiscard]] double resistance() const { return resistance_; }

  /// Current a -> b at a solution [A].
  [[nodiscard]] double current(const Solution& s) const {
    return (s.v(a_) - s.v(b_)) / resistance_;
  }

  [[nodiscard]] std::string netlist_card(
      const std::function<std::string(NodeId)>& names) const override;

 private:
  NodeId a_, b_;
  double resistance_;
};

/// Linear capacitor with optional initial condition.
class Capacitor : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance_farad,
            double initial_voltage = 0.0);

  void stamp(StampContext& ctx) override;
  void begin_step(double time, double dt) override;
  void accept_step(const Solution& solution) override;
  void set_dc_state(const Solution& solution) override;
  /// Admittance j*omega*C between a and b.
  void stamp_ac(const Solution& op, StampContext& g, StampContext& jw) override;

  [[nodiscard]] double capacitance() const { return capacitance_; }
  /// Committed capacitor voltage (a - b) from the last accepted step [V].
  [[nodiscard]] double voltage() const { return v_state_; }
  /// Reset the state (e.g. before re-running a transient).
  void set_initial_voltage(double v);

  [[nodiscard]] std::string netlist_card(
      const std::function<std::string(NodeId)>& names) const override;

 private:
  NodeId a_, b_;
  double capacitance_;
  double v_state_;       // committed voltage
  double i_state_ = 0.0;  // committed current (for trapezoidal)
  double dt_ = 0.0;
  // Companion values used in the current step (recomputed in stamp).
  double geq_ = 0.0;
  double ieq_ = 0.0;
};

/// Linear inductor (one MNA branch variable).
class Inductor : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double inductance_henry,
           double initial_current = 0.0);

  [[nodiscard]] int branch_count() const override { return 1; }
  void set_branch_offset(int offset) override { branch_ = offset; }

  void stamp(StampContext& ctx) override;
  void begin_step(double time, double dt) override;
  void accept_step(const Solution& solution) override;
  void set_dc_state(const Solution& solution) override;
  /// Branch equation va - vb - j*omega*L*i = 0.
  void stamp_ac(const Solution& op, StampContext& g, StampContext& jw) override;

  /// Committed inductor current a -> b [A].
  [[nodiscard]] double current() const { return i_state_; }
  [[nodiscard]] int branch_index() const { return branch_; }

  [[nodiscard]] std::string netlist_card(
      const std::function<std::string(NodeId)>& names) const override;

 private:
  NodeId a_, b_;
  double inductance_;
  double i_state_;
  double v_state_ = 0.0;
  double dt_ = 0.0;
  int branch_ = -1;
};

}  // namespace focv::circuit
