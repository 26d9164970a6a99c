// Device interface for the MNA (modified nodal analysis) engine.
//
// Every element contributes a linearised "companion model" around the
// current Newton iterate into the MNA matrix G and right-hand side. The
// unknown vector x holds all non-ground node voltages followed by branch
// currents of voltage-defined devices (sources, inductors, amplifier
// outputs).
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "circuit/matrix.hpp"

namespace focv::circuit {

/// Node handle. kGround (0) is the reference node and is not part of x.
using NodeId = int;
inline constexpr NodeId kGround = 0;

/// Integration scheme for reactive companion models.
enum class Integrator {
  kBackwardEuler,  ///< L-stable; used for the first step and after events
  kTrapezoidal,    ///< A-stable, 2nd order; the default for accepted running
};

/// View of the system being assembled, passed to Device::stamp().
///
/// Index convention: node n (n >= 1) maps to row/column n-1; branch
/// variable b maps to row/column (node_count-1) + b.
class StampContext {
 public:
  StampContext(Matrix& g, Vector& rhs, const Vector& x, int node_count)
      : g_(g), rhs_(rhs), x_(x), node_count_(node_count) {}

  double time = 0.0;          ///< current simulation time [s]
  double dt = 0.0;            ///< timestep [s]; 0 for DC analyses
  Integrator integrator = Integrator::kBackwardEuler;
  double gmin = 1e-12;        ///< shunt conductance for convergence aid
  double source_scale = 1.0;  ///< scale factor for source stepping (DC only)

  /// Voltage of a node at the current iterate (0 for ground).
  [[nodiscard]] double v(NodeId n) const { return n == kGround ? 0.0 : x_[static_cast<std::size_t>(n - 1)]; }

  /// Value of branch variable b at the current iterate.
  [[nodiscard]] double branch(int b) const {
    return x_[static_cast<std::size_t>(node_count_ - 1 + b)];
  }

  /// Stamp a conductance g between nodes a and b.
  void add_conductance(NodeId a, NodeId b, double g) {
    add_matrix(row(a), row(a), g);
    add_matrix(row(b), row(b), g);
    add_matrix(row(a), row(b), -g);
    add_matrix(row(b), row(a), -g);
  }

  /// Stamp a transconductance: current g*(v_cp - v_cn) flowing a -> b
  /// (out of node a, into node b).
  void add_transconductance(NodeId a, NodeId b, NodeId cp, NodeId cn, double g) {
    add_matrix(row(a), row(cp), g);
    add_matrix(row(a), row(cn), -g);
    add_matrix(row(b), row(cp), -g);
    add_matrix(row(b), row(cn), g);
  }

  /// Stamp a constant current `i` flowing INTO node n.
  void add_current_into(NodeId n, double i) {
    const int r = row(n);
    if (r >= 0) rhs_[static_cast<std::size_t>(r)] += i;
  }

  /// Raw matrix access by node (use branch_row for branch variables).
  void add_matrix_nodes(NodeId a, NodeId b, double value) { add_matrix(row(a), row(b), value); }

  /// Matrix row/column index of branch variable b.
  [[nodiscard]] int branch_row(int b) const { return node_count_ - 1 + b; }

  /// Raw matrix element addition by row/col index (-1 = ground, ignored).
  void add_matrix(int r, int c, double value) {
    if (r < 0 || c < 0) return;
    g_.at(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += value;
  }

  /// Raw RHS addition by row index (-1 = ground, ignored).
  void add_rhs(int r, double value) {
    if (r < 0) return;
    rhs_[static_cast<std::size_t>(r)] += value;
  }

  /// MNA row of a node (-1 for ground).
  [[nodiscard]] static int row(NodeId n) { return n - 1; }

 private:
  Matrix& g_;
  Vector& rhs_;
  const Vector& x_;
  int node_count_;
};

/// Converged solution snapshot handed to devices when a step is accepted.
class Solution {
 public:
  Solution(const Vector& x, int node_count, double time)
      : x_(x), node_count_(node_count), time_(time) {}

  [[nodiscard]] double v(NodeId n) const { return n == kGround ? 0.0 : x_[static_cast<std::size_t>(n - 1)]; }
  [[nodiscard]] double branch(int b) const {
    return x_[static_cast<std::size_t>(node_count_ - 1 + b)];
  }
  [[nodiscard]] double time() const { return time_; }

 private:
  const Vector& x_;
  int node_count_;
  double time_;
};

/// Base class for all circuit elements.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Number of extra MNA branch-current variables this device needs.
  [[nodiscard]] virtual int branch_count() const { return 0; }

  /// Analysis setup assigns the device its first branch variable index.
  virtual void set_branch_offset(int /*offset*/) {}

  /// Contribute the linearised model at the given iterate.
  virtual void stamp(StampContext& ctx) = 0;

  /// Called once before Newton iterations at each new candidate step.
  virtual void begin_step(double /*time*/, double /*dt*/) {}

  /// Small-signal stamp around the operating point `op` (ac_analyze):
  /// the frequency-independent part into `g`, the coefficients of j*omega
  /// into `jw`; both contexts hold dt = 0 and `op` as the iterate. The
  /// default is the device's own DC Newton stamp at `op`, so nonlinear
  /// devices linearise there (their rhs is discarded) and settle their
  /// iterate state as any DC analysis does. Reactive devices override it
  /// with their admittance and leave their transient state alone.
  virtual void stamp_ac(const Solution& op, StampContext& g, StampContext& /*jw*/) {
    set_dc_state(op);
    begin_step(0.0, 0.0);
    stamp(g);
  }

  /// Commit internal state (capacitor voltage, switch state, ...) after a
  /// step converged and was accepted by the step controller.
  virtual void accept_step(const Solution& /*solution*/) {}

  /// Restore state to the last accepted step (step rejected).
  virtual void reject_step() {}

  /// Initialise internal state from a DC operating point before a
  /// transient run (capacitors take the node voltage, inductors the
  /// branch current).
  virtual void set_dc_state(const Solution& /*solution*/) {}

  /// Append future time points the integrator must not step across
  /// (source edges etc.).
  virtual void collect_breakpoints(double /*t_now*/, std::vector<double>& /*out*/) const {}

  /// Upper bound on the next timestep this device tolerates at the last
  /// accepted solution (e.g. near a comparator threshold).
  [[nodiscard]] virtual double max_timestep(const Solution& /*solution*/) const {
    return std::numeric_limits<double>::infinity();
  }

  /// Event localisation: inspect a converged candidate step and return
  /// the largest dt acceptable for the transition it contains (infinity
  /// when nothing abrupt happened). The integrator rejects and retries
  /// any step longer than this, so fast events (comparator flips) are
  /// pinned down to the returned resolution even when the surrounding
  /// waveforms would allow huge steps.
  [[nodiscard]] virtual double post_step_dt_limit(const Solution& /*before*/,
                                                  const Solution& /*after*/) const {
    return std::numeric_limits<double>::infinity();
  }

  /// Quiescent supply current this device draws that is modelled outside
  /// the netlist (behavioural blocks report it here so that system power
  /// budgets can include it) [A].
  [[nodiscard]] virtual double quiescent_current() const { return 0.0; }

  /// Card-format serialisation for netlist_writer; empty when the device
  /// has no card form (behavioural/custom devices). `names` resolves
  /// node ids to names.
  [[nodiscard]] virtual std::string netlist_card(
      const std::function<std::string(NodeId)>& /*names*/) const {
    return "";
  }

 private:
  std::string name_;
};

}  // namespace focv::circuit
