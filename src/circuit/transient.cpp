#include "circuit/transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/require.hpp"
#include "obs/obs.hpp"

namespace focv::circuit {

// ----------------------------------------------------------------- Trace

Trace::Trace(std::vector<std::string> signal_names) : names_(std::move(signal_names)) {
  values_.resize(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) index_.emplace(names_[i], i);
}

void Trace::append(double time, const Vector& x) {
  require(x.size() == names_.size(), "Trace::append: sample width mismatch");
  time_.push_back(time);
  for (std::size_t i = 0; i < x.size(); ++i) values_[i].push_back(x[i]);
}

std::size_t Trace::index_of(const std::string& name) const {
  const auto it = index_.find(name);
  require(it != index_.end(), "Trace: unknown signal '" + name + "'");
  return it->second;
}

const std::vector<double>& Trace::signal(const std::string& name) const {
  return values_[index_of(name)];
}

bool Trace::has_signal(const std::string& name) const { return index_.count(name) > 0; }

double Trace::at(const std::string& name, double t) const {
  const auto& v = signal(name);
  require(!time_.empty(), "Trace::at: empty trace");
  if (t <= time_.front()) return v.front();
  if (t >= time_.back()) return v.back();
  const auto it = std::upper_bound(time_.begin(), time_.end(), t);
  const std::size_t i = static_cast<std::size_t>(it - time_.begin());
  const double f = (t - time_[i - 1]) / (time_[i] - time_[i - 1]);
  return v[i - 1] + f * (v[i] - v[i - 1]);
}

double Trace::time_average(const std::string& name, double t0, double t1) const {
  require(t1 > t0, "Trace::time_average: t1 must exceed t0");
  const auto& v = signal(name);
  double integral = 0.0;
  double prev_t = t0;
  double prev_v = at(name, t0);
  for (std::size_t i = 0; i < time_.size(); ++i) {
    if (time_[i] <= t0) continue;
    if (time_[i] >= t1) break;
    integral += 0.5 * (v[i] + prev_v) * (time_[i] - prev_t);
    prev_t = time_[i];
    prev_v = v[i];
  }
  const double last_v = at(name, t1);
  integral += 0.5 * (last_v + prev_v) * (t1 - prev_t);
  return integral / (t1 - t0);
}

double Trace::minimum(const std::string& name, double t0, double t1) const {
  const auto& v = signal(name);
  double m = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < time_.size(); ++i) {
    if (time_[i] < t0 || time_[i] > t1) continue;
    m = std::min(m, v[i]);
  }
  if (!std::isfinite(m)) m = at(name, 0.5 * (t0 + t1));
  return m;
}

double Trace::maximum(const std::string& name, double t0, double t1) const {
  const auto& v = signal(name);
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < time_.size(); ++i) {
    if (time_[i] < t0 || time_[i] > t1) continue;
    m = std::max(m, v[i]);
  }
  if (!std::isfinite(m)) m = at(name, 0.5 * (t0 + t1));
  return m;
}

std::vector<double> Trace::crossing_times(const std::string& name, double level,
                                          bool rising) const {
  const auto& v = signal(name);
  std::vector<double> out;
  for (std::size_t i = 1; i < v.size(); ++i) {
    const bool crosses = rising ? (v[i - 1] < level && v[i] >= level)
                                : (v[i - 1] > level && v[i] <= level);
    if (crosses && v[i] != v[i - 1]) {
      const double f = (level - v[i - 1]) / (v[i] - v[i - 1]);
      out.push_back(time_[i - 1] + f * (time_[i] - time_[i - 1]));
    }
  }
  return out;
}

// ------------------------------------------------------------- transient

Trace transient_analyze(Circuit& circuit, const TransientOptions& options) {
  require(options.t_stop > 0.0, "transient_analyze: t_stop must be > 0");
  require(options.dt_initial > 0.0, "transient_analyze: dt_initial must be > 0");
  circuit.finalize();

  const bool obs_on = obs::enabled();
  std::uint64_t accepted_steps = 0;
  std::uint64_t rejected_steps = 0;
  std::optional<obs::Tracer::Span> window_span;
  if (obs_on) {
    window_span.emplace(obs::tracer().span("transient_window", "circuit"));
    window_span->arg("t_stop_s", options.t_stop);
    window_span->arg("unknowns", static_cast<double>(circuit.unknown_count()));
  }
  // Rejection telemetry shared by the retry sites below.
  const auto record_rejection = [&](double sim_t, double dt_failed, const char* reason,
                                    const NewtonResult& nr) {
    ++rejected_steps;
    static const obs::CounterId rejections_id =
        obs::metrics().counter("circuit.transient.step_rejections");
    obs::metrics().add(rejections_id);
    obs::events().emit("step_rejected", sim_t,
                       {{"dt_s", dt_failed},
                        {"reason", reason},
                        {"newton_iterations", nr.iterations},
                        {"newton_converged", nr.converged ? 1.0 : 0.0}});
  };

  const std::size_t n = static_cast<std::size_t>(circuit.unknown_count());
  const double dt_max = (options.dt_max > 0.0) ? options.dt_max : options.t_stop / 50.0;

  Vector x(n, 0.0);
  if (options.start_from_dc) {
    x = dc_operating_point(circuit, options.dc);
    const Solution dc_solution(x, circuit.node_count(), 0.0);
    for (const auto& device : circuit.devices()) device->set_dc_state(dc_solution);
  }

  Trace trace(circuit.unknown_names());
  trace.append(0.0, x);

  double t = 0.0;
  double dt_nominal = options.dt_initial;
  bool after_discontinuity = true;  // first step uses backward Euler
  int steps_since_record = 0;
  std::vector<double> breakpoints;

  while (t < options.t_stop - 1e-15 * options.t_stop) {
    // Device-imposed constraints on the step.
    const Solution accepted(x, circuit.node_count(), t);
    double dt = std::min({dt_nominal, dt_max, options.t_stop - t});
    for (const auto& device : circuit.devices()) {
      dt = std::min(dt, device->max_timestep(accepted));
    }
    // Never step across a source breakpoint.
    breakpoints.clear();
    for (const auto& device : circuit.devices()) {
      device->collect_breakpoints(t, breakpoints);
    }
    double next_bp = std::numeric_limits<double>::infinity();
    const double bp_guard = 1e-12 * std::max(1.0, t);
    for (const double bp : breakpoints) {
      if (bp > t + bp_guard) next_bp = std::min(next_bp, bp);
    }
    bool lands_on_breakpoint = false;
    if (std::isfinite(next_bp) && t + dt >= next_bp) {
      dt = next_bp - t;
      lands_on_breakpoint = true;
    }

    // Attempt the step, halving on failure.
    Vector x_try;
    double max_dv = 0.0;
    NewtonResult newton_result;
    bool accepted_step = false;
    const Integrator base_integrator =
        after_discontinuity ? Integrator::kBackwardEuler : options.integrator;
    while (!accepted_step) {
      for (const auto& device : circuit.devices()) device->begin_step(t + dt, dt);
      x_try = x;
      newton_result = newton_solve(circuit, x_try, t + dt, dt, base_integrator, options.newton);
      max_dv = 0.0;
      if (newton_result.converged) {
        const int node_vars = circuit.node_count() - 1;
        for (int k = 0; k < node_vars; ++k) {
          max_dv = std::max(max_dv,
                            std::abs(x_try[static_cast<std::size_t>(k)] -
                                     x[static_cast<std::size_t>(k)]));
        }
      }
      if (newton_result.converged && (max_dv <= options.dv_step_max || dt <= options.dt_min)) {
        // Event localisation: let devices veto a step that jumped across
        // a fast transition (comparator flip, switch toggle).
        const Solution before(x, circuit.node_count(), t);
        const Solution after(x_try, circuit.node_count(), t + dt);
        double event_limit = std::numeric_limits<double>::infinity();
        for (const auto& device : circuit.devices()) {
          event_limit = std::min(event_limit, device->post_step_dt_limit(before, after));
        }
        if (dt > event_limit * 1.01 && dt > options.dt_min) {
          if (obs_on) record_rejection(t, dt, "event_localisation", newton_result);
          dt = std::max(event_limit, options.dt_min);
          lands_on_breakpoint = false;
          continue;
        }
        accepted_step = true;
      } else if (!newton_result.converged && dt <= options.dt_min * 1.01) {
        obs::anomaly("newton_nonconverged", t,
                     {{"dt_s", dt}, {"iterations", newton_result.iterations}});
        throw ConvergenceError("transient_analyze: Newton failed at dt_min at t = " +
                               std::to_string(t));
      } else {
        if (obs_on) {
          record_rejection(t, dt,
                           newton_result.converged ? "dv_limit" : "newton_nonconverged",
                           newton_result);
        }
        // A converged step that only violates the dv limit is retried at
        // a smaller dt, but floored at dt_min: a discontinuity forced by
        // a hard source cannot be shrunk by shrinking dt, so the step is
        // accepted there (the accept branch above admits dt <= dt_min).
        dt = std::max(dt * (newton_result.converged ? 0.5 : 0.25), options.dt_min);
        lands_on_breakpoint = false;
      }
    }

    t += dt;
    ++accepted_steps;
    x = std::move(x_try);
    const Solution solution(x, circuit.node_count(), t);
    for (const auto& device : circuit.devices()) device->accept_step(solution);
    if (++steps_since_record >= options.record_stride || t >= options.t_stop) {
      trace.append(t, x);
      steps_since_record = 0;
    }
    after_discontinuity = lands_on_breakpoint;

    // Grow the nominal step when the solve was easy.
    if (max_dv < 0.25 * options.dv_step_max && newton_result.iterations <= 12) {
      dt_nominal = std::max(dt_nominal, dt) * 2.0;
    } else if (max_dv < 0.5 * options.dv_step_max) {
      dt_nominal = std::max(dt_nominal, dt) * 1.2;
    } else {
      dt_nominal = dt;
    }
  }
  if (window_span) {
    static const obs::CounterId steps_id =
        obs::metrics().counter("circuit.transient.steps");
    obs::metrics().add(steps_id, static_cast<double>(accepted_steps));
    window_span->arg("accepted_steps", static_cast<double>(accepted_steps));
    window_span->arg("rejected_steps", static_cast<double>(rejected_steps));
    window_span->arg("trace_points", static_cast<double>(trace.time().size()));
  }
  return trace;
}

}  // namespace focv::circuit
