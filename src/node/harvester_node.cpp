#include "node/harvester_node.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/require.hpp"
#include "node/curve_cache.hpp"
#include "obs/obs.hpp"
#include "sched/macro_stepper.hpp"

namespace focv::node {

NodeReport simulate_node(const env::LightTrace& trace, const NodeConfig& config) {
  return simulate_node(trace, config, nullptr, nullptr);
}

NodeReport simulate_node(const env::LightTrace& trace, const NodeConfig& config,
                         CurveCache* shared_curves) {
  return simulate_node(trace, config, shared_curves, nullptr);
}

NodeReport simulate_node(const env::LightTrace& trace, const NodeConfig& config,
                         CurveCache* shared_curves, const sched::PreparedTrace* prepared) {
  // Event-driven macro-stepping when requested and the config is one
  // the engine can handle; anything else transparently takes the fixed
  // reference path below.
  if (config.stepper == Stepper::kEvent && sched::event_supported(config)) {
    return sched::simulate_node_events(trace, config, shared_curves, prepared);
  }
  require(config.cell_model != nullptr, "simulate_node: cell is required (use_cell)");
  require(config.controller_prototype != nullptr,
          "simulate_node: controller is required (use_controller)");
  require(trace.size() >= 2, "simulate_node: trace needs at least 2 samples");
  require(config.lux_scale > 0.0, "simulate_node: lux_scale must be > 0");

  // Clone the immutable prototype so this run owns its controller state
  // outright (re-entrant).
  const pv::SingleDiodeModel& cell = *config.cell_model;
  std::unique_ptr<mppt::MpptController> owned_controller = config.controller_prototype->clone();
  mppt::MpptController& controller = *owned_controller;
  controller.reset();

  power::Supercapacitor supercap(config.storage);
  std::optional<power::Battery> battery;
  if (config.battery) battery.emplace(*config.battery);
  // Uniform view over whichever store is configured.
  const auto store_voltage = [&] {
    return battery ? battery->open_circuit_voltage() : supercap.voltage();
  };
  const auto store_usable = [&] { return battery ? battery->usable() : supercap.usable(); };
  const auto store_apply = [&](double power, double dt) {
    return battery ? battery->apply_power(power, dt) : supercap.apply_power(power, dt);
  };
  power::WsnLoad load(config.load);
  std::optional<power::ColdStartCircuit> coldstart;
  if (config.coldstart) coldstart.emplace(*config.coldstart);

  // All per-step curve queries go through the cache; the per-step lookup
  // arrays (illuminance series, bucket slots) are precomputed here so
  // the hot loop below does no hashing, log() or binary searches. A
  // caller-owned cache (fleet chunks) must answer for exactly this
  // run's cell/temperature/options, or its entries would be wrong.
  std::optional<CurveCache> owned_curves;
  if (shared_curves != nullptr) {
    require(&shared_curves->cell() == &cell,
            "simulate_node: shared curve cache was built for a different cell model");
    require(shared_curves->temperature_k() == config.temperature_k,
            "simulate_node: shared curve cache temperature mismatch");
    require(shared_curves->model() == config.power_model &&
                shared_curves->options().surrogate_points == config.surrogate_points,
            "simulate_node: shared curve cache options mismatch");
  } else {
    owned_curves.emplace(cell, config.temperature_k,
                         CurveCache::Options{config.power_model, config.surrogate_points});
  }
  CurveCache& curves = shared_curves ? *shared_curves : *owned_curves;
  // A caller-owned PreparedTrace (fleet chunks, serve) already holds both
  // series, computed by the same expressions: copy instead of re-deriving.
  if (prepared != nullptr) {
    require(&prepared->trace() == &trace,
            "simulate_node_events: PreparedTrace was built for a different trace");
    require(&prepared->cell() == &cell,
            "simulate_node_events: PreparedTrace was built for a different cell model");
  }
  std::vector<double> eq_lux =
      prepared != nullptr ? prepared->eq_lux() : trace.equivalent_lux(cell);
  std::vector<double> total_lux = prepared != nullptr ? prepared->total_lux() : trace.total_lux();
  if (config.lux_scale != 1.0) {
    for (double& v : eq_lux) v *= config.lux_scale;
    for (double& v : total_lux) v *= config.lux_scale;
  }
  const std::vector<double>& t = trace.time();
  // A shared cache carries counters (and in surrogate mode, entries)
  // from earlier runs; the report's counters are this run's increments.
  const std::uint64_t evals_before = curves.model_evals();
  const std::uint64_t entries_before = curves.entries_built();
  const std::uint64_t queries_before = curves.queries();
  curves.prepare(eq_lux);

  // Telemetry: one enabled() check per run; the hot loop below only
  // tests the hoisted bool. Everything recorded is derived from values
  // the simulation computes anyway (observation-only, see obs.hpp).
  const bool obs_on = obs::enabled();
  std::optional<obs::Tracer::Span> run_span;
  std::optional<CurveCache> exact_shadow;  ///< surrogate-vs-exact comparison
  if (obs_on) {
    run_span.emplace(obs::tracer().span("simulate_node", "node"));
    run_span->arg("controller", controller.name());
    run_span->arg("power_model",
                  config.power_model == PowerModel::kSurrogate ? "surrogate" : "exact");
    if (config.obs_compare_exact && config.power_model == PowerModel::kSurrogate) {
      exact_shadow.emplace(cell, config.temperature_k,
                           CurveCache::Options{PowerModel::kExact, config.surrogate_points});
      exact_shadow->prepare(eq_lux);
    }
  }
  static const obs::HistogramId step_eff_id = obs::metrics().histogram(
      "node.step_tracking_efficiency", {1e-3, 1.0 + 1e-9, 48});
  static const obs::HistogramId deviation_id = obs::metrics().histogram(
      "node.surrogate.deviation_rel", {1e-9, 1.0, 48});
  // Per-step efficiency samples batch locally (plain adds) and merge
  // into the registry every 64 steps: the shard lookup + three atomic
  // RMWs per step were most of the enabled-mode telemetry tax on this
  // loop. Only touched when obs_on, so the disabled path is unchanged.
  obs::HistogramBatch eff_batch({1e-3, 1.0 + 1e-9, 48});

  NodeReport report;
  report.duration = trace.duration();

  mppt::SensedInputs sensed;
  double prev_power = 0.0;
  double prev_voltage = 0.0;
  // Loop-invariant controller properties, hoisted out of the hot loop.
  const double overhead_power = controller.overhead_power();
  const double min_operating_lux = controller.minimum_operating_lux();
  const double load_power = load.average_power();
  const double controller_current = overhead_power / 3.3;  // for the cold-start load model
  int steps_since_record = config.record_stride;  // record the first step
  bool in_brownout = false;  // edge detector for the brown-out anomaly

  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    const double dt = t[i + 1] - t[i];
    const double lux = eq_lux[i];
    const CurveCache::StepCurve curve = curves.at_step(i);
    report.ideal_mpp_energy += curve.pmpp * dt;

    // Cold-start gate: while the supervisor has not fired, the MPPT is
    // unpowered and the PV charges C1 instead of harvesting.
    bool running = true;
    if (coldstart) {
      const pv::Conditions c = curves.conditions_at(lux);
      coldstart->advance(cell, c, dt, controller_current);
      running = coldstart->started();
    }
    // Supply floor: below its minimum illuminance the tracking circuitry
    // cannot run at all.
    if (lux < min_operating_lux) running = false;

    double pv_power = 0.0;
    double pv_voltage = 0.0;
    if (running) {
      if (report.coldstart_time < 0.0) report.coldstart_time = t[i];
      sensed.time = t[i];
      sensed.dt = dt;
      sensed.voc = curve.voc;
      sensed.pilot_voc = curve.voc;  // matched pilot; controller applies its own mismatch
      sensed.illuminance_estimate = total_lux[i];
      sensed.prev_power = prev_power;
      sensed.prev_voltage = prev_voltage;
      sensed.store_voltage = store_voltage();
      const mppt::ControlOutput out = controller.step(sensed);
      pv_voltage = out.pv_voltage;
      pv_power = curves.power_at_step(i, out.pv_voltage) *
                 (1.0 - std::min(1.0, out.disconnect_fraction));
      report.overhead_energy += overhead_power * dt;
      if (obs_on) {
        if (curve.pmpp > 0.0) {
          eff_batch.observe(pv_power / curve.pmpp);
          if (eff_batch.pending() >= 64) obs::metrics().flush(step_eff_id, eff_batch);
        }
        if (exact_shadow && pv_voltage > 0.0 && curve.pmpp > 0.0) {
          const double exact_power = exact_shadow->power_at_step(i, pv_voltage);
          obs::metrics().observe(
              deviation_id,
              std::abs(curves.power_at_step(i, pv_voltage) - exact_power) / curve.pmpp);
        }
      }
    }
    prev_power = pv_power;
    prev_voltage = pv_voltage;
    report.harvested_energy += pv_power * dt;

    const double delivered = config.converter.output_power(pv_power, pv_voltage);
    report.delivered_energy += delivered * dt;

    // Store bookkeeping: harvest in, overhead and load out.
    double drain = running ? overhead_power : 0.0;
    const bool load_runs = store_usable();
    if (load_runs) {
      drain += load_power;
      report.load_energy_served += load_power * dt;
      in_brownout = false;
    } else {
      ++report.brownout_steps;
      report.brownout_time += dt;
      if (obs_on && !in_brownout) {
        obs::anomaly("brownout", t[i],
                     {{"store_voltage", store_voltage()},
                      {"lux", lux},
                      {"step", static_cast<double>(i)}});
      }
      in_brownout = true;
    }
    store_apply(delivered - drain, dt);

    if (config.record_traces && ++steps_since_record >= config.record_stride) {
      steps_since_record = 0;
      report.time.push_back(t[i]);
      report.pv_voltage.push_back(pv_voltage);
      report.pv_power.push_back(pv_power);
      report.store_voltage.push_back(store_voltage());
    }
  }
  report.final_store_voltage = store_voltage();
  report.steps = trace.size() - 1;
  report.model_evals = curves.model_evals() - evals_before;
  report.curve_entries = curves.entries_built() - entries_before;

  if (obs_on) {
    obs::metrics().flush(step_eff_id, eff_batch);
    static const obs::CounterId steps_id = obs::metrics().counter("node.steps");
    static const obs::CounterId evals_id = obs::metrics().counter("node.model_evals");
    static const obs::CounterId hits_id = obs::metrics().counter("node.curve.hits");
    static const obs::CounterId misses_id = obs::metrics().counter("node.curve.misses");
    static const obs::HistogramId builds_id =
        obs::metrics().histogram("node.curve.entries_built", {1.0, 1e5, 40});
    static const obs::HistogramId run_evals_id =
        obs::metrics().histogram("node.curve.model_evals", {1.0, 1e7, 56});
    // Hit/miss: a per-step lookup that needed no exact solve is a hit;
    // in exact mode every power_at_step solve is a miss, in surrogate
    // mode all per-step lookups hit the interpolated tables.
    const std::uint64_t queries = curves.queries() - queries_before;
    const std::uint64_t misses = std::min(queries, report.model_evals);
    obs::metrics().add(steps_id, static_cast<double>(report.steps));
    obs::metrics().add(evals_id, static_cast<double>(report.model_evals));
    obs::metrics().add(hits_id, static_cast<double>(queries - misses));
    obs::metrics().add(misses_id, static_cast<double>(misses));
    obs::metrics().observe(builds_id, static_cast<double>(report.curve_entries));
    obs::metrics().observe(run_evals_id, static_cast<double>(report.model_evals));
    obs::events().emit("node_run_complete", report.duration,
                       {{"steps", report.steps},
                        {"tracking_efficiency", report.tracking_efficiency()},
                        {"net_j", report.net_energy()},
                        {"curve_entries", report.curve_entries}});
    run_span->arg("steps", static_cast<double>(report.steps));
    run_span->arg("model_evals", static_cast<double>(report.model_evals));
    run_span->arg("curve_entries", static_cast<double>(report.curve_entries));
    run_span->arg("tracking_efficiency", report.tracking_efficiency());
  }
  return report;
}

}  // namespace focv::node
