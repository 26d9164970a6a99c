#include "sched/macro_stepper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "mppt/gradient_descent.hpp"
#include "obs/obs.hpp"
#include "sched/prepared_trace.hpp"

namespace focv::sched {

bool event_supported(const node::NodeConfig& config) {
  if (config.power_model != node::PowerModel::kSurrogate) return false;
  if (config.obs_compare_exact) return false;
  return config.controller_prototype != nullptr;
}

}  // namespace focv::sched

namespace focv::node {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// Histogram batches merge into the registry every this many samples.
constexpr std::uint64_t kObsFlushEvery = 64;
/// Floor on a store-tracking interval while the supercapacitor sits
/// clamped at full under net inflow: the clamp pins the store voltage, so
/// the commanded voltage cannot drift and the drift guard (sized from
/// the unclamped inflow, ~2 s outdoors) has nothing to bound. What is
/// left is the 2-point quadrature, whose error grows with interval
/// length. `direct` vs kFixed on the outdoor day at lux_scale 0.65,
/// store 3.0 V (event steps / harvest error): 30 s floor 1,866 / 8.6e-5,
/// 60 s 1,306 / 1.6e-4, 120 s 1,037 / 3.8e-4, 240 s 904 / 7.3e-4, no
/// floor (900 s intervals) 875 / 1.03e-3, past the 0.1 % contract; the
/// plain guard reads 14,089 / 4.1e-6.
constexpr double kFullStoreIntervalS = 60.0;

// Each stepper registers its own histogram on its first run, right after
// node.step_tracking_efficiency as it always has, so metrics.jsonl keeps
// its layout: the surrogate-vs-exact shadow for tick mode, the interval
// length for event mode.
obs::HistogramId deviation_histogram() {
  static const obs::HistogramId id =
      obs::metrics().histogram("node.surrogate.deviation_rel", {1e-9, 1.0, 48});
  return id;
}
obs::HistogramId interval_histogram() {
  static const obs::HistogramId id =
      obs::metrics().histogram("sched.interval_s", {1e-3, 1e5, 48});
  return id;
}
// Out of line and cold: brown-out entry is rare, and the anomaly's
// field list need not sit in fallback_step's hot path.
[[gnu::cold, gnu::noinline]] void emit_brownout(double t, double store_voltage, double lux,
                                                std::size_t step) {
  obs::anomaly("brownout", t,
               {{"store_voltage", store_voltage},
                {"lux", lux},
                {"step", static_cast<double>(step)}});
}
}  // namespace

// One body for both steppers. Tick mode (Stepper::kFixed, or any config
// event_supported() rejects) runs fallback_step() below on every trace
// step; event mode advances segment by segment and reaches
// fallback_step() only where a step must tick. Every macro interval
// accounts energy into the same NodeReport fields fallback_step() does.
NodeReport simulate_node(const env::LightTrace& trace, const NodeConfig& config,
                         CurveCache* shared_curves, const sched::PreparedTrace* prepared) {
  using sched::PreparedTrace;

  require(config.cell_model != nullptr, "simulate_node: cell is required (use_cell)");
  require(config.controller_prototype != nullptr,
          "simulate_node: controller is required (use_controller)");
  require(trace.size() >= 2, "simulate_node: trace needs at least 2 samples");
  require(config.lux_scale > 0.0, "simulate_node: lux_scale must be > 0");

  const pv::SingleDiodeModel& cell = *config.cell_model;
  // Decided once per run: tick every step, or macro-step between events.
  const bool tick_all = config.stepper == Stepper::kFixed || !sched::event_supported(config);
  const bool exact = config.power_model == PowerModel::kExact;  // implies tick_all

  // Per-trace series: a caller-owned PreparedTrace (shared read-only
  // across nodes) is read in place. Without one, tick mode needs only
  // the two lux series; event mode builds its own PreparedTrace.
  std::optional<PreparedTrace> owned_prep;
  std::vector<double> owned_eq;
  std::vector<double> owned_total;
  if (prepared != nullptr) {
    require(&prepared->trace() == &trace,
            "simulate_node: PreparedTrace was built for a different trace");
    require(&prepared->cell() == &cell,
            "simulate_node: PreparedTrace was built for a different cell model");
  } else if (tick_all) {
    owned_eq = trace.equivalent_lux(cell);
    owned_total = trace.total_lux();
  } else {
    env::SegmentationOptions seg;
    seg.ratio_band = config.events.lux_ratio_band;
    seg.floor = CurveCache::kDarkLux;
    owned_prep.emplace(trace, cell, seg);
    prepared = &*owned_prep;
  }
  // From here `prepared` is null only for a tick-mode run without a
  // caller instance; tick mode reads nothing but these two series.
  const std::vector<double>& eq = prepared != nullptr ? prepared->eq_lux() : owned_eq;
  const std::vector<double>& total = prepared != nullptr ? prepared->total_lux() : owned_total;

  std::unique_ptr<mppt::MpptController> owned_controller = config.controller_prototype->clone();
  mppt::MpptController& controller = *owned_controller;
  controller.reset();
  const mppt::MacroLaw law = controller.macro_law();
  // The lean tick loop calls this one law through its final type (see
  // fallback_step): null for every other controller.
  auto* const graddesc = dynamic_cast<mppt::GradientDescentController*>(&controller);

  power::Supercapacitor supercap(config.storage);
  std::optional<power::Battery> battery;
  if (config.battery) battery.emplace(*config.battery);
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

  // A caller-owned cache (fleet chunks, serve) must answer for exactly
  // this run's cell/temperature/options, or its entries would be wrong.
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
  CurveCache& curves = shared_curves != nullptr ? *shared_curves : *owned_curves;
  // A shared cache carries counters (and in surrogate mode, entries)
  // from earlier runs; the report's counters are this run's increments.
  const std::uint64_t evals_before = curves.model_evals();
  const std::uint64_t entries_before = curves.entries_built();
  const std::uint64_t queries_before = curves.queries();

  const std::vector<double>& t = trace.time();
  const double s = config.lux_scale;
  const std::size_t n_steps = trace.size() - 1;

  // Telemetry: one enabled() check per run; the step loops only test the
  // hoisted bool. Everything recorded is derived from values the
  // simulation computes anyway (observation-only, see obs.hpp).
  const bool obs_on = obs::enabled();
  const bool shadow = obs_on && config.obs_compare_exact && !exact;

  // kExact (and the exact shadow) answer per step from a prepare()d
  // series, which must outlive the run's queries: the scaled copy lives
  // here.
  std::vector<double> scaled_eq;
  if (s != 1.0 && (exact || shadow)) {
    scaled_eq = eq;
    for (double& v : scaled_eq) v *= s;
  }
  const std::vector<double>& exact_eq = s != 1.0 ? scaled_eq : eq;
  if (exact) curves.prepare(exact_eq);

  std::optional<obs::Tracer::Span> run_span;
  std::optional<CurveCache> exact_shadow;  ///< surrogate-vs-exact comparison (tick mode)
  if (obs_on) {
    run_span.emplace(obs::tracer().span("simulate_node", "node"));
    run_span->arg("controller", controller.name());
    run_span->arg("power_model", exact ? "exact" : "surrogate");
    if (!tick_all) run_span->arg("stepper", "event");
    if (shadow) {
      exact_shadow.emplace(cell, config.temperature_k,
                           CurveCache::Options{PowerModel::kExact, config.surrogate_points});
      exact_shadow->prepare(exact_eq);
    }
  }
  static const obs::HistogramId step_eff_id = obs::metrics().histogram(
      "node.step_tracking_efficiency", {1e-3, 1.0 + 1e-9, 48});
  const obs::HistogramId deviation_id = tick_all ? deviation_histogram() : obs::HistogramId{};
  const obs::HistogramId interval_id = tick_all ? obs::HistogramId{} : interval_histogram();
  // Per-step efficiency samples batch locally (plain adds) and merge
  // into the registry every kObsFlushEvery samples.
  obs::HistogramBatch eff_batch({1e-3, 1.0 + 1e-9, 48});
  // Brown-out entry raises an anomaly (one flight dump when armed) in
  // tick mode only; event runs have never emitted it.
  const bool brownout_anomaly = obs_on && tick_all;
  bool in_brownout = false;

  NodeReport report;
  report.duration = trace.duration();

  mppt::SensedInputs sensed;
  double prev_power = 0.0;
  double prev_voltage = 0.0;
  const double overhead_power = controller.overhead_power();
  const double min_operating_lux = controller.minimum_operating_lux();
  const double load_power = load.average_power();
  const double controller_current = overhead_power / 3.3;  // for the cold-start load model
  const bool record = config.record_traces;
  const std::size_t stride = static_cast<std::size_t>(std::max(1, config.record_stride));
  // EventOptions tune event mode only: tick mode drains the average load.
  const bool bursts = !tick_all && config.events.resolve_load_bursts;

  std::uint64_t fallback_steps = 0;
  std::uint64_t intervals = 0;
  // Net store power of the last processed interval: seeds the
  // store-tracking drift guard in cap_interval().
  double last_net = -(overhead_power + load_power);

  // --- store advancement ----------------------------------------------
  // Time until the store's usable() flag would flip under constant net
  // power, from its current state. Mirrors the store models exactly:
  // closed-form RC solve for the supercapacitor, linear for the battery.
  const double cap_usable_energy = supercap.min_useful_energy();
  const auto time_to_usable_flip = [&](double net) -> double {
    if (battery) {
      const power::Battery::Params& bp = battery->params();
      const double rate =
          (net >= 0.0 ? std::min(net, bp.max_charge_power) * bp.coulombic_efficiency : net) -
          bp.capacity_j * bp.self_discharge_per_day / 86400.0;
      if (rate == 0.0) return kInf;
      const double dt = (0.02 * bp.capacity_j - battery->stored_energy()) / rate;
      return dt >= 0.0 ? dt : kInf;
    }
    return supercap.time_to_energy(net, cap_usable_energy);
  };
  const auto store_advance = [&](double net, double dt) {
    if (battery) {
      battery->apply_power(net, dt);
    } else {
      supercap.advance_constant_power(net, dt);
    }
  };

  // Opt-in burst resolution: continuous-time advance of steps [a, b)
  // split at load burst edges and usable() crossings. Not an equivalence
  // path (the fixed reference drains the period-average load), so
  // crossings flip in continuous time instead of snapping to step
  // boundaries; brownout_time is authoritative here, brownout_steps only
  // counts tick-stepped fallback steps. After a flip, usable() is held to
  // the next step boundary (tick mode tests it only at step starts), so a
  // step sees at most one flip. A store whose inflow lies between the net
  // power with the load and without it would otherwise flip back within
  // nanoseconds, forever; held per step, it serves the load for the
  // fraction of each step that balances its inflow.
  const auto advance_piece = [&](std::size_t a, std::size_t b, double delivered_pw,
                                 double oh_drain) {
    double cur = t[a];
    const double t1 = t[b];
    std::size_t hold_until = kNone;  // usable() is held until t[hold_until]
    bool held = false;
    while (cur < t1) {
      if (hold_until != kNone && cur >= t[hold_until]) hold_until = kNone;
      const bool usable = hold_until != kNone ? held : store_usable();
      const double load_now = load.power_at(cur);
      const double net = delivered_pw - oh_drain - (usable ? load_now : 0.0);
      double next = std::min(t1, load.next_burst_edge(cur));
      bool flipped = false;
      if (hold_until != kNone) {
        next = std::min(next, t[hold_until]);
      } else {
        const double flip_dt = time_to_usable_flip(net);
        if (std::isfinite(flip_dt) && cur + flip_dt < next) {
          // Nudge just past the crossing so usable() actually flips.
          next = std::min(t1, cur + flip_dt + 1e-9);
          ++report.events;
          flipped = true;
        }
      }
      const double len = next - cur;
      store_advance(net, len);
      if (usable) {
        report.load_energy_served += load_now * len;
      } else {
        report.brownout_time += len;
      }
      cur = next;
      if (flipped && cur < t1) {
        held = store_usable();
        hold_until = static_cast<std::size_t>(
            std::upper_bound(t.begin() + static_cast<std::ptrdiff_t>(a),
                             t.begin() + static_cast<std::ptrdiff_t>(b), cur) -
            t.begin());
      }
    }
  };

  // Advance the store across steps [a, b) under constant converter
  // output `delivered_pw` and controller drain `oh_drain`, splitting at
  // usable() threshold crossings (snapped to the step boundary the fixed
  // path would flip on — it tests usable() at step starts), at record
  // points, and (opt-in) at load burst edges. rec_v / rec_p are the
  // held operating point written to recorded traces inside the span.
  const auto advance_store_span = [&](std::size_t a, std::size_t b, double delivered_pw,
                                      double oh_drain, double rec_v, double rec_p) {
    std::size_t p = a;
    while (p < b) {
      std::size_t rec_step = kNone;
      std::size_t q = b;
      if (record) {
        const std::size_t r = ((p + stride - 1) / stride) * stride;  // next recorded step >= p
        if (r < b) {
          rec_step = r;
          q = r + 1;  // tick mode records step r after applying it
        }
      }
      if (!bursts) {
        const bool usable = store_usable();
        const double net = delivered_pw - oh_drain - (usable ? load_power : 0.0);
        const double flip_dt = time_to_usable_flip(net);
        if (std::isfinite(flip_dt) && t[p] + flip_dt < t[q]) {
          auto it = std::upper_bound(t.begin() + static_cast<std::ptrdiff_t>(p),
                                     t.begin() + static_cast<std::ptrdiff_t>(q) + 1,
                                     t[p] + flip_dt);
          auto qf = static_cast<std::size_t>(it - t.begin());
          if (qf <= p) qf = p + 1;  // crossing at t[p] itself: flip lands on the next boundary
          if (qf < q) {
            q = qf;
            rec_step = kNone;  // the record boundary is beyond this piece now
          }
          ++report.events;  // storage threshold crossing
        }
        const double len = t[q] - t[p];
        store_advance(net, len);
        if (usable) {
          report.load_energy_served += load_power * len;
        } else {
          report.brownout_steps += static_cast<int>(q - p);
          report.brownout_time += len;
        }
      } else {
        advance_piece(p, q, delivered_pw, oh_drain);
      }
      if (rec_step != kNone) {
        report.time.push_back(t[rec_step]);
        report.pv_voltage.push_back(rec_v);
        report.pv_power.push_back(rec_p);
        report.store_voltage.push_back(store_voltage());
        ++report.events;  // report sampling point
      }
      p = q;
    }
  };

  // --- fallback step ---------------------------------------------------
  // One step of the behavioural chain: PV curve -> controller ->
  // converter -> store -> load. Tick mode runs it on every step; event
  // mode on the steps it cannot macro-step. Curve queries are lazy, so
  // no O(trace) pass is needed: tick-replayed steps (every step in tick
  // mode, every lit step of a kPerStepOnly law) resolve one StepKey
  // (float weight), isolated event-mode ticks a double-weight LuxKey,
  // and kExact reads its prepare()d per-step solves. `advance_cs` is
  // false only inside segments whose cold-start supervisor is
  // certified-and-frozen (see below).
  //
  // The body is compiled three times from this one source. The `lean`
  // instantiations (std::true_type) serve runs that use none of its
  // optional branches: replayed surrogate steps, a supercapacitor, no
  // cold start, no recording, no bursts and telemetry off. There
  // `if constexpr` drops those branches, so the every-step loops
  // (tick_steps below) pay only for the chain itself. `ctl` is the run's
  // controller: a lean `graddesc` run passes its final type, so step()
  // inlines and the chain's doubles stay in registers instead of being
  // spilled around a virtual call; every other run, and the generic
  // body, passes the MpptController base. All instantiations compute
  // the same bits.
  const bool replay_steps = tick_all || law == mppt::MacroLaw::kPerStepOnly;
  const bool lean = replay_steps && !exact && !battery && !coldstart && !record && !bursts &&
                    !obs_on;
  const auto fallback_step = [&](auto lean_tag, auto& ctl, std::size_t i, bool advance_cs) {
    constexpr bool kLean = decltype(lean_tag)::value;
    const double dt = t[i + 1] - t[i];
    const double lux = s * eq[i];
    CurveCache::StepKey step_key;
    CurveCache::LuxKey lux_key;
    CurveCache::StepCurve curve;
    if (!kLean && exact) {
      curve = curves.at_step(i);
    } else if (kLean || replay_steps) {
      step_key = curves.step_key(lux);
      curve = curves.at_key(step_key);
    } else {
      lux_key = curves.lux_key(lux);
      curve = curves.at(lux_key);
    }
    report.ideal_mpp_energy += curve.pmpp * dt;

    // Cold-start gate: while the supervisor has not fired, the MPPT is
    // unpowered and the PV charges C1 instead of harvesting.
    bool running = true;
    if (!kLean && coldstart) {
      if (advance_cs) {
        coldstart->advance(cell, curves.conditions_at(lux), dt, controller_current);
      }
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
      sensed.illuminance_estimate = s * total[i];
      sensed.prev_power = prev_power;
      sensed.prev_voltage = prev_voltage;
      sensed.store_voltage = kLean ? supercap.voltage() : store_voltage();
      const mppt::ControlOutput out = ctl.step(sensed);
      pv_voltage = out.pv_voltage;
      const double cell_power = !kLean && exact         ? curves.power_at_step(i, pv_voltage)
                                : kLean || replay_steps ? curves.power_at_key(step_key, pv_voltage)
                                                        : curves.power_at(lux_key, pv_voltage);
      pv_power = cell_power * (1.0 - std::min(1.0, out.disconnect_fraction));
      report.overhead_energy += overhead_power * dt;
      if (!kLean && obs_on && curve.pmpp > 0.0) {
        eff_batch.observe(pv_power / curve.pmpp);
        if (eff_batch.pending() >= kObsFlushEvery) obs::metrics().flush(step_eff_id, eff_batch);
        if (exact_shadow && pv_voltage > 0.0) {  // tick mode, surrogate: a StepKey
          const double exact_power = exact_shadow->power_at_step(i, pv_voltage);
          obs::metrics().observe(
              deviation_id,
              std::abs(curves.power_at_key(step_key, pv_voltage) - exact_power) / curve.pmpp);
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
    const double step_load = !kLean && bursts ? load.power_at(t[i]) : load_power;
    if (kLean ? supercap.usable() : store_usable()) {
      drain += step_load;
      report.load_energy_served += step_load * dt;
      if constexpr (!kLean) in_brownout = false;
    } else {
      ++report.brownout_steps;
      report.brownout_time += dt;
      if constexpr (!kLean) {
        if (brownout_anomaly && !in_brownout) emit_brownout(t[i], store_voltage(), lux, i);
        in_brownout = true;
      }
    }
    if constexpr (kLean) {
      supercap.apply_power(delivered - drain, dt);
    } else {
      store_apply(delivered - drain, dt);
    }

    if (!kLean && record && i % stride == 0) {
      report.time.push_back(t[i]);
      report.pv_voltage.push_back(pv_voltage);
      report.pv_power.push_back(pv_power);
      report.store_voltage.push_back(store_voltage());
    }
    ++fallback_steps;
  };
  // Tick every step of [a, b), through a lean instantiation when the
  // run qualifies. The devirtualised loop stays out of line: inlined, it
  // grows tick_steps and moves the inlining of the other laws' paths
  // (focv event runs read ~5 % slower).
  const auto tick_graddesc = [&](std::size_t a, std::size_t b) __attribute__((noinline)) {
    for (std::size_t i = a; i < b; ++i) fallback_step(std::true_type{}, *graddesc, i, true);
  };
  const auto tick_steps = [&](std::size_t a, std::size_t b) {
    if (lean && graddesc != nullptr) {
      tick_graddesc(a, b);
    } else if (lean) {
      for (std::size_t i = a; i < b; ++i) fallback_step(std::true_type{}, controller, i, true);
    } else {
      for (std::size_t i = a; i < b; ++i) fallback_step(std::false_type{}, controller, i, true);
    }
  };

  // --- analytic macro interval -----------------------------------------
  // Integrate steps [a, b) from one held operating point. Illuminance
  // enters through a 2-point quadrature at the interval's dt-weighted
  // mean +- stddev (O(1) from the prefix moments), clamped to the
  // caller's [lo_lux, hi_lux] (the run's actual range), which integrates
  // the curve exactly through its second moment — the ratio band bounds
  // what is left.
  const auto process_interval = [&](std::size_t a, std::size_t b, bool running, double lo_lux,
                                    double hi_lux) {
    ++intervals;
    ++report.events;
    const PreparedTrace::Moments m = prepared->moments(a, b);
    const double w = m.w;
    const double mean = (m.m1 / m.w) * s;
    const double var = std::max(0.0, (m.m2 / m.w) * s * s - mean * mean);
    const double sd = std::sqrt(var);
    const double l_lo = std::clamp(mean - sd, lo_lux, hi_lux);
    const double l_hi = std::clamp(mean + sd, lo_lux, hi_lux);
    // Resolve each quadrature illuminance once; every curve and P(V)
    // query below reads through the keys. l_lo <= l_hi, and growing the
    // table above a resolved slot never moves it, so k_lo stays valid.
    const CurveCache::LuxKey k_lo = curves.lux_key(l_lo);
    const CurveCache::LuxKey k_hi = curves.lux_key(l_hi);
    const CurveCache::StepCurve c_lo = curves.at(k_lo);
    const CurveCache::StepCurve c_hi = curves.at(k_hi);
    const double pmpp_bar = 0.5 * (c_lo.pmpp + c_hi.pmpp);
    report.ideal_mpp_energy += pmpp_bar * w;

    if (!running) {
      prev_power = 0.0;
      prev_voltage = 0.0;
      advance_store_span(a, b, 0.0, 0.0, 0.0, 0.0);
      return;
    }
    if (report.coldstart_time < 0.0) report.coldstart_time = t[a];

    const double t_mid = 0.5 * (t[a] + t[b]);
    const double dt_bar = w / static_cast<double>(b - a);
    double pv_v = 0.0;
    double p_lo = 0.0;
    double p_hi = 0.0;
    double d_lo = 0.0;
    double d_hi = 0.0;
    // Evaluate one commanded voltage at both quadrature illuminances.
    const auto power_pair = [&](double v) {
      p_lo = curves.power_at(k_lo, v);
      p_hi = curves.power_at(k_hi, v);
      d_lo = config.converter.output_power(p_lo, v);
      d_hi = config.converter.output_power(p_hi, v);
    };
    switch (law) {
      case mppt::MacroLaw::kSampleHold: {
        // Tick mode applies the command sampled at each step's own
        // time; evaluating the (linear) hold droop half a mean step past
        // the midpoint reproduces that average exactly.
        pv_v = controller.command_at(t_mid + 0.5 * dt_bar);
        power_pair(pv_v);
        break;
      }
      case mppt::MacroLaw::kMemoryless: {
        const double est = prepared->total_lux_mean(a, b) * s;
        const auto eval = [&](const CurveCache::StepCurve& c, CurveCache::LuxKey key) {
          sensed.time = t_mid;
          sensed.dt = dt_bar;
          sensed.voc = c.voc;
          sensed.pilot_voc = c.voc;
          sensed.illuminance_estimate = est;
          sensed.prev_power = prev_power;
          sensed.prev_voltage = prev_voltage;
          sensed.store_voltage = store_voltage();
          const mppt::ControlOutput out = controller.step(sensed);
          const double p = curves.power_at(key, out.pv_voltage) *
                           (1.0 - std::min(1.0, out.disconnect_fraction));
          return std::pair<double, double>{p, out.pv_voltage};
        };
        const auto [pl, vl] = eval(c_lo, k_lo);
        const auto [ph, vh] = eval(c_hi, k_hi);
        p_lo = pl;
        p_hi = ph;
        d_lo = config.converter.output_power(p_lo, vl);
        d_hi = config.converter.output_power(p_hi, vh);
        pv_v = 0.5 * (vl + vh);
        break;
      }
      case mppt::MacroLaw::kTracksStore: {
        const auto command_at_store = [&](double v_store) {
          sensed.time = t_mid;
          sensed.dt = dt_bar;
          sensed.voc = 0.5 * (c_lo.voc + c_hi.voc);
          sensed.pilot_voc = sensed.voc;
          sensed.illuminance_estimate = prepared->total_lux_mean(a, b) * s;
          sensed.prev_power = prev_power;
          sensed.prev_voltage = prev_voltage;
          sensed.store_voltage = v_store;
          return controller.step(sensed).pv_voltage;
        };
        // Predictor-corrector: command at the entry store state, predict
        // the midpoint store voltage under that net power, re-command.
        pv_v = command_at_store(store_voltage());
        power_pair(pv_v);
        if (!battery) {
          const double net =
              0.5 * (d_lo + d_hi) - overhead_power - (store_usable() ? load_power : 0.0);
          power::Supercapacitor probe = supercap;  // predict only
          probe.advance_constant_power(net, 0.5 * w);
          pv_v = command_at_store(probe.voltage());
          power_pair(pv_v);
        }
        break;
      }
      case mppt::MacroLaw::kPerStepOnly:
        break;  // unreachable: only gated spans (running = false, above) come here
    }
    const double p_bar = 0.5 * (p_lo + p_hi);
    const double d_bar = 0.5 * (d_lo + d_hi);
    report.harvested_energy += p_bar * w;
    report.delivered_energy += d_bar * w;
    report.overhead_energy += overhead_power * w;
    prev_power = p_bar;
    prev_voltage = pv_v;
    last_net = d_bar - overhead_power - (store_usable() ? load_power : 0.0);
    if (obs_on) {
      if (pmpp_bar > 0.0) {
        eff_batch.observe(p_bar / pmpp_bar);
        if (eff_batch.pending() >= kObsFlushEvery) obs::metrics().flush(step_eff_id, eff_batch);
      }
      obs::metrics().observe(interval_id, w);
      obs::tracer().record_complete("macro_interval", "sched", t[a] * 1e6, w * 1e6,
                                    obs::Tracer::kSimPid);
    }
    advance_store_span(a, b, d_bar, overhead_power, pv_v, p_bar);
  };

  // Bound one interval: the hard time cap, plus the store-drift guard
  // for store-tracking laws (the commanded voltage follows the store).
  // A full supercapacitor under net inflow is pinned by its clamp, so
  // there the guard is raised to kFullStoreIntervalS.
  const auto cap_interval = [&](std::size_t p, std::size_t limit) {
    double cap = config.events.max_interval_s;
    if (law == mppt::MacroLaw::kTracksStore && !battery) {
      const double v = std::max(store_voltage(), 0.5);
      const double net = std::max(std::abs(last_net), 1e-9);
      double guard = config.events.store_dv_guard * supercap.params().capacitance * v / net;
      if (supercap.full() && last_net > 0.0) guard = std::max(guard, kFullStoreIntervalS);
      cap = std::min(cap, guard);
    }
    auto it = std::upper_bound(t.begin() + static_cast<std::ptrdiff_t>(p),
                               t.begin() + static_cast<std::ptrdiff_t>(limit) + 1, t[p] + cap);
    auto q = static_cast<std::size_t>(it - t.begin()) - 1;
    if (q <= p) q = p + 1;
    return std::min(q, limit);
  };

  // Cold-start sustain certification: with the supervisor latched on,
  // one exact cell evaluation at the segment's minimum illuminance
  // checks that the PV current at the worst-case hold voltage covers the
  // C1 drain with 4x margin — then started() cannot drop inside the
  // segment and the per-step supervisor integration is skipped (v_c1
  // frozen; it re-equilibrates within seconds of the next tick-stepped
  // segment, so un-start timing is preserved to well under the 0.1 %
  // energy budget).
  const auto coldstart_certified = [&](double scaled_min_lux) {
    if (!coldstart->started()) return false;
    const power::ColdStartCircuit::Params& cp = coldstart->params();
    const double v_hold = cp.threshold - cp.hysteresis + cp.diode_drop;
    const double i_pv =
        std::max(0.0, cell.current(v_hold, curves.conditions_at(scaled_min_lux)));
    return i_pv >= 4.0 * (cp.standby_leakage + controller_current);
  };

  // Advance steps [a, b), all on one side of the supply floor, whose
  // scaled illuminance spans [lo_lux, hi_lux]: the run's own range is the
  // quadrature clamp. Lit hill-climber runs tick; everything else is
  // macro-stepped, sample-hold laws up to each command event.
  const auto process_run = [&](std::size_t a, std::size_t b, bool running, double lo_lux,
                               double hi_lux) {
    if (running && law == mppt::MacroLaw::kPerStepOnly) {
      tick_steps(a, b);
      return;
    }
    std::size_t p = a;
    while (p < b) {
      if (running && law == mppt::MacroLaw::kSampleHold) {
        const double te = controller.next_command_event(t[p]);
        if (te < t[p + 1]) {
          // The event lands inside step p: replay that step through the
          // real controller so its mutable state (held sample, astable
          // phase, catch-up after dark) is exactly tick mode's.
          fallback_step(std::false_type{}, controller, p, false);
          ++p;
          continue;
        }
        std::size_t q = b;
        if (te < t[b]) {
          // Macro-step up to the step that contains the event.
          auto it = std::upper_bound(t.begin() + static_cast<std::ptrdiff_t>(p),
                                     t.begin() + static_cast<std::ptrdiff_t>(b) + 1, te);
          q = static_cast<std::size_t>(it - t.begin()) - 1;
        }
        q = cap_interval(p, q);
        process_interval(p, q, true, lo_lux, hi_lux);
        p = q;
      } else {
        const std::size_t q = cap_interval(p, b);
        process_interval(p, q, running, lo_lux, hi_lux);
        p = q;
      }
    }
  };

  if (tick_all) {
    tick_steps(0, n_steps);
  } else {
    const double dark_lux = CurveCache::kDarkLux;
    for (const env::Segment& seg : prepared->segments()) {
      ++report.events;  // light-trace breakpoint
      const double seg_min = s * seg.min_value;
      const double seg_max = s * seg.max_value;

      // lux_scale pushed a dark-merged segment (unbounded ratio) across
      // the surrogate's dark cutoff: no band bound for the quadrature.
      bool per_step = seg.dark && seg_max >= dark_lux;
      if (!per_step && coldstart && !coldstart_certified(seg_min)) {
        per_step = true;  // supervisor state must evolve tick by tick
        // A started supervisor failing certification is the anomalous
        // case (the drain margin collapsed); pre-start fallbacks are the
        // expected cold-start ramp and stay quiet.
        if (coldstart->started()) {
          obs::anomaly("coldstart_cert_failed", t[seg.first],
                       {{"seg_min_lux", seg_min},
                        {"steps", static_cast<double>(seg.last - seg.first)}});
        }
      }
      if (per_step) {
        tick_steps(seg.first, seg.last);
        continue;
      }

      // A cold-start supervisor is started and certified to stay so from
      // here: only the supply floor gates the controller.
      if (!(seg_min < min_operating_lux && seg_max >= min_operating_lux)) {
        process_run(seg.first, seg.last, seg_min >= min_operating_lux, seg_min, seg_max);
        continue;
      }
      // The supply floor falls inside the segment: split it into maximal
      // runs on one side of it, flipping exactly where tick mode's
      // running gate flips. The gated runs are store intervals (tick mode
      // makes no step() call there), the lit ones macro-step.
      std::size_t a = seg.first;
      double lo = s * eq[a];
      double hi = lo;
      bool gated = lo < min_operating_lux;
      for (std::size_t i = a + 1; i < seg.last; ++i) {
        const double lux = s * eq[i];
        if ((lux < min_operating_lux) != gated) {
          process_run(a, i, !gated, lo, hi);
          a = i;
          lo = hi = lux;
          gated = !gated;
        } else {
          lo = std::min(lo, lux);
          hi = std::max(hi, lux);
        }
      }
      process_run(a, seg.last, !gated, lo, hi);
    }
    report.events += fallback_steps;  // every tick is an event boundary
  }

  report.final_store_voltage = store_voltage();
  report.steps = fallback_steps + intervals;
  report.model_evals = curves.model_evals() - evals_before;
  report.curve_entries = curves.entries_built() - entries_before;

  if (obs_on) {
    obs::metrics().flush(step_eff_id, eff_batch);
    static const obs::CounterId steps_id = obs::metrics().counter("node.steps");
    static const obs::CounterId evals_id = obs::metrics().counter("node.model_evals");
    static const obs::CounterId hits_id = obs::metrics().counter("node.curve.hits");
    static const obs::CounterId misses_id = obs::metrics().counter("node.curve.misses");
    // Hit/miss: a lookup that needed no exact solve is a hit. In exact
    // mode every power_at_step solve is a miss; surrogate lookups hit
    // the interpolated tables.
    const std::uint64_t queries = curves.queries() - queries_before;
    const std::uint64_t misses = std::min(queries, report.model_evals);
    obs::metrics().add(steps_id, static_cast<double>(report.steps));
    obs::metrics().add(evals_id, static_cast<double>(report.model_evals));
    obs::metrics().add(hits_id, static_cast<double>(queries - misses));
    obs::metrics().add(misses_id, static_cast<double>(misses));
    if (tick_all) {
      static const obs::HistogramId builds_id =
          obs::metrics().histogram("node.curve.entries_built", {1.0, 1e5, 40});
      static const obs::HistogramId run_evals_id =
          obs::metrics().histogram("node.curve.model_evals", {1.0, 1e7, 56});
      obs::metrics().observe(builds_id, static_cast<double>(report.curve_entries));
      obs::metrics().observe(run_evals_id, static_cast<double>(report.model_evals));
    } else {
      static const obs::CounterId events_id = obs::metrics().counter("sched.events");
      static const obs::CounterId intervals_id = obs::metrics().counter("sched.intervals");
      static const obs::CounterId fallback_id = obs::metrics().counter("sched.fallback_steps");
      obs::metrics().add(events_id, static_cast<double>(report.events));
      obs::metrics().add(intervals_id, static_cast<double>(intervals));
      obs::metrics().add(fallback_id, static_cast<double>(fallback_steps));
    }
    obs::events().emit("node_run_complete", report.duration,
                       {{"steps", report.steps},
                        {"tracking_efficiency", report.tracking_efficiency()},
                        {"net_j", report.net_energy()},
                        {"curve_entries", report.curve_entries}});
    run_span->arg("steps", static_cast<double>(report.steps));
    if (tick_all) {
      run_span->arg("model_evals", static_cast<double>(report.model_evals));
      run_span->arg("curve_entries", static_cast<double>(report.curve_entries));
    } else {
      run_span->arg("events", static_cast<double>(report.events));
      run_span->arg("fallback_steps", static_cast<double>(fallback_steps));
      run_span->arg("model_evals", static_cast<double>(report.model_evals));
    }
    run_span->arg("tracking_efficiency", report.tracking_efficiency());
  }
  return report;
}

}  // namespace focv::node
