// Tuning knobs of the event-driven macro-stepping engine (focv::sched).
//
// Kept header-only and free of node/env includes so NodeConfig can embed
// the options without a dependency cycle (the engine itself depends on
// focv::node types and is compiled into the focv_node target).
#pragma once

namespace focv::sched {

/// Options for NodeConfig::stepper == Stepper::kEvent. The defaults are
/// tuned so every NodeReport energy/efficiency output stays within 0.1 %
/// of the fixed-step reference across the repo's indoor/outdoor/
/// cold-start scenarios (see tests/sched/) while compressing a 24 h
/// office day from 86,400 steps to a few thousand events.
struct EventOptions {
  /// Light-trace segmentation band: a segment ends as soon as its
  /// max/min illuminance ratio would exceed this. Wider bands mean
  /// fewer, longer analytic intervals but more quadrature error.
  double lux_ratio_band = 1.35;

  /// Store-tracking laws (direct connection): maximum predicted store
  /// voltage drift per analytic interval [V]. The commanded PV voltage
  /// follows the store, so the interval length is capped at
  /// guard * C * V / |net power| and the operating point is re-evaluated
  /// at the interval midpoint (one predictor-corrector pass). While the
  /// supercapacitor sits full under net inflow its clamp pins the store
  /// voltage, so the cap is raised to a 60 s floor there
  /// (kFullStoreIntervalS in macro_stepper.cpp); batteries keep the
  /// plain guard.
  double store_dv_guard = 5e-3;

  /// Hard cap on one analytic interval [s] — bounds any slow drift the
  /// per-interval laws do not model (store-coupled sensing, prev_power
  /// feedback into fallback steps).
  double max_interval_s = 900.0;

  /// When true, the duty-cycled load is resolved edge to edge through
  /// WsnLoad::next_burst_edge()/power_at() instead of its period
  /// average. The fixed reference path drains the *average* load power
  /// every step, so burst resolution is a refinement, not an
  /// equivalence target: leave it off (default) when validating against
  /// kFixed, turn it on to study burst-synchronous store dips. Threshold
  /// crossings are resolved in continuous time, and a usable() flip holds
  /// to the next step boundary (tick mode tests usable() at step starts),
  /// so a store sitting at the brown-out threshold flips once per step.
  bool resolve_load_bursts = false;
};

}  // namespace focv::sched
