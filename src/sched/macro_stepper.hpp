// focv::sched — the stepper behind node::simulate_node (defined in
// macro_stepper.cpp). One step body, fallback_step(), defines what a
// step is: PV curve -> controller -> converter -> store -> load.
//
// Stepper::kFixed (and any config event_supported() rejects) runs it on
// every trace step: tick mode, the bit-identical reference. Stepper::
// kEvent advances from event to event instead (86,400 steps per
// simulated day become a few thousand):
//
//   - MPPT sample/hold boundaries: for sample-and-hold laws the
//     controller exposes next_command_event()/command_at(); the step
//     containing an event is ticked through the real step() call, so
//     the controller's mutable state (held sample, astable phase,
//     catch-up edges after dark periods) stays exactly tick mode's.
//   - Light-trace breakpoints: the ratio-band segmentation of
//     env/segments.hpp via PreparedTrace.
//   - Supply-floor crossings: a segment straddling the controller's
//     minimum operating illuminance is split into maximal runs on one
//     side of it, at the step where tick mode's running gate flips.
//     Gated runs are store intervals, lit runs macro-step.
//   - Per-step-only controllers (P&O, inccond, gradient descent): spans
//     under the supply floor are store intervals like any other gated
//     span; every lit step is ticked with tick mode's curve arithmetic,
//     so harvest, delivery, overhead and brown-out steps equal kFixed's
//     bit for bit.
//   - Storage threshold crossings: usable/brown-out flips found by the
//     closed-form root solve in power/storage.cpp (linear solve for the
//     battery), snapped to the step boundary tick mode would flip on.
//   - Load burst edges (opt-in, EventOptions::resolve_load_bursts) and
//     report/record sampling points.
//
// Between events, harvested/delivered charge is integrated analytically
// from the held operating point and the CurveCache surrogate with a
// 2-point quadrature at the interval's illuminance mean +- stddev (O(1)
// from PreparedTrace prefix moments), so model_evals stays flat while
// steps drops by 1-2 orders of magnitude.
//
// Correctness contract: every NodeReport energy/efficiency output within
// 0.1 % of kFixed (tests/sched/equivalence_test.cpp).
#pragma once

#include "node/harvester_node.hpp"

namespace focv::sched {

/// True when `config` can macro-step under Stepper::kEvent: surrogate
/// power model, no exact-shadow telemetry, and a controller. Every macro
/// law qualifies (kPerStepOnly laws skip their gated spans and tick
/// their lit ones). simulate_node ticks every step otherwise.
[[nodiscard]] bool event_supported(const node::NodeConfig& config);

}  // namespace focv::sched
