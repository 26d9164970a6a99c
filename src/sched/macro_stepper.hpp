// focv::sched — the event-driven macro-stepping engine.
//
// simulate_node's fixed path integrates every trace step (86,400 per
// simulated day); the engine here advances from event to event instead:
//
//   - MPPT sample/hold boundaries: for sample-and-hold laws the
//     controller exposes next_command_event()/command_at(); the step
//     containing an event is replayed through the real step() call, so
//     the controller's mutable state (held sample, astable phase,
//     catch-up edges after dark periods) stays exactly the fixed path's.
//   - Light-trace breakpoints: the ratio-band segmentation of
//     env/segments.hpp via PreparedTrace.
//   - Supply-floor crossings: a segment straddling the controller's
//     minimum operating illuminance is split into maximal runs on one
//     side of it, at the step where the fixed path's running gate flips.
//     Gated runs are store intervals, lit runs macro-step.
//   - Per-step-only controllers (P&O, inccond, gradient descent): spans
//     under the supply floor are store intervals like any other gated
//     span; every lit step is ticked with the fixed path's curve
//     arithmetic, so harvest, delivery, overhead and brown-out steps
//     equal the fixed path's bit for bit.
//   - Storage threshold crossings: usable/brown-out flips found by the
//     closed-form root solve in power/storage.cpp (linear solve for the
//     battery), snapped to the step boundary the fixed path would flip
//     on.
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
// 0.1 % of the fixed-step trajectory (tests/sched/equivalence_test.cpp).
#pragma once

#include "env/light_trace.hpp"
#include "node/harvester_node.hpp"
#include "sched/prepared_trace.hpp"

namespace focv::sched {

/// True when `config` can run on the event engine: surrogate power
/// model, no exact-shadow telemetry, and a controller. Every macro law
/// qualifies (kPerStepOnly laws skip their gated spans and tick their
/// lit ones). simulate_node silently takes the fixed reference path
/// otherwise.
[[nodiscard]] bool event_supported(const node::NodeConfig& config);

/// Event-driven counterpart of node::simulate_node. `config` must pass
/// event_supported(). `shared_curves` follows the same contract as the
/// fixed path's shared-cache overload (surrogate mode; not re-entrant).
/// `prepared` may be nullptr (built internally) or a caller-owned
/// instance for exactly this trace and cell — shared, read-only, across
/// any number of concurrent runs.
[[nodiscard]] node::NodeReport simulate_node_events(const env::LightTrace& trace,
                                                    const node::NodeConfig& config,
                                                    node::CurveCache* shared_curves,
                                                    const PreparedTrace* prepared);

}  // namespace focv::sched
