// Struct-of-arrays fleet engine: batched event queues + dense curve
// tables for million-node runs.
//
// The per-node engine (fleet.cpp + sched/macro_stepper.cpp) owns one
// controller, one supercapacitor and one event loop per node; at 10k+
// nodes the per-node object churn and virtual dispatch dominate. This
// engine flips the loop order: a chunk of nodes is held as contiguous
// per-field arrays (store voltage, divider draw, log-lux grid offset,
// energy accumulators) and one shared batched event schedule per
// environment (sched/batch_schedule.hpp) advances the WHOLE chunk
// interval by interval in tight loops over dense surrogate power tables
// (CurveCache::export_range) — no per-node steppers, no per-node curve
// caches, no virtual calls on the sample-and-hold path.
//
// Semantics: each batched interval reproduces
// MacroStepper::process_interval — the same 2-point illuminance
// quadrature, the same converter and closed-form supercapacitor
// advance with usable() crossings snapped to step boundaries — so the
// engine lives inside the event stepper's existing 0.1 % equivalence
// contract rather than defining a new one. The sample-and-hold command
// is integrated analytically per interval (mean sample age + edge count
// from the shared EdgeOverlay) instead of replaying every astable edge;
// memoryless controllers are evaluated through one cloned prototype per
// chunk exactly as process_interval would.
//
// Kernels: one interval body (soa_internal.hpp), instantiated node-major
// on doubles (soa_scalar.cpp) and interval-major on W-wide lanes
// (soa_lanes.cpp). run_batch picks per axis run from what it can
// observe — the axis' eval, the host ISA, the table size — and the
// bytes do not depend on the pick.
//
// Determinism: the plan (schedules, tables, overlays) is immutable and
// built before any chunk runs; chunks share nothing mutable, so jobs=1
// and jobs=N produce byte-identical FleetReports.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/aligned.hpp"
#include "fleet/fleet.hpp"
#include "node/curve_cache.hpp"
#include "sched/batch_schedule.hpp"

namespace focv::fleet::soa {

/// Dense surrogate curve tables for one environment: flat copies of the
/// CurveCache grid entries over the illuminance span any draw of this
/// fleet can reach (a +-6 sigma margin on the heterogeneity bounds;
/// lookups clamp at the edges). The entry doubles are stored verbatim,
/// so lookups run the same interpolation arithmetic as
/// CurveCache::at(LuxKey).
struct DenseTables {
  long grid_lo = 0;  ///< grid index of slot 0
  int slots = 0;
  int points = 0;
  /// Slot-indexed entries stay interleaved: one quadrature point reads
  /// Voc, Pmpp and 1/Voc for slots k and k+1, so packing them per slot
  /// touches one or two cache lines instead of a line per array.
  /// inv_voc (1 / the slot's Voc) turns the row-position
  /// division in every P(V) lookup into a multiply.
  struct SlotF {
    double voc = 0.0, pmpp = 0.0, inv_voc = 0.0;
  };
  std::vector<SlotF> slot_f;  ///< [slots]
  std::vector<double> power;  ///< [slot * points + m]
  [[nodiscard]] std::size_t bytes() const {
    return sizeof(SlotF) * slot_f.size() + sizeof(double) * power.size();
  }
};

/// How a batched axis' controller output is evaluated per interval.
/// kSampleHold and kAffineVoc are closed forms either kernel runs;
/// kPrototype needs a virtual step() on a cloned controller and always
/// runs on the scalar kernel.
enum class AxisEval {
  kPrototype,   ///< generic memoryless controller via its cloned prototype
  kSampleHold,  ///< the paper's S&H FOCV closed form
  kAffineVoc,   ///< memoryless law that is affine in Voc (fixed / pilot)
};

/// Per-policy-axis batch strategy, resolved once per run.
struct AxisPlan {
  bool batch = false;               ///< false: node falls back to the per-node engine
  mppt::MacroLaw law = mppt::MacroLaw::kPerStepOnly;
  AxisEval eval = AxisEval::kPrototype;
  double min_lux = 0.0;
  int focv_overlay = -1;            ///< index into EnvPlan::overlays (kSampleHold only)
  // Memoryless controllers: the shared prototype, cloned once per chunk.
  std::shared_ptr<const mppt::MpptController> proto;
  double oh_const = 0.0;            ///< overhead power, memoryless axes [W]
  // kAffineVoc closed form, extracted from the prototype's parameters:
  // v = aff_v when aff_const, else aff_k * ((Voc * aff_s1) * aff_s2) —
  // the exact association step() computes, so the closed form is
  // bit-identical to the virtual path it replaces. aff_act is the
  // constant harvest activity 1 - min(1, disconnect_fraction).
  bool aff_const = false;
  double aff_v = 0.0, aff_k = 0.0, aff_s1 = 1.0, aff_s2 = 1.0, aff_act = 1.0;
  // focv closed-form parameters (from the axis' representative
  // controller; only the divider ratio varies per node).
  double period = 0.0, on_s = 0.0, first_edge = 0.0;
  double droop = 0.0;               ///< hold droop rate [V/s]
  double alpha = 0.5, threshold = 0.9;
  double in_off = 0.0;              ///< input buffer offset [V]
  double val_const = 0.0;           ///< output offset - charge-injection drop [V]
  double div_rep = 0.0;             ///< divider the representative was built with
  double oh_rep = 0.0;              ///< overhead at div_rep [W]
  double oh_div = 0.0;              ///< d(overhead)/d(1 - divider) [W]
  double div_factor = 1.0;          ///< per-node divider = draw.divider_ratio * this
};

/// Per-environment shared state: the batched schedule, the dense curve
/// tables, and one astable edge overlay per sample-and-hold axis.
struct EnvPlan {
  sched::BatchSchedule schedule;
  AlignedBuffer<double> x_lo, x_hi;  ///< 32 ln(quadrature lux), per interval
  AlignedBuffer<double> decay;       ///< exp(-2 w / tau), per interval
  // Dense copies of the per-interval fields the inner loops touch every
  // iteration, so the hot path streams a few sequential cache-aligned
  // arrays instead of striding through the 88-byte BatchInterval
  // records.
  AlignedBuffer<double> width;       ///< iv.w (energy quadrature weight)
  AlignedBuffer<double> span;        ///< iv.t1 - iv.t0 (exact step span)
  AlignedBuffer<double> mean_u;      ///< iv.mean_u (running-gate input)
  AlignedBuffer<double> t_start;     ///< iv.t0 (cold-start stamp)
  AlignedBuffer<std::uint32_t> nsteps;  ///< iv.b - iv.a
  std::vector<sched::EdgeOverlay> overlays;
  DenseTables tables;
  const std::vector<double>* time = nullptr;  ///< trace step boundaries
  double duration = 0.0;
};

struct SoaPlan {
  std::vector<AxisPlan> axes;   ///< parallel to effective_policies()
  std::vector<EnvPlan> envs;    ///< parallel to spec.environments
  bool any_batch = false;
  // Shared storage model (batched nodes never carry batteries).
  double capacitance = 0.0, tau = 0.0, max_energy = 0.0;
  double min_useful_voltage = 0.0, min_useful_energy = 0.0, max_voltage = 0.0;
  double initial_voltage = 0.0;
  double base_lux_scale = 1.0;
};

/// Build the immutable plan, or nullptr when the spec as a whole cannot
/// batch (exact power model, battery, cold-start supervisor, burst
/// resolution, obs exact-shadow) — the caller then runs every node on
/// the per-node engine. `prepared` must hold one PreparedTrace per
/// environment; `cache` is the run's warm cache (tables are exported
/// from it).
[[nodiscard]] std::unique_ptr<const SoaPlan> build_plan(
    const FleetSpec& spec, const std::vector<PolicyAxis>& policies,
    const std::vector<std::optional<sched::PreparedTrace>>& prepared,
    node::CurveCache& cache);

/// Advance every draw listed in `members` (indices into `draws`; each
/// must reference a batchable axis) and write its NodeReport into
/// `reports[member]`. Deterministic: depends only on (plan, spec,
/// draws) — never on worker scheduling.
void run_batch(const SoaPlan& plan, const FleetSpec& spec, const std::vector<NodeDraw>& draws,
               const std::vector<std::uint32_t>& members,
               std::vector<node::NodeReport>& reports);

}  // namespace focv::fleet::soa
