// SoA plan construction: dense table export, batched schedules, and the
// per-axis closed forms (sample/hold coefficients, affine-in-Voc laws).
// Everything here runs once per FleetEngine::run; the kernels
// (soa_scalar.cpp / soa_lanes.cpp) only ever read the finished plan.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "common/require.hpp"
#include "core/focv_system.hpp"
#include "fleet/soa_internal.hpp"
#include "mppt/baselines.hpp"
#include "mppt/focv_sample_hold.hpp"
#include "obs/obs.hpp"

// Baseline-compiled homes for the AlignedBuffer members that the AVX2
// and AVX-512 lane kernel objects declare extern (see soa_lanes.cpp):
// COMDAT selection can then never pick a wide-ISA copy for a baseline
// caller.
template class focv::AlignedBuffer<double>;
template class focv::AlignedBuffer<std::uint32_t>;

namespace focv::fleet::soa {

namespace {

using internal::kGrid;
using internal::kInf;

DenseTables export_tables(node::CurveCache& cache, double lux_min, double lux_max) {
  node::CurveCache::DenseExport e = cache.export_range(lux_min, lux_max);
  DenseTables tb;
  tb.grid_lo = e.grid_lo;
  tb.points = e.points;
  tb.slots = static_cast<int>(e.voc.size());
  tb.slot_f.resize(e.voc.size());
  for (std::size_t i = 0; i < e.voc.size(); ++i) {
    tb.slot_f[i].voc = e.voc[i];
    tb.slot_f[i].pmpp = e.pmpp[i];
    tb.slot_f[i].inv_voc = e.voc[i] > 0.0 ? 1.0 / e.voc[i] : kInf;
  }
  tb.power = std::move(e.power);
  return tb;
}

/// Resolve a memoryless prototype to its closed form when its step() is
/// affine in Voc. FixedVoltageController returns a constant; the pilot
/// cell scales Voc by k * pilot_scale * mismatch in exactly the
/// association aff_k * ((Voc * aff_s1) * aff_s2). Both report
/// disconnect_fraction == 0.0, so the folded activity
/// 1 - min(1, 0) == 1 and the closed form reproduces the virtual path
/// bit for bit — which is what lets the lane kernel run these axes.
void resolve_affine(AxisPlan& ap, const mppt::MpptController* proto) {
  if (const auto* fx = dynamic_cast<const mppt::FixedVoltageController*>(proto)) {
    ap.eval = AxisEval::kAffineVoc;
    ap.aff_const = true;
    ap.aff_v = fx->params().voltage;
    return;
  }
  if (const auto* pc = dynamic_cast<const mppt::PilotCellFocvController*>(proto)) {
    ap.eval = AxisEval::kAffineVoc;
    ap.aff_const = false;
    ap.aff_k = pc->params().k;
    ap.aff_s1 = pc->params().pilot_scale;
    ap.aff_s2 = pc->params().mismatch;
    return;
  }
  ap.eval = AxisEval::kPrototype;
}

}  // namespace

std::unique_ptr<const SoaPlan> build_plan(
    const FleetSpec& spec, const std::vector<PolicyAxis>& policies,
    const std::vector<std::optional<sched::PreparedTrace>>& prepared,
    node::CurveCache& cache) {
  const node::NodeConfig& base = spec.base;
  // Whole-spec disqualifiers: features the batch arithmetic does not
  // express. The caller falls back to the per-node engine entirely.
  if (base.power_model != node::PowerModel::kSurrogate) return nullptr;
  if (base.battery || base.coldstart) return nullptr;
  if (base.obs_compare_exact) return nullptr;
  if (base.events.resolve_load_bursts) return nullptr;
  if (base.storage.self_discharge_resistance <= 0.0) return nullptr;

  auto plan = std::make_unique<SoaPlan>();
  plan->capacitance = base.storage.capacitance;
  plan->tau = base.storage.self_discharge_resistance * base.storage.capacitance;
  plan->max_voltage = base.storage.max_voltage;
  plan->max_energy = 0.5 * plan->capacitance * plan->max_voltage * plan->max_voltage;
  plan->min_useful_voltage = base.storage.min_useful_voltage;
  plan->min_useful_energy =
      0.5 * plan->capacitance * plan->min_useful_voltage * plan->min_useful_voltage;
  plan->initial_voltage = base.storage.initial_voltage;
  plan->base_lux_scale = base.lux_scale;

  int focv_axes = 0;
  for (const PolicyAxis& axis : policies) {
    AxisPlan ap;
    if (axis.prototype == nullptr && axis.resolved.name == "focv") {
      // The axis' representative controller at the nominal divider: only
      // the divider ratio varies per node, and both its effects (the
      // held-value target and the duty-cycled divider drain) are linear
      // in it, so two coefficients replace per-node construction.
      const mppt::FocvSampleHoldController rep =
          core::make_paper_controller_from_spec(axis.resolved, spec.system);
      ap.batch = true;
      ap.law = mppt::MacroLaw::kSampleHold;
      ap.eval = AxisEval::kSampleHold;
      ap.min_lux = rep.minimum_operating_lux();
      ap.focv_overlay = focv_axes++;
      ap.period = rep.astable().period();
      ap.on_s = rep.astable().params().on_period;
      ap.first_edge = rep.astable().next_rising_edge(0.0);
      ap.droop = rep.sample_hold().droop_rate();
      ap.alpha = rep.params().alpha;
      ap.threshold = rep.params().active_threshold;
      const analog::SampleHold::Params& sh = rep.sample_hold().params();
      ap.in_off = sh.input_buffer_offset;
      ap.val_const = sh.output_buffer_offset - sh.charge_injection / sh.hold_capacitance;
      ap.div_rep = sh.divider_ratio;
      ap.oh_rep = rep.overhead_power();
      ap.oh_div = rep.params().supply_voltage * rep.astable().duty_cycle() * 5.4 /
                  spec.system.divider_r_top;
      ap.div_factor = axis.resolved.is_set("k")
                          ? axis.resolved.value("k") * spec.system.alpha /
                                spec.system.divider_ratio
                          : 1.0;
    } else if (axis.prototype != nullptr &&
               axis.prototype->macro_law() == mppt::MacroLaw::kMemoryless) {
      ap.batch = true;
      ap.law = mppt::MacroLaw::kMemoryless;
      ap.proto = axis.prototype;
      ap.oh_const = axis.prototype->overhead_power();
      ap.min_lux = axis.prototype->minimum_operating_lux();
      resolve_affine(ap, axis.prototype.get());
    }
    plan->any_batch = plan->any_batch || ap.batch;
    plan->axes.push_back(std::move(ap));
  }
  if (!plan->any_batch) return nullptr;

  // Illuminance scale bounds over the heterogeneity draws, with a
  // 6 sigma margin on the log-normal cell factor; rarer nodes clamp to
  // the table edges (sub-ppm of the fleet, bounded by the band width).
  const HeterogeneitySpec& h = spec.heterogeneity;
  const double s_lo =
      base.lux_scale * h.attenuation_min * std::exp(-6.0 * h.cell_tolerance_sigma);
  const double s_hi =
      base.lux_scale * h.attenuation_max * std::exp(6.0 * h.cell_tolerance_sigma);

  plan->envs.resize(spec.environments.size());
  for (std::size_t e = 0; e < spec.environments.size(); ++e) {
    require(prepared[e].has_value(), "soa::build_plan: missing PreparedTrace");
    const env::LightTrace& trace = *spec.environments[e].trace;
    EnvPlan& ep = plan->envs[e];
    ep.schedule = sched::build_batch_schedule(trace, *prepared[e], base.events.max_interval_s);
    ep.time = &trace.time();
    ep.duration = ep.schedule.duration;
    const std::size_t n_iv = ep.schedule.intervals.size();
    ep.x_lo.assign(n_iv);
    ep.x_hi.assign(n_iv);
    ep.decay.assign(n_iv);
    ep.width.assign(n_iv);
    ep.span.assign(n_iv);
    ep.mean_u.assign(n_iv);
    ep.t_start.assign(n_iv);
    ep.nsteps.assign(n_iv);
    for (std::size_t i = 0; i < n_iv; ++i) {
      const sched::BatchInterval& iv = ep.schedule.intervals[i];
      ep.x_lo[i] = iv.lo_u > 0.0 ? kGrid * std::log(iv.lo_u) : -kInf;
      ep.x_hi[i] = iv.hi_u > 0.0 ? kGrid * std::log(iv.hi_u) : -kInf;
      ep.decay[i] = std::exp(-2.0 * iv.w / plan->tau);
      ep.width[i] = iv.w;
      ep.span[i] = iv.t1 - iv.t0;
      ep.mean_u[i] = iv.mean_u;
      ep.t_start[i] = iv.t0;
      ep.nsteps[i] = iv.b - iv.a;
    }
    for (const AxisPlan& ap : plan->axes) {
      if (ap.law == mppt::MacroLaw::kSampleHold && ap.batch) {
        ep.overlays.push_back(
            sched::build_edge_overlay(ep.schedule, ap.period, ap.on_s, ap.first_edge));
      }
    }
    double lo_u = 0.0;
    double hi_u = 0.0;
    for (const sched::BatchSegment& seg : ep.schedule.segments) {
      if (seg.dark) continue;
      if (hi_u == 0.0) lo_u = seg.min_u;
      lo_u = std::min(lo_u, seg.min_u);
      hi_u = std::max(hi_u, seg.max_u);
    }
    if (hi_u > 0.0) {
      ep.tables = export_tables(cache, lo_u * s_lo, hi_u * s_hi);
    }
  }

  if (obs::enabled()) {
    static const obs::CounterId plans_id = obs::metrics().counter("fleet.soa.plans_built");
    static const obs::GaugeId bytes_id = obs::metrics().gauge("fleet.soa.table_bytes");
    std::size_t table_bytes = 0;
    for (const EnvPlan& ep : plan->envs) table_bytes += ep.tables.bytes();
    obs::metrics().add(plans_id);
    obs::metrics().set(bytes_id, static_cast<double>(table_bytes));
  }
  return plan;
}

}  // namespace focv::fleet::soa
