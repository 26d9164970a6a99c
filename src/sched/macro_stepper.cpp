#include "sched/macro_stepper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "obs/obs.hpp"
#include "sched/node_run.hpp"
#include "sched/prepared_trace.hpp"

namespace focv::sched {

bool event_supported(const node::NodeConfig& config) {
  if (config.power_model != node::PowerModel::kSurrogate) return false;
  if (config.obs_compare_exact) return false;
  return config.controller_prototype != nullptr;
}

using node::CurveCache;
using node::NodeConfig;
using node::NodeReport;
using node::PowerModel;
using node::Stepper;

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
//
// The run is an object so its segment walk can stop at each span of
// steps that must tick (next_ticks) and resume after the caller ticked
// it. simulate_node ticks the span at once (tick_steps); the fleet's
// hill-climber lanes tick it elsewhere and hand the state back.
class NodeRun::Impl {
 public:
  Impl(const env::LightTrace& trace, const NodeConfig& config, CurveCache* shared_curves,
       const PreparedTrace* prepared);
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  bool next_ticks(TickSpan& span);
  void tick_steps(std::size_t a, std::size_t b);
  NodeReport finish();

  [[nodiscard]] mppt::MpptController& controller() { return *controller_; }
  [[nodiscard]] TickState tick_state() const;
  void set_tick_state(const TickState& st, std::uint64_t ticks, int brownout_steps);

 private:
  [[nodiscard]] double store_voltage() const {
    return battery_ ? battery_->open_circuit_voltage() : supercap_.voltage();
  }
  [[nodiscard]] bool store_usable() const {
    return battery_ ? battery_->usable() : supercap_.usable();
  }
  double store_apply(double power, double dt) {
    return battery_ ? battery_->apply_power(power, dt) : supercap_.apply_power(power, dt);
  }
  [[nodiscard]] double time_to_usable_flip(double net) const;
  void store_advance(double net, double dt);
  void advance_piece(std::size_t a, std::size_t b, double delivered_pw, double oh_drain);
  void advance_store_span(std::size_t a, std::size_t b, double delivered_pw, double oh_drain,
                          double rec_v, double rec_p);
  template <bool kLean>
  void fallback_step(std::size_t i, bool advance_cs);
  void process_interval(std::size_t a, std::size_t b, bool running, double lo_lux,
                        double hi_lux);
  [[nodiscard]] std::size_t cap_interval(std::size_t p, std::size_t limit) const;
  [[nodiscard]] bool coldstart_certified(double scaled_min_lux) const;
  void process_run(std::size_t a, std::size_t b, bool running, double lo_lux, double hi_lux);
  bool run_or_tick(std::size_t a, std::size_t b, bool running, double lo_lux, double hi_lux,
                   TickSpan& span);

  const env::LightTrace& trace_;
  const NodeConfig& config_;
  const pv::SingleDiodeModel* cell_ = nullptr;
  // Decided once per run: tick every step, or macro-step between events.
  bool tick_all_ = false;
  bool exact_ = false;  // implies tick_all_

  std::optional<PreparedTrace> owned_prep_;
  std::vector<double> owned_eq_;
  std::vector<double> owned_total_;
  const PreparedTrace* prepared_ = nullptr;
  const std::vector<double>* eq_ = nullptr;
  const std::vector<double>* total_ = nullptr;

  std::unique_ptr<mppt::MpptController> controller_;
  mppt::MacroLaw law_ = mppt::MacroLaw::kPerStepOnly;

  power::Supercapacitor supercap_;
  std::optional<power::Battery> battery_;
  power::WsnLoad load_;
  std::optional<power::ColdStartCircuit> coldstart_;

  std::optional<CurveCache> owned_curves_;
  CurveCache* curves_ = nullptr;
  std::uint64_t evals_before_ = 0;
  std::uint64_t entries_before_ = 0;
  std::uint64_t queries_before_ = 0;

  const std::vector<double>* t_ = nullptr;
  double s_ = 1.0;
  std::size_t n_steps_ = 0;

  bool obs_on_ = false;
  bool shadow_ = false;
  std::vector<double> scaled_eq_;
  std::optional<obs::Tracer::Span> run_span_;
  std::optional<CurveCache> exact_shadow_;  ///< surrogate-vs-exact comparison (tick mode)
  obs::HistogramId step_eff_id_{};
  obs::HistogramId deviation_id_{};
  obs::HistogramId interval_id_{};
  obs::HistogramBatch eff_batch_{{1e-3, 1.0 + 1e-9, 48}};
  bool brownout_anomaly_ = false;
  bool in_brownout_ = false;

  NodeReport report_;
  mppt::SensedInputs sensed_;
  double prev_power_ = 0.0;
  double prev_voltage_ = 0.0;
  double overhead_power_ = 0.0;
  double min_operating_lux_ = 0.0;
  double load_power_ = 0.0;
  double controller_current_ = 0.0;
  bool record_ = false;
  std::size_t stride_ = 1;
  bool bursts_ = false;
  std::uint64_t fallback_steps_ = 0;
  std::uint64_t intervals_ = 0;
  double last_net_ = 0.0;
  double cap_usable_energy_ = 0.0;
  bool replay_steps_ = false;
  bool lean_ = false;

  // Segment walk cursor (event mode): the segment being walked and the
  // first step of it not yet planned; tick mode plans one span.
  std::size_t seg_ = 0;
  std::size_t pos_ = 0;
  bool in_segment_ = false;
  bool ticked_all_ = false;
};

NodeRun::Impl::Impl(const env::LightTrace& trace, const NodeConfig& config,
                    CurveCache* shared_curves, const PreparedTrace* prepared)
    : trace_(trace), config_(config) {
  require(config.cell_model != nullptr, "simulate_node: cell is required (use_cell)");
  require(config.controller_prototype != nullptr,
          "simulate_node: controller is required (use_controller)");
  require(trace.size() >= 2, "simulate_node: trace needs at least 2 samples");
  require(config.lux_scale > 0.0, "simulate_node: lux_scale must be > 0");

  cell_ = config.cell_model.get();
  const pv::SingleDiodeModel& cell = *cell_;
  tick_all_ = config.stepper == Stepper::kFixed || !event_supported(config);
  exact_ = config.power_model == PowerModel::kExact;

  // Per-trace series: a caller-owned PreparedTrace (shared read-only
  // across nodes) is read in place. Without one, tick mode needs only
  // the two lux series; event mode builds its own PreparedTrace.
  if (prepared != nullptr) {
    require(&prepared->trace() == &trace,
            "simulate_node: PreparedTrace was built for a different trace");
    require(&prepared->cell() == &cell,
            "simulate_node: PreparedTrace was built for a different cell model");
    if (!tick_all_) {
      const env::SegmentationOptions want = segmentation_for(config.events);
      const env::SegmentationOptions& got = prepared->segmentation();
      require(got.ratio_band == want.ratio_band && got.floor == want.floor,
              "simulate_node: PreparedTrace segmentation does not match the run's EventOptions");
    }
  } else if (tick_all_) {
    owned_eq_ = trace.equivalent_lux(cell);
    owned_total_ = trace.total_lux();
  } else {
    owned_prep_.emplace(trace, cell, segmentation_for(config.events));
    prepared = &*owned_prep_;
  }
  prepared_ = prepared;
  // From here `prepared_` is null only for a tick-mode run without a
  // caller instance; tick mode reads nothing but these two series.
  eq_ = prepared != nullptr ? &prepared->eq_lux() : &owned_eq_;
  total_ = prepared != nullptr ? &prepared->total_lux() : &owned_total_;

  controller_ = config.controller_prototype->clone();
  mppt::MpptController& controller = *controller_;
  controller.reset();
  law_ = controller.macro_law();

  supercap_ = power::Supercapacitor(config.storage);
  if (config.battery) battery_.emplace(*config.battery);
  load_ = power::WsnLoad(config.load);
  if (config.coldstart) coldstart_.emplace(*config.coldstart);

  // A caller-owned cache (fleet chunks, serve) must answer for exactly
  // this run's cell/temperature/options, or its entries would be wrong.
  if (shared_curves != nullptr) {
    require(&shared_curves->cell() == &cell,
            "simulate_node: shared curve cache was built for a different cell model");
    require(shared_curves->temperature_k() == config.temperature_k,
            "simulate_node: shared curve cache temperature mismatch");
    require(shared_curves->model() == config.power_model &&
                shared_curves->options().surrogate_points == config.surrogate_points,
            "simulate_node: shared curve cache options mismatch");
  } else {
    owned_curves_.emplace(cell, config.temperature_k,
                          CurveCache::Options{config.power_model, config.surrogate_points});
  }
  curves_ = shared_curves != nullptr ? shared_curves : &*owned_curves_;
  CurveCache& curves = *curves_;
  // A shared cache carries counters (and in surrogate mode, entries)
  // from earlier runs; the report's counters are this run's increments.
  evals_before_ = curves.model_evals();
  entries_before_ = curves.entries_built();
  queries_before_ = curves.queries();

  t_ = &trace.time();
  s_ = config.lux_scale;
  n_steps_ = trace.size() - 1;

  // Telemetry: one enabled() check per run; the step loops only test the
  // hoisted bool. Everything recorded is derived from values the
  // simulation computes anyway (observation-only, see obs.hpp).
  obs_on_ = obs::enabled();
  shadow_ = obs_on_ && config.obs_compare_exact && !exact_;

  // kExact (and the exact shadow) answer per step from a prepare()d
  // series, which must outlive the run's queries: the scaled copy lives
  // here.
  if (s_ != 1.0 && (exact_ || shadow_)) {
    scaled_eq_ = *eq_;
    for (double& v : scaled_eq_) v *= s_;
  }
  const std::vector<double>& exact_eq = s_ != 1.0 ? scaled_eq_ : *eq_;
  if (exact_) curves.prepare(exact_eq);

  if (obs_on_) {
    run_span_.emplace(obs::tracer().span("simulate_node", "node"));
    run_span_->arg("controller", controller.name());
    run_span_->arg("power_model", exact_ ? "exact" : "surrogate");
    if (!tick_all_) run_span_->arg("stepper", "event");
    if (shadow_) {
      exact_shadow_.emplace(cell, config.temperature_k,
                            CurveCache::Options{PowerModel::kExact, config.surrogate_points});
      exact_shadow_->prepare(exact_eq);
    }
  }
  static const obs::HistogramId step_eff_id = obs::metrics().histogram(
      "node.step_tracking_efficiency", {1e-3, 1.0 + 1e-9, 48});
  step_eff_id_ = step_eff_id;
  deviation_id_ = tick_all_ ? deviation_histogram() : obs::HistogramId{};
  interval_id_ = tick_all_ ? obs::HistogramId{} : interval_histogram();
  // Per-step efficiency samples batch locally (plain adds) in eff_batch_
  // and merge into the registry every kObsFlushEvery samples.
  // Brown-out entry raises an anomaly (one flight dump when armed) in
  // tick mode only; event runs have never emitted it.
  brownout_anomaly_ = obs_on_ && tick_all_;

  report_.duration = trace.duration();

  overhead_power_ = controller.overhead_power();
  min_operating_lux_ = controller.minimum_operating_lux();
  load_power_ = load_.average_power();
  controller_current_ = overhead_power_ / 3.3;  // for the cold-start load model
  record_ = config.record_traces;
  stride_ = static_cast<std::size_t>(std::max(1, config.record_stride));
  // EventOptions tune event mode only: tick mode drains the average load.
  bursts_ = !tick_all_ && config.events.resolve_load_bursts;

  // Net store power of the last processed interval: seeds the
  // store-tracking drift guard in cap_interval().
  last_net_ = -(overhead_power_ + load_power_);
  cap_usable_energy_ = supercap_.min_useful_energy();

  // The lean instantiation of fallback_step (below) serves runs that use
  // none of its optional branches.
  replay_steps_ = tick_all_ || law_ == mppt::MacroLaw::kPerStepOnly;
  lean_ = replay_steps_ && !exact_ && !battery_ && !coldstart_ && !record_ && !bursts_ &&
          !obs_on_;
}

// --- store advancement ------------------------------------------------
// Time until the store's usable() flag would flip under constant net
// power, from its current state. Mirrors the store models exactly:
// closed-form RC solve for the supercapacitor, linear for the battery.
double NodeRun::Impl::time_to_usable_flip(double net) const {
  if (battery_) {
    const power::Battery::Params& bp = battery_->params();
    const double rate =
        (net >= 0.0 ? std::min(net, bp.max_charge_power) * bp.coulombic_efficiency : net) -
        bp.capacity_j * bp.self_discharge_per_day / 86400.0;
    if (rate == 0.0) return kInf;
    const double dt = (0.02 * bp.capacity_j - battery_->stored_energy()) / rate;
    return dt >= 0.0 ? dt : kInf;
  }
  return supercap_.time_to_energy(net, cap_usable_energy_);
}

void NodeRun::Impl::store_advance(double net, double dt) {
  if (battery_) {
    battery_->apply_power(net, dt);
  } else {
    supercap_.advance_constant_power(net, dt);
  }
}

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
void NodeRun::Impl::advance_piece(std::size_t a, std::size_t b, double delivered_pw,
                                  double oh_drain) {
  const std::vector<double>& t = *t_;
  double cur = t[a];
  const double t1 = t[b];
  std::size_t hold_until = kNone;  // usable() is held until t[hold_until]
  bool held = false;
  while (cur < t1) {
    if (hold_until != kNone && cur >= t[hold_until]) hold_until = kNone;
    const bool usable = hold_until != kNone ? held : store_usable();
    const double load_now = load_.power_at(cur);
    const double net = delivered_pw - oh_drain - (usable ? load_now : 0.0);
    double next = std::min(t1, load_.next_burst_edge(cur));
    bool flipped = false;
    if (hold_until != kNone) {
      next = std::min(next, t[hold_until]);
    } else {
      const double flip_dt = time_to_usable_flip(net);
      if (std::isfinite(flip_dt) && cur + flip_dt < next) {
        // Nudge just past the crossing so usable() actually flips.
        next = std::min(t1, cur + flip_dt + 1e-9);
        ++report_.events;
        flipped = true;
      }
    }
    const double len = next - cur;
    store_advance(net, len);
    if (usable) {
      report_.load_energy_served += load_now * len;
    } else {
      report_.brownout_time += len;
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
}

// Advance the store across steps [a, b) under constant converter
// output `delivered_pw` and controller drain `oh_drain`, splitting at
// usable() threshold crossings (snapped to the step boundary the fixed
// path would flip on — it tests usable() at step starts), at record
// points, and (opt-in) at load burst edges. rec_v / rec_p are the
// held operating point written to recorded traces inside the span.
void NodeRun::Impl::advance_store_span(std::size_t a, std::size_t b, double delivered_pw,
                                       double oh_drain, double rec_v, double rec_p) {
  const std::vector<double>& t = *t_;
  std::size_t p = a;
  while (p < b) {
    std::size_t rec_step = kNone;
    std::size_t q = b;
    if (record_) {
      const std::size_t r = ((p + stride_ - 1) / stride_) * stride_;  // next recorded step >= p
      if (r < b) {
        rec_step = r;
        q = r + 1;  // tick mode records step r after applying it
      }
    }
    if (!bursts_) {
      const bool usable = store_usable();
      const double net = delivered_pw - oh_drain - (usable ? load_power_ : 0.0);
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
        ++report_.events;  // storage threshold crossing
      }
      const double len = t[q] - t[p];
      store_advance(net, len);
      if (usable) {
        report_.load_energy_served += load_power_ * len;
      } else {
        report_.brownout_steps += static_cast<int>(q - p);
        report_.brownout_time += len;
      }
    } else {
      advance_piece(p, q, delivered_pw, oh_drain);
    }
    if (rec_step != kNone) {
      report_.time.push_back(t[rec_step]);
      report_.pv_voltage.push_back(rec_v);
      report_.pv_power.push_back(rec_p);
      report_.store_voltage.push_back(store_voltage());
      ++report_.events;  // report sampling point
    }
    p = q;
  }
}

// --- fallback step -----------------------------------------------------
// One step of the behavioural chain: PV curve -> controller ->
// converter -> store -> load. Tick mode runs it on every step; event
// mode on the steps it cannot macro-step. Curve queries are lazy, so
// no O(trace) pass is needed: tick-replayed steps (every step in tick
// mode, every lit step of a kPerStepOnly law) resolve one StepKey
// (float weight), isolated event-mode ticks a double-weight LuxKey,
// and kExact reads its prepare()d per-step solves. `advance_cs` is
// false only inside segments whose cold-start supervisor is
// certified-and-frozen (see next_ticks).
//
// The body is compiled twice from this one source. The `kLean`
// instantiation serves runs that use none of its optional branches:
// replayed surrogate steps, a supercapacitor, no cold start, no
// recording, no bursts and telemetry off. There `if constexpr` drops
// those branches, so the every-step loop (tick_steps below) pays only
// for the chain itself. Both instantiations compute the same bits.
template <bool kLean>
inline void NodeRun::Impl::fallback_step(std::size_t i, bool advance_cs) {
  const std::vector<double>& t = *t_;
  CurveCache& curves = *curves_;
  const double dt = t[i + 1] - t[i];
  const double lux = s_ * (*eq_)[i];
  CurveCache::LuxKey key;  // a replayed step's float weight, widened
  CurveCache::StepCurve curve;
  if (!kLean && exact_) {
    curve = curves.at_step(i);
  } else {
    key = kLean || replay_steps_ ? curves.step_key(lux) : curves.lux_key(lux);
    curve = curves.at(key);
  }
  report_.ideal_mpp_energy += curve.pmpp * dt;

  // Cold-start gate: while the supervisor has not fired, the MPPT is
  // unpowered and the PV charges C1 instead of harvesting.
  bool running = true;
  if (!kLean && coldstart_) {
    if (advance_cs) {
      coldstart_->advance(*cell_, curves.conditions_at(lux), dt, controller_current_);
    }
    running = coldstart_->started();
  }
  // Supply floor: below its minimum illuminance the tracking circuitry
  // cannot run at all.
  if (lux < min_operating_lux_) running = false;

  double pv_power = 0.0;
  double pv_voltage = 0.0;
  if (running) {
    if (report_.coldstart_time < 0.0) report_.coldstart_time = t[i];
    sensed_.time = t[i];
    sensed_.dt = dt;
    sensed_.voc = curve.voc;
    sensed_.pilot_voc = curve.voc;  // matched pilot; controller applies its own mismatch
    sensed_.illuminance_estimate = s_ * (*total_)[i];
    sensed_.prev_power = prev_power_;
    sensed_.prev_voltage = prev_voltage_;
    sensed_.store_voltage = kLean ? supercap_.voltage() : store_voltage();
    const mppt::ControlOutput out = controller_->step(sensed_);
    pv_voltage = out.pv_voltage;
    const double cell_power =
        !kLean && exact_ ? curves.power_at_step(i, pv_voltage) : curves.power_at(key, pv_voltage);
    pv_power = cell_power * (1.0 - std::min(1.0, out.disconnect_fraction));
    report_.overhead_energy += overhead_power_ * dt;
    if (!kLean && obs_on_ && curve.pmpp > 0.0) {
      eff_batch_.observe(pv_power / curve.pmpp);
      if (eff_batch_.pending() >= kObsFlushEvery) obs::metrics().flush(step_eff_id_, eff_batch_);
      if (exact_shadow_ && pv_voltage > 0.0) {  // tick mode, surrogate: a StepKey
        const double exact_power = exact_shadow_->power_at_step(i, pv_voltage);
        obs::metrics().observe(
            deviation_id_,
            std::abs(curves.power_at(key, pv_voltage) - exact_power) / curve.pmpp);
      }
    }
  }
  prev_power_ = pv_power;
  prev_voltage_ = pv_voltage;
  report_.harvested_energy += pv_power * dt;

  const double delivered = config_.converter.output_power(pv_power, pv_voltage);
  report_.delivered_energy += delivered * dt;

  // Store bookkeeping: harvest in, overhead and load out.
  double drain = running ? overhead_power_ : 0.0;
  const double step_load = !kLean && bursts_ ? load_.power_at(t[i]) : load_power_;
  if (kLean ? supercap_.usable() : store_usable()) {
    drain += step_load;
    report_.load_energy_served += step_load * dt;
    if constexpr (!kLean) in_brownout_ = false;
  } else {
    ++report_.brownout_steps;
    report_.brownout_time += dt;
    if constexpr (!kLean) {
      if (brownout_anomaly_ && !in_brownout_) emit_brownout(t[i], store_voltage(), lux, i);
      in_brownout_ = true;
    }
  }
  if constexpr (kLean) {
    supercap_.apply_power(delivered - drain, dt);
  } else {
    store_apply(delivered - drain, dt);
  }

  if (!kLean && record_ && i % stride_ == 0) {
    report_.time.push_back(t[i]);
    report_.pv_voltage.push_back(pv_voltage);
    report_.pv_power.push_back(pv_power);
    report_.store_voltage.push_back(store_voltage());
  }
  ++fallback_steps_;
}

// Tick every step of [a, b), through the lean instantiation when the
// run qualifies.
void NodeRun::Impl::tick_steps(std::size_t a, std::size_t b) {
  if (lean_) {
    for (std::size_t i = a; i < b; ++i) fallback_step<true>(i, true);
  } else {
    for (std::size_t i = a; i < b; ++i) fallback_step<false>(i, true);
  }
}

// --- analytic macro interval -------------------------------------------
// Integrate steps [a, b) from one held operating point. Illuminance
// enters through a 2-point quadrature at the interval's dt-weighted
// mean +- stddev (O(1) from the prefix moments), clamped to the
// caller's [lo_lux, hi_lux] (the run's actual range), which integrates
// the curve exactly through its second moment — the ratio band bounds
// what is left.
void NodeRun::Impl::process_interval(std::size_t a, std::size_t b, bool running, double lo_lux,
                                     double hi_lux) {
  const std::vector<double>& t = *t_;
  CurveCache& curves = *curves_;
  mppt::MpptController& controller = *controller_;
  const double s = s_;
  ++intervals_;
  ++report_.events;
  const PreparedTrace::Moments m = prepared_->moments(a, b);
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
  report_.ideal_mpp_energy += pmpp_bar * w;

  if (!running) {
    prev_power_ = 0.0;
    prev_voltage_ = 0.0;
    advance_store_span(a, b, 0.0, 0.0, 0.0, 0.0);
    return;
  }
  if (report_.coldstart_time < 0.0) report_.coldstart_time = t[a];

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
    d_lo = config_.converter.output_power(p_lo, v);
    d_hi = config_.converter.output_power(p_hi, v);
  };
  switch (law_) {
    case mppt::MacroLaw::kSampleHold: {
      // Tick mode applies the command sampled at each step's own
      // time; evaluating the (linear) hold droop half a mean step past
      // the midpoint reproduces that average exactly.
      pv_v = controller.command_at(t_mid + 0.5 * dt_bar);
      power_pair(pv_v);
      break;
    }
    case mppt::MacroLaw::kMemoryless: {
      const double est = prepared_->total_lux_mean(a, b) * s;
      const auto eval = [&](const CurveCache::StepCurve& c, CurveCache::LuxKey key) {
        sensed_.time = t_mid;
        sensed_.dt = dt_bar;
        sensed_.voc = c.voc;
        sensed_.pilot_voc = c.voc;
        sensed_.illuminance_estimate = est;
        sensed_.prev_power = prev_power_;
        sensed_.prev_voltage = prev_voltage_;
        sensed_.store_voltage = store_voltage();
        const mppt::ControlOutput out = controller.step(sensed_);
        const double p = curves.power_at(key, out.pv_voltage) *
                         (1.0 - std::min(1.0, out.disconnect_fraction));
        return std::pair<double, double>{p, out.pv_voltage};
      };
      const auto [pl, vl] = eval(c_lo, k_lo);
      const auto [ph, vh] = eval(c_hi, k_hi);
      p_lo = pl;
      p_hi = ph;
      d_lo = config_.converter.output_power(p_lo, vl);
      d_hi = config_.converter.output_power(p_hi, vh);
      pv_v = 0.5 * (vl + vh);
      break;
    }
    case mppt::MacroLaw::kTracksStore: {
      const auto command_at_store = [&](double v_store) {
        sensed_.time = t_mid;
        sensed_.dt = dt_bar;
        sensed_.voc = 0.5 * (c_lo.voc + c_hi.voc);
        sensed_.pilot_voc = sensed_.voc;
        sensed_.illuminance_estimate = prepared_->total_lux_mean(a, b) * s;
        sensed_.prev_power = prev_power_;
        sensed_.prev_voltage = prev_voltage_;
        sensed_.store_voltage = v_store;
        return controller.step(sensed_).pv_voltage;
      };
      // Predictor-corrector: command at the entry store state, predict
      // the midpoint store voltage under that net power, re-command.
      pv_v = command_at_store(store_voltage());
      power_pair(pv_v);
      if (!battery_) {
        const double net =
            0.5 * (d_lo + d_hi) - overhead_power_ - (store_usable() ? load_power_ : 0.0);
        power::Supercapacitor probe = supercap_;  // predict only
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
  report_.harvested_energy += p_bar * w;
  report_.delivered_energy += d_bar * w;
  report_.overhead_energy += overhead_power_ * w;
  prev_power_ = p_bar;
  prev_voltage_ = pv_v;
  last_net_ = d_bar - overhead_power_ - (store_usable() ? load_power_ : 0.0);
  if (obs_on_) {
    if (pmpp_bar > 0.0) {
      eff_batch_.observe(p_bar / pmpp_bar);
      if (eff_batch_.pending() >= kObsFlushEvery) obs::metrics().flush(step_eff_id_, eff_batch_);
    }
    obs::metrics().observe(interval_id_, w);
    obs::tracer().record_complete("macro_interval", "sched", t[a] * 1e6, w * 1e6,
                                  obs::Tracer::kSimPid);
  }
  advance_store_span(a, b, d_bar, overhead_power_, pv_v, p_bar);
}

// Bound one interval: the hard time cap, plus the store-drift guard
// for store-tracking laws (the commanded voltage follows the store).
// A full supercapacitor under net inflow is pinned by its clamp, so
// there the guard is raised to kFullStoreIntervalS.
std::size_t NodeRun::Impl::cap_interval(std::size_t p, std::size_t limit) const {
  const std::vector<double>& t = *t_;
  double cap = config_.events.max_interval_s;
  if (law_ == mppt::MacroLaw::kTracksStore && !battery_) {
    const double v = std::max(store_voltage(), 0.5);
    const double net = std::max(std::abs(last_net_), 1e-9);
    double guard = config_.events.store_dv_guard * supercap_.params().capacitance * v / net;
    if (supercap_.full() && last_net_ > 0.0) guard = std::max(guard, kFullStoreIntervalS);
    cap = std::min(cap, guard);
  }
  auto it = std::upper_bound(t.begin() + static_cast<std::ptrdiff_t>(p),
                             t.begin() + static_cast<std::ptrdiff_t>(limit) + 1, t[p] + cap);
  auto q = static_cast<std::size_t>(it - t.begin()) - 1;
  if (q <= p) q = p + 1;
  return std::min(q, limit);
}

// Cold-start sustain certification: with the supervisor latched on,
// one exact cell evaluation at the segment's minimum illuminance
// checks that the PV current at the worst-case hold voltage covers the
// C1 drain with 4x margin — then started() cannot drop inside the
// segment and the per-step supervisor integration is skipped (v_c1
// frozen; it re-equilibrates within seconds of the next tick-stepped
// segment, so un-start timing is preserved to well under the 0.1 %
// energy budget).
bool NodeRun::Impl::coldstart_certified(double scaled_min_lux) const {
  if (!coldstart_->started()) return false;
  const power::ColdStartCircuit::Params& cp = coldstart_->params();
  const double v_hold = cp.threshold - cp.hysteresis + cp.diode_drop;
  const double i_pv =
      std::max(0.0, cell_->current(v_hold, curves_->conditions_at(scaled_min_lux)));
  return i_pv >= 4.0 * (cp.standby_leakage + controller_current_);
}

// Advance steps [a, b), all on one side of the supply floor, whose
// scaled illuminance spans [lo_lux, hi_lux]: the run's own range is the
// quadrature clamp. Macro-stepped, sample-hold laws up to each command
// event; lit hill-climber runs never come here (run_or_tick).
void NodeRun::Impl::process_run(std::size_t a, std::size_t b, bool running, double lo_lux,
                                double hi_lux) {
  const std::vector<double>& t = *t_;
  std::size_t p = a;
  while (p < b) {
    if (running && law_ == mppt::MacroLaw::kSampleHold) {
      const double te = controller_->next_command_event(t[p]);
      if (te < t[p + 1]) {
        // The event lands inside step p: replay that step through the
        // real controller so its mutable state (held sample, astable
        // phase, catch-up after dark) is exactly tick mode's.
        fallback_step<false>(p, false);
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
}

// A lit run of a hill-climber must tick: returned as the next span.
// Every other run is macro-stepped here.
bool NodeRun::Impl::run_or_tick(std::size_t a, std::size_t b, bool running, double lo_lux,
                                double hi_lux, TickSpan& span) {
  if (running && law_ == mppt::MacroLaw::kPerStepOnly) {
    span = {a, b};
    return true;
  }
  process_run(a, b, running, lo_lux, hi_lux);
  return false;
}

// The run planner: the segment walk of event mode, resumable at each
// span that must tick.
bool NodeRun::Impl::next_ticks(TickSpan& span) {
  if (tick_all_) {
    if (ticked_all_) return false;
    ticked_all_ = true;
    span = {0, n_steps_};
    return true;
  }
  const std::vector<env::Segment>& segments = prepared_->segments();
  const std::vector<double>& eq = *eq_;
  const double s = s_;
  while (seg_ < segments.size()) {
    const env::Segment& seg = segments[seg_];
    const double seg_min = s * seg.min_value;
    const double seg_max = s * seg.max_value;
    const bool straddles = seg_min < min_operating_lux_ && seg_max >= min_operating_lux_;
    if (!in_segment_) {
      in_segment_ = true;
      pos_ = seg.first;
      ++report_.events;  // light-trace breakpoint

      // lux_scale pushed a dark-merged segment (unbounded ratio) across
      // the surrogate's dark cutoff: no band bound for the quadrature.
      bool per_step = seg.dark && seg_max >= CurveCache::kDarkLux;
      if (!per_step && coldstart_ && !coldstart_certified(seg_min)) {
        per_step = true;  // supervisor state must evolve tick by tick
        // A started supervisor failing certification is the anomalous
        // case (the drain margin collapsed); pre-start fallbacks are the
        // expected cold-start ramp and stay quiet.
        if (coldstart_->started()) {
          obs::anomaly("coldstart_cert_failed", (*t_)[seg.first],
                       {{"seg_min_lux", seg_min},
                        {"steps", static_cast<double>(seg.last - seg.first)}});
        }
      }
      if (per_step) {
        pos_ = seg.last;
        span = {seg.first, seg.last};
        return true;
      }

      // A cold-start supervisor is started and certified to stay so from
      // here: only the supply floor gates the controller.
      if (!straddles) {
        pos_ = seg.last;
        if (run_or_tick(seg.first, seg.last, seg_min >= min_operating_lux_, seg_min, seg_max,
                        span)) {
          return true;
        }
        continue;
      }
    }
    if (pos_ >= seg.last) {
      ++seg_;
      in_segment_ = false;
      continue;
    }
    // The supply floor falls inside the segment: split it into maximal
    // runs on one side of it, flipping exactly where tick mode's
    // running gate flips. The gated runs are store intervals (tick mode
    // makes no step() call there), the lit ones macro-step.
    const std::size_t a = pos_;
    double lo = s * eq[a];
    double hi = lo;
    const bool gated = lo < min_operating_lux_;
    std::size_t i = a + 1;
    for (; i < seg.last; ++i) {
      const double lux = s * eq[i];
      if ((lux < min_operating_lux_) != gated) break;
      lo = std::min(lo, lux);
      hi = std::max(hi, lux);
    }
    pos_ = i;
    if (run_or_tick(a, i, !gated, lo, hi, span)) return true;
  }
  return false;
}

TickState NodeRun::Impl::tick_state() const {
  TickState st;
  st.store_voltage = supercap_.voltage();
  st.prev_power = prev_power_;
  st.prev_voltage = prev_voltage_;
  st.ideal_mpp_energy = report_.ideal_mpp_energy;
  st.harvested_energy = report_.harvested_energy;
  st.delivered_energy = report_.delivered_energy;
  st.overhead_energy = report_.overhead_energy;
  st.load_energy_served = report_.load_energy_served;
  st.brownout_time = report_.brownout_time;
  st.coldstart_time = report_.coldstart_time;
  return st;
}

void NodeRun::Impl::set_tick_state(const TickState& st, std::uint64_t ticks,
                                   int brownout_steps) {
  supercap_.restore_voltage(st.store_voltage);
  prev_power_ = st.prev_power;
  prev_voltage_ = st.prev_voltage;
  report_.ideal_mpp_energy = st.ideal_mpp_energy;
  report_.harvested_energy = st.harvested_energy;
  report_.delivered_energy = st.delivered_energy;
  report_.overhead_energy = st.overhead_energy;
  report_.load_energy_served = st.load_energy_served;
  report_.brownout_time = st.brownout_time;
  report_.coldstart_time = st.coldstart_time;
  report_.brownout_steps += brownout_steps;
  fallback_steps_ += ticks;
}

NodeReport NodeRun::Impl::finish() {
  if (!tick_all_) report_.events += fallback_steps_;  // every tick is an event boundary
  CurveCache& curves = *curves_;
  NodeReport& report = report_;
  report.final_store_voltage = store_voltage();
  report.steps = fallback_steps_ + intervals_;
  report.model_evals = curves.model_evals() - evals_before_;
  report.curve_entries = curves.entries_built() - entries_before_;

  if (obs_on_) {
    obs::metrics().flush(step_eff_id_, eff_batch_);
    static const obs::CounterId steps_id = obs::metrics().counter("node.steps");
    static const obs::CounterId evals_id = obs::metrics().counter("node.model_evals");
    static const obs::CounterId hits_id = obs::metrics().counter("node.curve.hits");
    static const obs::CounterId misses_id = obs::metrics().counter("node.curve.misses");
    // Hit/miss: a lookup that needed no exact solve is a hit. In exact
    // mode every power_at_step solve is a miss; surrogate lookups hit
    // the interpolated tables.
    const std::uint64_t queries = curves.queries() - queries_before_;
    const std::uint64_t misses = std::min(queries, report.model_evals);
    obs::metrics().add(steps_id, static_cast<double>(report.steps));
    obs::metrics().add(evals_id, static_cast<double>(report.model_evals));
    obs::metrics().add(hits_id, static_cast<double>(queries - misses));
    obs::metrics().add(misses_id, static_cast<double>(misses));
    if (tick_all_) {
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
      obs::metrics().add(intervals_id, static_cast<double>(intervals_));
      obs::metrics().add(fallback_id, static_cast<double>(fallback_steps_));
    }
    obs::events().emit("node_run_complete", report.duration,
                       {{"steps", report.steps},
                        {"tracking_efficiency", report.tracking_efficiency()},
                        {"net_j", report.net_energy()},
                        {"curve_entries", report.curve_entries}});
    run_span_->arg("steps", static_cast<double>(report.steps));
    if (tick_all_) {
      run_span_->arg("model_evals", static_cast<double>(report.model_evals));
      run_span_->arg("curve_entries", static_cast<double>(report.curve_entries));
    } else {
      run_span_->arg("events", static_cast<double>(report.events));
      run_span_->arg("fallback_steps", static_cast<double>(fallback_steps_));
      run_span_->arg("model_evals", static_cast<double>(report.model_evals));
    }
    run_span_->arg("tracking_efficiency", report.tracking_efficiency());
  }
  return std::move(report_);
}

NodeRun::NodeRun(const env::LightTrace& trace, const NodeConfig& config,
                 CurveCache* shared_curves, const PreparedTrace* prepared)
    : impl_(std::make_unique<Impl>(trace, config, shared_curves, prepared)) {}
NodeRun::~NodeRun() = default;
bool NodeRun::next_ticks(TickSpan& span) { return impl_->next_ticks(span); }
NodeReport NodeRun::finish() { return impl_->finish(); }
mppt::MpptController& NodeRun::controller() { return impl_->controller(); }
TickState NodeRun::tick_state() const { return impl_->tick_state(); }
void NodeRun::set_tick_state(const TickState& state, std::uint64_t ticks, int brownout_steps) {
  impl_->set_tick_state(state, ticks, brownout_steps);
}

}  // namespace focv::sched

namespace focv::node {

NodeReport simulate_node(const env::LightTrace& trace, const NodeConfig& config,
                         CurveCache* shared_curves, const sched::PreparedTrace* prepared) {
  // The planner, one span at a time; the run lives on this frame.
  sched::NodeRun::Impl run(trace, config, shared_curves, prepared);
  sched::TickSpan span;
  while (run.next_ticks(span)) run.tick_steps(span.a, span.b);
  return run.finish();
}

}  // namespace focv::node
