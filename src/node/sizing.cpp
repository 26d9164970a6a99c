#include "node/sizing.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>

#include "common/require.hpp"

namespace focv::node {

namespace detail {

/// The lit steps of a day as a kMemoryless / kSampleHold controller
/// drives them on the reference cell. Dark steps are not recorded: the
/// loop adds 0 W delivered and 0 W overhead for them. The keep factor and
/// the overhead change only at sample windows, so they are stored as runs
/// and a lit step costs 16 bytes: a day's tape (~0.6 MB) then leaves a
/// server's peak RSS flat.
struct Tape {
  struct Point {
    double v = 0.0;  ///< commanded PV voltage [V]
    double i = 0.0;  ///< reference-cell current at v, 0 when v <= 0 [A]
  };
  struct Hold {
    std::size_t from = 0;   ///< first lit step (index into points) it holds for
    double keep = 0.0;      ///< 1 - min(1, disconnect_fraction)
    double overhead = 0.0;  ///< controller overhead after the step [W]
  };
  std::vector<Point> points;
  std::vector<Hold> holds;
};

/// A SizingContext's recorded tapes, keyed by canonical controller spec
/// and the exact bits of the temperature, at most
/// SizingContext::kResidentTapes of them, least recently used evicted
/// first. A miss records outside the lock, so two first queries for one
/// key may both record it; the first insert wins and the tapes are equal.
class TapeMemo {
 public:
  template <class Record>
  std::shared_ptr<const Tape> get(std::string_view spec, double temperature_k,
                                  Record&& record) {
    const auto temperature_bits = std::bit_cast<std::uint64_t>(temperature_k);
    {
      const std::lock_guard lock(mutex_);
      if (Entry* hit = find(spec, temperature_bits)) return hit->tape;
    }
    auto tape = std::make_shared<const Tape>(record());
    const std::lock_guard lock(mutex_);
    ++recorded_;
    if (Entry* raced = find(spec, temperature_bits)) return raced->tape;
    if (entries_.size() == SizingContext::kResidentTapes) {
      entries_.erase(std::min_element(
          entries_.begin(), entries_.end(),
          [](const Entry& a, const Entry& b) { return a.last_use < b.last_use; }));
    }
    entries_.push_back({std::string(spec), temperature_bits, tape, ++clock_});
    return tape;
  }

  [[nodiscard]] std::uint64_t recorded() const {
    const std::lock_guard lock(mutex_);
    return recorded_;
  }
  [[nodiscard]] std::size_t resident() const {
    const std::lock_guard lock(mutex_);
    return entries_.size();
  }

 private:
  struct Entry {
    std::string spec;
    std::uint64_t temperature_bits = 0;
    std::shared_ptr<const Tape> tape;
    std::uint64_t last_use = 0;
  };

  /// The entry for a key, its use stamped; nullptr on a miss. Holds mutex_.
  Entry* find(std::string_view spec, std::uint64_t temperature_bits) {
    for (Entry& entry : entries_) {
      if (entry.temperature_bits == temperature_bits && entry.spec == spec) {
        entry.last_use = ++clock_;
        return &entry;
      }
    }
    return nullptr;
  }

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace detail

namespace {

using detail::Tape;

/// Exact area scaling of a cell: every areal current (photo, diode,
/// shunt) scales together while series resistance scales inversely, so
/// I_scaled(V) = factor * I_reference(V) at every voltage.
class ScaledCell : public pv::CellModel {
 public:
  ScaledCell(const pv::SingleDiodeModel& inner, double factor)
      : inner_(inner), factor_(factor) {}

  [[nodiscard]] std::string name() const override {
    return inner_.name() + " x" + std::to_string(factor_);
  }
  [[nodiscard]] double area_cm2() const override { return inner_.area_cm2() * factor_; }
  [[nodiscard]] double current(double v, const pv::Conditions& c) const override {
    return factor_ * inner_.current(v, c);
  }
  [[nodiscard]] double current_derivative(double v, const pv::Conditions& c) const override {
    return factor_ * inner_.current_derivative(v, c);
  }
  [[nodiscard]] double voltage_bound(const pv::Conditions& c) const override {
    return inner_.voltage_bound(c);
  }

 private:
  const pv::SingleDiodeModel& inner_;
  double factor_;
};

/// Memoised Voc on a coarse lux grid, keyed by lround(200 ln lux); the
/// first lux seen under a key supplies its Voc. Lit steps have
/// lux >= 0.05, so keys start at lround(200 ln 0.05) = -599 and the table
/// is indexed directly from there.
class VocMemo {
 public:
  double at(double lux, const pv::CellModel& cell, pv::Conditions& c) {
    const long key = std::lround(200.0 * std::log(lux));
    ensure(key >= kFirstKey, "sizing: Voc memo queried below 0.05 lux");
    const auto slot = static_cast<std::size_t>(key - kFirstKey);
    if (slot >= voc_.size()) voc_.resize(slot + 1, kUnset);
    double& voc = voc_[slot];
    if (std::isnan(voc)) {
      c.illuminance_lux = lux;
      voc = cell.open_circuit_voltage(c);
    }
    return voc;
  }

 private:
  static constexpr long kFirstKey = -599;
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> voc_;
};

/// What every sizing probe of one query shares.
struct SizingDay {
  const SizingQuery& query;
  const std::vector<double>& eq_lux;
  /// Per trace step: lux clears both the controller's floor and 0.05 lux,
  /// so the controller steps and the cell delivers.
  std::vector<bool> lit;
  std::size_t lit_steps = 0;
  double load_power = 0.0;

  SizingDay(const SizingQuery& q, const std::vector<double>& lux, double min_lux)
      : query(q),
        eq_lux(lux),
        lit(q.scenario_trace->time().size()),
        load_power(power::WsnLoad(q.load).average_power()) {
    for (std::size_t i = 0; i + 1 < lit.size(); ++i) {
      lit[i] = lux[i] >= min_lux && lux[i] >= 0.05;
      if (lit[i]) ++lit_steps;
    }
  }
};

/// The area-independent half of a sizing day, shared by the tape
/// recorder and the per-probe loop. Walks the trace once and calls
/// visit(dt, sensed) per step: `sensed` carries the controller's inputs
/// on a lit step and is nullptr on a dark one. Voc is solved on
/// `voc_cell`; `c` holds the step's conditions when visit runs.
template <class Visit>
void sense_day(const SizingDay& day, const pv::CellModel& voc_cell, pv::Conditions& c,
               Visit&& visit) {
  const std::vector<double>& t = day.query.scenario_trace->time();
  VocMemo voc;
  mppt::SensedInputs sensed;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const double dt = t[i + 1] - t[i];
    const double lux = day.eq_lux[i];
    c.illuminance_lux = lux;
    if (day.lit[i]) {
      sensed.time = t[i];
      sensed.dt = dt;
      sensed.voc = voc.at(lux, voc_cell, c);
      sensed.pilot_voc = sensed.voc;
      sensed.illuminance_estimate = lux;
      visit(dt, &sensed);
    } else {
      visit(dt, nullptr);
    }
  }
}

struct DayRun {
  double harvest_j = 0.0;       ///< delivered minus overhead [J]
  double load_j = 0.0;
  double worst_deficit_j = 0.0; ///< deepest cumulative (load+overhead-delivered) dip [J]
  double balance_j = 0.0;       ///< running delivered - overhead - load [J]

  void add(double dt, double delivered, double overhead, double load_power) {
    harvest_j += (delivered - overhead) * dt;
    load_j += load_power * dt;
    balance_j += (delivered - overhead - load_power) * dt;
    worst_deficit_j = std::min(worst_deficit_j, balance_j);
  }
};

/// One probe the long way: step the controller on the scaled cell and
/// solve its current at every lit step. Laws that read prev_power /
/// prev_voltage (or the store) need this, since their command depends on
/// the area.
DayRun loop_day(const SizingDay& day, mppt::MpptController& controller, double factor) {
  const ScaledCell cell(*day.query.cell_model, factor);
  controller.reset();
  pv::Conditions c;
  c.temperature_k = day.query.temperature_k;
  DayRun run;
  double prev_power = 0.0, prev_voltage = 0.0;
  sense_day(day, cell, c, [&](double dt, mppt::SensedInputs* sensed) {
    double delivered = 0.0;
    double overhead = 0.0;
    if (sensed != nullptr) {
      sensed->prev_power = prev_power;
      sensed->prev_voltage = prev_voltage;
      const mppt::ControlOutput out = controller.step(*sensed);
      const double pv_power = cell.power_at(out.pv_voltage, c) *
                              (1.0 - std::min(1.0, out.disconnect_fraction));
      prev_power = pv_power;
      prev_voltage = out.pv_voltage;
      delivered = day.query.converter.output_power(pv_power, out.pv_voltage);
      overhead = controller.overhead_power();
    }
    run.add(dt, delivered, overhead, day.load_power);
  });
  return run;
}

/// Step the controller once over the day. Its command never reads the
/// harvested power, so the voltage at every step is the same for every
/// area factor, and the scaled cell's current there is factor * I_ref(v).
Tape record_day(const SizingDay& day, mppt::MpptController& controller) {
  const pv::SingleDiodeModel& cell = *day.query.cell_model;
  controller.reset();
  pv::Conditions c;
  c.temperature_k = day.query.temperature_k;
  Tape tape;
  tape.points.reserve(day.lit_steps);
  sense_day(day, cell, c, [&](double, const mppt::SensedInputs* sensed) {
    if (sensed == nullptr) return;
    const mppt::ControlOutput out = controller.step(*sensed);
    const double v = out.pv_voltage;
    const double keep = 1.0 - std::min(1.0, out.disconnect_fraction);
    const double overhead = controller.overhead_power();
    // A +0/-0 swap compares equal but cannot move the replayed sums.
    if (tape.holds.empty() || keep != tape.holds.back().keep ||
        overhead != tape.holds.back().overhead) {
      tape.holds.push_back({tape.points.size(), keep, overhead});
    }
    tape.points.push_back({v, (v > 0.0) ? cell.current(v, c) : 0.0});
  });
  return tape;
}

/// One probe from the tape, in loop_day's arithmetic order over every
/// step: the scaled cell's current is factor * I_ref(v), and power_at(v)
/// is v times it when positive.
DayRun replay_day(const SizingDay& day, const Tape& tape, double factor) {
  const std::vector<double>& t = day.query.scenario_trace->time();
  DayRun run;
  auto point = tape.points.begin();
  auto hold = tape.holds.begin();
  double keep = 0.0, overhead = 0.0;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const double dt = t[i + 1] - t[i];
    if (!day.lit[i]) {
      run.add(dt, 0.0, 0.0, day.load_power);
      continue;
    }
    if (hold != tape.holds.end() &&
        hold->from == static_cast<std::size_t>(point - tape.points.begin())) {
      keep = hold->keep;
      overhead = hold->overhead;
      ++hold;
    }
    const double current = factor * point->i;
    const double pv_power = ((current > 0.0) ? point->v * current : 0.0) * keep;
    run.add(dt, day.query.converter.output_power(pv_power, point->v), overhead, day.load_power);
    ++point;
  }
  return run;
}

/// One sizing run. A SizingContext supplies the spectral conversion and
/// its tape memo; without one both are null.
SizingResult size_impl(const SizingQuery& query, double min_factor, double max_factor,
                       const std::vector<double>* shared_eq_lux, detail::TapeMemo* tapes) {
  require(query.cell_model != nullptr, "size_for_energy_neutrality: cell is required");
  require(query.scenario_trace != nullptr, "size_for_energy_neutrality: scenario is required");
  require(query.controller_prototype != nullptr,
          "size_for_energy_neutrality: controller is required");
  require(min_factor > 0.0 && max_factor > min_factor,
          "size_for_energy_neutrality: bad factor range");

  // The spectral conversion depends only on (trace, cell); a caller
  // sizing many queries against one scenario shares it through a
  // SizingContext.
  std::vector<double> owned_eq_lux;
  if (shared_eq_lux == nullptr) {
    owned_eq_lux = query.scenario_trace->equivalent_lux(*query.cell_model);
  }

  // Each run gets a freshly cloned controller so a shared query can be
  // sized from several threads at once.
  const std::unique_ptr<mppt::MpptController> owned = query.controller_prototype->clone();
  mppt::MpptController& controller = *owned;
  const SizingDay day(query, shared_eq_lux ? *shared_eq_lux : owned_eq_lux,
                      controller.minimum_operating_lux());
  const mppt::MacroLaw law = controller.macro_law();
  const bool replay = law == mppt::MacroLaw::kMemoryless || law == mppt::MacroLaw::kSampleHold;
  // A tape depends on the controller and the temperature, never on the
  // load, so a context keeps it across queries that name their spec.
  std::shared_ptr<const Tape> tape;
  if (replay) {
    const auto record = [&] { return record_day(day, controller); };
    const std::string_view spec = query.controller_spec();
    tape = (tapes != nullptr && !spec.empty())
               ? tapes->get(spec, query.temperature_k, record)
               : std::make_shared<const Tape>(record());
  }
  const auto day_at = [&](double factor) {
    return replay ? replay_day(day, *tape, factor) : loop_day(day, controller, factor);
  };

  SizingResult result;
  const DayRun at_max = day_at(max_factor);
  result.daily_load_j = at_max.load_j;
  if (at_max.harvest_j < at_max.load_j) {
    // Even the largest allowed cell cannot reach neutrality.
    result.area_factor = max_factor;
    result.daily_harvest_j = at_max.harvest_j;
    result.feasible = false;
    return result;
  }

  // Every probe is deterministic, so the run at the final `hi` is kept
  // rather than re-run.
  double lo = min_factor, hi = max_factor;
  DayRun at_hi = at_max;
  const DayRun at_min = day_at(min_factor);
  if (at_min.harvest_j >= at_min.load_j) {
    hi = min_factor;  // already neutral at the smallest size
    at_hi = at_min;
  }
  for (int iter = 0; iter < 24 && hi > lo * 1.02; ++iter) {
    const double mid = std::sqrt(lo * hi);
    const DayRun run = day_at(mid);
    if (run.harvest_j >= run.load_j) {
      hi = mid;
      at_hi = run;
    } else {
      lo = mid;
    }
  }
  result.area_factor = hi;
  result.daily_harvest_j = at_hi.harvest_j;
  result.storage_j = -at_hi.worst_deficit_j * 1.25;  // 25% engineering margin
  // Supercap sized for full energy swing at a 3 V working voltage.
  result.storage_f_at_3v = 2.0 * result.storage_j / (3.0 * 3.0);
  result.feasible = true;
  return result;
}

}  // namespace

void SizingQuery::use_controller(const std::string& spec) {
  const mppt::Registry& registry = mppt::Registry::instance();
  const mppt::ResolvedSpec resolved = registry.resolve(spec);
  controller_prototype = registry.make(resolved);
  // The canonical print keeps 12 significant digits and drops explicit
  // defaults, which some factories read (`focv[k=0.596]` is not `focv`),
  // so it names this controller only when it resolves back to the same
  // parameters bit for bit.
  bool exact = true;
  if (spec != resolved.canonical) {
    const mppt::ResolvedSpec again = registry.resolve(resolved.canonical);
    for (std::size_t i = 0; i < resolved.params.size(); ++i) {
      const mppt::ResolvedSpec::Value& a = resolved.params[i];
      const mppt::ResolvedSpec::Value& b = again.params[i];
      exact = exact && a.is_set == b.is_set &&
              std::bit_cast<std::uint64_t>(a.value) == std::bit_cast<std::uint64_t>(b.value);
    }
  }
  spec_ = exact ? resolved.canonical : std::string();
  spec_source_ = controller_prototype;
}

SizingContext::SizingContext(const env::LightTrace& trace, const pv::SingleDiodeModel& cell)
    : trace_(&trace),
      cell_(&cell),
      eq_lux_(trace.equivalent_lux(cell)),
      tapes_(std::make_unique<detail::TapeMemo>()) {}

SizingContext::~SizingContext() = default;

std::uint64_t SizingContext::tapes_recorded() const { return tapes_->recorded(); }

std::size_t SizingContext::tapes_resident() const { return tapes_->resident(); }

SizingResult size_for_energy_neutrality(const SizingQuery& query, double min_factor,
                                        double max_factor) {
  return size_impl(query, min_factor, max_factor, nullptr, nullptr);
}

SizingResult size_for_energy_neutrality(const SizingQuery& query, const SizingContext& context,
                                        double min_factor, double max_factor) {
  require(query.scenario_trace != nullptr, "size_for_energy_neutrality: scenario is required");
  require(query.cell_model != nullptr, "size_for_energy_neutrality: cell is required");
  require(&context.trace() == query.scenario_trace.get(),
          "size_for_energy_neutrality: context was built for a different trace");
  require(&context.cell() == query.cell_model.get(),
          "size_for_energy_neutrality: context was built for a different cell");
  return size_impl(query, min_factor, max_factor, &context.eq_lux(), context.tapes_.get());
}

}  // namespace focv::node
