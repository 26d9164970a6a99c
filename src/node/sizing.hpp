// Energy-neutral design sizing.
//
// The question a deployment engineer asks of this system: given a light
// scenario and a duty-cycled load, how large must the cell and the store
// be for the node to run forever? This utility answers it with the same
// models the simulator uses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "env/light_trace.hpp"
#include "mppt/controller.hpp"
#include "mppt/registry.hpp"
#include "power/converter.hpp"
#include "power/load.hpp"
#include "pv/diode_models.hpp"

namespace focv::node {

/// Inputs to the sizing query.
///
/// Like NodeConfig, a query holds its controller as an immutable
/// prototype that each sizing run clones, so concurrent
/// size_for_energy_neutrality calls sharing one query are safe.
struct SizingQuery {
  /// Reference cell, scaled by the area factor. Set with use_cell().
  std::shared_ptr<const pv::SingleDiodeModel> cell_model;
  /// Representative day. Set with use_scenario().
  std::shared_ptr<const env::LightTrace> scenario_trace;
  /// Tracking technique (cloned per run). Set with use_controller().
  std::shared_ptr<const mppt::MpptController> controller_prototype;

  void use_cell(const pv::SingleDiodeModel& cell_ref) {
    cell_model = std::shared_ptr<const pv::SingleDiodeModel>(
        std::shared_ptr<const pv::SingleDiodeModel>(), &cell_ref);
  }
  void use_scenario(const env::LightTrace& trace_ref) {
    scenario_trace = std::shared_ptr<const env::LightTrace>(
        std::shared_ptr<const env::LightTrace>(), &trace_ref);
  }
  void use_scenario(env::LightTrace&& trace_value) {
    scenario_trace = std::make_shared<const env::LightTrace>(std::move(trace_value));
  }
  void use_controller(const mppt::MpptController& prototype) {
    controller_prototype = prototype.clone();
  }
  void use_controller(std::unique_ptr<mppt::MpptController> prototype) {
    controller_prototype = std::move(prototype);
  }
  /// Build the controller from a registry spec string (grammar and
  /// catalog: mppt/registry.hpp). Throws mppt::SpecError on a bad spec.
  void use_controller(const std::string& spec);

  /// The registry's canonical spec of controller_prototype when
  /// use_controller(spec) built it and that canonical string builds the
  /// very same controller; empty for a controller object, for a spec
  /// whose values do not survive the canonical print, and once
  /// controller_prototype is replaced. A SizingContext keys its tapes on it.
  [[nodiscard]] std::string_view controller_spec() const {
    return spec_source_ == controller_prototype ? std::string_view(spec_) : std::string_view();
  }

  power::BuckBoostConverter converter;
  power::WsnLoad::Params load;
  double temperature_k = 300.15;

 private:
  std::string spec_;
  /// The prototype spec_ describes; a second owner, so a replaced
  /// prototype can never share its address.
  std::shared_ptr<const mppt::MpptController> spec_source_;
};

/// Result of a sizing run.
struct SizingResult {
  double area_factor = 0.0;        ///< multiple of the reference cell's area
  double daily_harvest_j = 0.0;    ///< net harvest with that area over the scenario [J]
  double daily_load_j = 0.0;       ///< load demand over the scenario [J]
  double storage_j = 0.0;          ///< store energy needed to ride through deficits [J]
  double storage_f_at_3v = 0.0;    ///< equivalent supercap size at 3 V swing-to-empty [F]
  bool feasible = false;           ///< a finite area achieves energy neutrality
};

namespace detail {
class TapeMemo;  // sizing.cpp
}  // namespace detail

/// Per-(scenario, cell) state shared by many sizing runs.
///
/// A sizing run probes up to 11 area factors at the default range (max, min
/// and 9 bisection steps) after one O(trace) spectral conversion
/// LightTrace::equivalent_lux. The conversion depends only on the trace
/// and the reference cell — never on the probed area — so a resident
/// server (focv::serve) builds one context per environment and every
/// sizing query against that environment skips it entirely.
///
/// The context also keeps the recorded tapes of memoryless and
/// sample-hold controllers: the controller stepped once over the day on
/// the reference cell. A tape depends on the controller, the temperature
/// and this context's trace and cell, never on the load or the probed
/// area, so a query whose SizingQuery::controller_spec() is set reuses
/// the tape an earlier query with that spec and temperature recorded and
/// only replays its probes. The first query for a key records the tape;
/// at most kResidentTapes stay resident (~0.6 MB each), the least
/// recently used one is dropped first. Results are bit-identical to the
/// context-free overload either way.
///
/// Safe to share across threads: the spectral conversion is immutable
/// after construction and the tape memo is locked. The trace and cell
/// must outlive the context (held by reference).
class SizingContext {
 public:
  /// Tapes kept per context before the least recently used is evicted.
  static constexpr std::size_t kResidentTapes = 8;

  SizingContext(const env::LightTrace& trace, const pv::SingleDiodeModel& cell);
  ~SizingContext();
  SizingContext(const SizingContext&) = delete;
  SizingContext& operator=(const SizingContext&) = delete;

  [[nodiscard]] const env::LightTrace& trace() const { return *trace_; }
  [[nodiscard]] const pv::SingleDiodeModel& cell() const { return *cell_; }
  /// Equivalent fluorescent illuminance per trace sample.
  [[nodiscard]] const std::vector<double>& eq_lux() const { return eq_lux_; }

  /// Tapes recorded through this context so far: one per memo miss.
  [[nodiscard]] std::uint64_t tapes_recorded() const;
  /// Tapes resident now, at most kResidentTapes.
  [[nodiscard]] std::size_t tapes_resident() const;

 private:
  friend SizingResult size_for_energy_neutrality(const SizingQuery& query,
                                                 const SizingContext& context,
                                                 double min_factor, double max_factor);

  const env::LightTrace* trace_;
  const pv::SingleDiodeModel* cell_;
  std::vector<double> eq_lux_;
  std::unique_ptr<detail::TapeMemo> tapes_;
};

/// Find the smallest cell-area multiple (within [min_factor, max_factor])
/// for which net daily harvest covers the load, then compute the storage
/// needed to cover the worst cumulative deficit across the scenario.
[[nodiscard]] SizingResult size_for_energy_neutrality(const SizingQuery& query,
                                                      double min_factor = 0.1,
                                                      double max_factor = 64.0);

/// As above, reusing a caller-owned SizingContext built for exactly this
/// query's scenario trace and reference cell (throws PreconditionError
/// on a mismatch). Byte-identical to the context-free overload — the
/// context only keeps values the run would derive itself.
[[nodiscard]] SizingResult size_for_energy_neutrality(const SizingQuery& query,
                                                      const SizingContext& context,
                                                      double min_factor = 0.1,
                                                      double max_factor = 64.0);

}  // namespace focv::node
