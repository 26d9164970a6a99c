// Per-run cache of PV curve quantities for the behavioural simulation
// tier.
//
// simulate_node asks three questions of the cell model every step: the
// curve summary (Voc, Pmpp, Vmpp) at the step's illuminance, and the
// power P(V) at the controller's commanded voltage. Answering them with
// implicit series-resistance solves per step is what makes a 24 h run
// solver-bound. This cache offers two strategies:
//
//  - PowerModel::kSurrogate (default): curve entries live on a coarse
//    grid uniform in log-illuminance (kGridNodesPerLogLux nodes per
//    e-fold, ~3% spacing). Each entry carries the exact Voc/Pmpp/Vmpp
//    plus an N-point P(V) table sampled on [0, Voc]; per-step answers
//    are linear interpolations in voltage and in log-illuminance. All
//    table points are exact solves, and linear interpolation of a
//    function through its exact samples never exceeds the entry's own
//    Pmpp, so tracking efficiency stays <= 1 by construction. The
//    combined interpolation error is bounded well below 0.1 % of Pmpp
//    at the default resolution (validated by tests/node/
//    curve_cache_test.cpp).
//
//  - PowerModel::kExact: the historical behaviour, bit for bit — Voc
//    and the MPP are memoised on a fine 0.1 % log-illuminance grid
//    (keyed by the first illuminance that lands in each bucket, in step
//    order) and P(V) is solved exactly per step at the step's own
//    illuminance.
//
// Surrogate queries resolve a key per illuminance on demand (step_key,
// lux_key: one log, one floor) and read through it. A tick-mode run
// makes these calls on every trace step, so the key resolution, the
// built-entry fast path and the table reads are defined inline at the
// end of this header; only table growth and entry builds (build_slot)
// stay out of line. The exact model instead
// prepares the whole run's series once (prepare), so its per-step
// lookups are array indexations with no hashing or log().
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "pv/conditions.hpp"
#include "pv/diode_models.hpp"

namespace focv::node {

/// How the behavioural tier evaluates PV curves (see file comment).
enum class PowerModel {
  kSurrogate,  ///< interpolated curve tables (several times faster)
  kExact,      ///< per-step implicit solves (pre-surrogate trajectory)
};

class CurveCache {
 public:
  struct Options {
    PowerModel model = PowerModel::kSurrogate;
    /// Voltage-grid points per surrogate P(V) table (>= 8).
    int surrogate_points = 128;
  };

  CurveCache(const pv::SingleDiodeModel& cell, double temperature_k, Options options);
  CurveCache(const pv::SingleDiodeModel& cell, double temperature_k)
      : CurveCache(cell, temperature_k, Options{}) {}

  /// Curve summary at one step's illuminance.
  struct StepCurve {
    double voc = 0.0;   ///< open-circuit voltage [V]
    double pmpp = 0.0;  ///< maximum power [W]
    double vmpp = 0.0;  ///< maximum-power voltage [V]
  };

  /// Exact mode only: memoise the curve summaries of a run over
  /// `eq_lux` (equivalent fluorescent illuminance per sample) for
  /// at_step / power_at_step. `eq_lux` must outlive the queries (the
  /// per-step solves read it back). The entry table is keyed by
  /// first-encountered illuminance in step order, so re-preparation
  /// resets it (fresh-cache semantics, bit-identical to a new cache);
  /// only the instrumentation counters accumulate.
  void prepare(const std::vector<double>& eq_lux);

  /// Exact mode: curve summary for step i of the prepared series.
  [[nodiscard]] StepCurve at_step(std::size_t i) const;

  /// Exact mode: cell power when held at voltage v during step i [W].
  [[nodiscard]] double power_at_step(std::size_t i, double v);

  /// Surrogate lookup key of one illuminance: the dense slot of the grid
  /// node below it and the log-illuminance interpolation weight. Entries
  /// live at fixed log-illuminance grid nodes whose values depend only on
  /// the cell and the options, so one cache can serve many runs (the
  /// fleet engine shares one across every node of a chunk) and only pays
  /// exact solves for grid nodes no earlier run touched — without
  /// changing any run's trajectory. A key is valid until the next call
  /// that may grow the table below its slot; growth above it (a key
  /// resolved at a higher illuminance) never moves it.
  static constexpr std::uint32_t kDarkStep = 0xffffffffu;
  struct LuxKey {
    std::uint32_t slot = kDarkStep;  ///< dense entry index, or kDarkStep below kDarkLux
    double frac = 0.0;               ///< weight towards entry slot + 1
  };
  /// A LuxKey whose weight is rounded through float. Every tick-replayed
  /// step resolves one with step_key(): that float weight is part of the
  /// reference (kFixed) trajectory. It widens exactly to a LuxKey, so
  /// at() and power_at() read both.
  struct StepKey {
    std::uint32_t slot = kDarkStep;  ///< dense entry index, or kDarkStep below kDarkLux
    float frac = 0.0f;               ///< weight towards entry slot + 1
    operator LuxKey() const { return LuxKey{slot, frac}; }
  };
  /// Key for `equivalent_lux`, building its two grid entries on first
  /// touch. Surrogate mode only.
  [[nodiscard]] StepKey step_key(double equivalent_lux) {
    require(options_.model == PowerModel::kSurrogate,
            "CurveCache: step_key needs the surrogate model");
    return step_key_of(equivalent_lux);
  }

  /// On-demand surrogate queries at an arbitrary equivalent illuminance
  /// with a double weight: the event stepper's quadrature points and
  /// isolated ticks. Entries are built lazily at the same fixed
  /// log-illuminance grid nodes step_key() uses, so a cache shared
  /// across fixed and event runs answers both consistently. Surrogate
  /// mode only.
  ///
  /// lux_key() resolves an illuminance once (one log, one floor, the two
  /// grid entries built on first touch); at() and power_at() then read
  /// through the key, so a caller asking for the curve summary and
  /// several P(V) points at one illuminance pays the resolution once.
  [[nodiscard]] LuxKey lux_key(double equivalent_lux) {
    require(options_.model == PowerModel::kSurrogate,
            "CurveCache: lux_key needs the surrogate model");
    return key_of(equivalent_lux);
  }
  /// Curve summary at a key.
  [[nodiscard]] StepCurve at(LuxKey key) const;
  /// Cell power at voltage v at a key [W].
  [[nodiscard]] double power_at(LuxKey key, double v) const;

  /// Build every surrogate grid entry whose node lies in
  /// [lux_min, lux_max] (plus the interpolation neighbour above), so a
  /// cache can be warmed once and then shared or copied. Surrogate mode
  /// only. Entry values depend only on the grid index, so warming never
  /// changes what any later query returns — it only front-loads solves.
  void warm_range(double lux_min, double lux_max);

  /// Copy every built surrogate entry of `other` (which must answer for
  /// the same cell, temperature and options) that this cache has not
  /// built itself. Instrumentation counters are left untouched: seeded
  /// entries are not work this cache performed, so per-run
  /// model_evals/entries_built diffs still measure the run. The fleet
  /// engine warms one cache per run and seeds each chunk's cache from
  /// it instead of letting every chunk re-solve the same grid nodes
  /// cold. Surrogate mode only.
  void seed_entries(const CurveCache& other);

  /// Self-contained copy of the surrogate grid entries covering
  /// [lux_min, lux_max] (plus the interpolation neighbour above), laid
  /// out densely for external flat-array interpolation. The fleet SoA
  /// engine exports one table per environment and answers every node's
  /// curve queries from it without touching the cache again — the values
  /// are the exact entry values at() interpolates, so a flat-table
  /// lookup reproduces at()/power_at() arithmetic bit for bit.
  /// Warms the range first; surrogate mode only.
  struct DenseExport {
    long grid_lo = 0;  ///< grid index of slot 0 (lux = exp(grid_lo / kGridNodesPerLogLux))
    int points = 0;    ///< P(V) samples per entry
    std::vector<double> voc;    ///< [slots]
    std::vector<double> pmpp;   ///< [slots]
    std::vector<double> vmpp;   ///< [slots]
    std::vector<double> power;  ///< [slot * points + m]
  };
  [[nodiscard]] DenseExport export_range(double lux_min, double lux_max);

  /// Conditions object at the given illuminance (for components that
  /// still need direct model access, e.g. the cold-start circuit).
  [[nodiscard]] pv::Conditions conditions_at(double equivalent_lux) const;

  // --- instrumentation ------------------------------------------------
  /// Exact cell-model evaluations issued so far (Voc root solves, MPP
  /// searches, and P(V) terminal solves each count 1).
  [[nodiscard]] std::uint64_t model_evals() const { return model_evals_; }
  /// Unique illuminance buckets / grid nodes solved so far.
  [[nodiscard]] std::uint64_t entries_built() const { return entries_built_; }
  /// Curve lookups served (every at* and power_at* call). Together
  /// with model_evals() this yields the cache hit ratio:
  /// hits = queries - model_evals issued over the same span.
  [[nodiscard]] std::uint64_t queries() const { return queries_; }
  [[nodiscard]] PowerModel model() const { return options_.model; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// The cell model and temperature this cache answers for (used by
  /// simulate_node to validate an externally shared cache).
  [[nodiscard]] const pv::SingleDiodeModel& cell() const { return cell_; }
  [[nodiscard]] double temperature_k() const { return conditions_.temperature_k; }

  /// Grid density of the surrogate: nodes per e-fold of illuminance.
  static constexpr double kGridNodesPerLogLux = 32.0;
  /// Below this equivalent illuminance the cell is treated as dark.
  static constexpr double kDarkLux = 0.05;

 private:
  struct Entry {
    double voc = 0.0;
    double pmpp = 0.0;
    double vmpp = 0.0;
    std::vector<double> power;  ///< surrogate P(V) on [0, voc], empty in exact mode
    bool built = false;
  };

  void build_exact_entry(Entry& e, double lux);
  void build_surrogate_entry(Entry& e, long grid_index);
  [[nodiscard]] double table_power(const Entry& e, double v) const;
  /// Grow the dense table (keeping built entries) to cover grid nodes
  /// [lo, hi].
  void cover(long lo, long hi);
  /// Grow/build so entries for grid nodes j and j+1 exist; returns the
  /// dense slot of j. The inline fast path returns when both are built;
  /// build_slot() is the out-of-line rest.
  std::uint32_t ensure_slot(long j);
  std::uint32_t build_slot(long j);
  /// lux_key() without the mode check, and its float-weight StepKey.
  LuxKey key_of(double equivalent_lux);
  StepKey step_key_of(double equivalent_lux);

  const pv::SingleDiodeModel& cell_;
  pv::Conditions conditions_;
  Options options_;

  // Exact mode: per-step entry slots, filled by prepare (frac unused).
  std::vector<StepKey> step_keys_;
  std::vector<Entry> entries_;
  long grid_base_ = 0;                    ///< surrogate: grid index of entries_[0]
  const std::vector<double>* eq_lux_ = nullptr;  ///< exact mode: per-step lux

  std::uint64_t model_evals_ = 0;
  std::uint64_t entries_built_ = 0;
  mutable std::uint64_t queries_ = 0;  ///< per-step lookups (at_step is const)
};

// --- per-step readers (inline: see the file comment) -------------------

inline std::uint32_t CurveCache::ensure_slot(long j) {
  const long slot = j - grid_base_;
  if (slot >= 0 && slot + 1 < static_cast<long>(entries_.size())) {
    const auto s = static_cast<std::size_t>(slot);
    if (entries_[s].built && entries_[s + 1].built) return static_cast<std::uint32_t>(s);
  }
  return build_slot(j);
}

inline CurveCache::LuxKey CurveCache::key_of(double equivalent_lux) {
  if (!(equivalent_lux >= kDarkLux)) return LuxKey{};
  const double x = kGridNodesPerLogLux * std::log(equivalent_lux);
  const long j = static_cast<long>(std::floor(x));
  return LuxKey{ensure_slot(j), x - static_cast<double>(j)};
}

inline CurveCache::StepKey CurveCache::step_key_of(double equivalent_lux) {
  const LuxKey key = key_of(equivalent_lux);
  return StepKey{key.slot, static_cast<float>(key.frac)};
}

inline double CurveCache::table_power(const Entry& e, double v) const {
  if (v >= e.voc) return 0.0;
  const int n = options_.surrogate_points;
  const double pos = v / e.voc * static_cast<double>(n - 1);
  const int k = std::min(static_cast<int>(pos), n - 2);
  const double t = pos - static_cast<double>(k);
  const std::size_t idx = static_cast<std::size_t>(k);
  return e.power[idx] + t * (e.power[idx + 1] - e.power[idx]);
}

inline CurveCache::StepCurve CurveCache::at(LuxKey key) const {
  ++queries_;
  StepCurve out;
  if (key.slot == kDarkStep) return out;
  const Entry& e0 = entries_[key.slot];
  const Entry& e1 = entries_[key.slot + 1];
  const double f = key.frac;
  out.voc = e0.voc + f * (e1.voc - e0.voc);
  out.pmpp = e0.pmpp + f * (e1.pmpp - e0.pmpp);
  out.vmpp = e0.vmpp + f * (e1.vmpp - e0.vmpp);
  return out;
}

inline double CurveCache::power_at(LuxKey key, double v) const {
  ++queries_;
  if (v <= 0.0 || key.slot == kDarkStep) return 0.0;
  const double p0 = table_power(entries_[key.slot], v);
  const double p1 = table_power(entries_[key.slot + 1], v);
  return p0 + key.frac * (p1 - p0);
}

}  // namespace focv::node
