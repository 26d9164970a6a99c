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
// The surrogate grid is fixed: slot s holds grid node j = s + kGridLo
// (lux = exp(j / 32)) from floor(32 ln kDarkLux) = -96 up to the
// ceiling kGridHi = 512 (8.9e6 lux). Its 609 slots are allocated
// unbuilt with the cache (~34 KB) and built on first touch, so a key
// reads the same entries for the cache's whole life.
//
// Surrogate queries resolve a key per illuminance on demand (step_key,
// lux_key: one log, one floor) and read through it. A tick-mode run
// makes these calls on every trace step, so the key resolution, the
// built-entry fast path and the table reads are defined inline at the
// end of this header; only entry builds (build_slot) stay out of line.
// export_range hands the grid to the fleet's kernels as a CurveTable;
// every P(V) row read is laws::pv_row_read. The exact model instead
// prepares the whole run's series once (prepare), so its per-step
// lookups are array indexations with no hashing or log().
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/require.hpp"
#include "common/step_laws.hpp"
#include "pv/conditions.hpp"
#include "pv/diode_models.hpp"

namespace focv::node {

/// How the behavioural tier evaluates PV curves (see file comment).
enum class PowerModel {
  kSurrogate,  ///< interpolated curve tables (several times faster)
  kExact,      ///< per-step implicit solves (pre-surrogate trajectory)
};

/// The surrogate grid entries over an illuminance span, laid out densely
/// for flat-array interpolation (CurveCache::export_range). The fleet's
/// lane kernels answer every node's curve queries from it without
/// touching a cache: the entry doubles are the ones at() and power_at()
/// interpolate, and the P(V) rows are read with the same
/// laws::pv_row_read.
struct CurveTable {
  long grid_lo = 0;  ///< grid index of slot 0 (lux = exp(grid_lo / 32))
  int slots = 0;
  int points = 0;  ///< P(V) samples per entry
  /// Slot-indexed entries stay interleaved: one quadrature point reads
  /// Voc, Pmpp and 1/Voc for slots k and k+1, so packing them per slot
  /// touches one or two cache lines instead of a line per array.
  /// inv_voc (1 / the slot's Voc, infinite at Voc = 0) turns the
  /// row-position division in every P(V) lookup into a multiply.
  struct SlotF {
    double voc = 0.0, pmpp = 0.0, inv_voc = 0.0;
  };
  std::vector<SlotF> slot_f;  ///< [slots]
  std::vector<double> power;  ///< [slot * points + m]
  [[nodiscard]] std::size_t bytes() const {
    return sizeof(SlotF) * slot_f.size() + sizeof(double) * power.size();
  }
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

  /// Surrogate lookup key of one illuminance: the slot of the grid node
  /// below it (j - kGridLo) and the log-illuminance interpolation
  /// weight. Entries live at fixed log-illuminance grid nodes whose
  /// values depend only on the cell and the options, so one cache can
  /// serve many runs (the fleet engine shares one across every node of a
  /// chunk) and only pays exact solves for grid nodes no earlier run
  /// touched — without changing any run's trajectory.
  static constexpr std::uint32_t kDarkStep = 0xffffffffu;
  struct LuxKey {
    std::uint32_t slot = kDarkStep;  ///< grid slot, or kDarkStep below kDarkLux
    double frac = 0.0;               ///< weight towards entry slot + 1
  };
  /// A LuxKey whose weight is rounded through float. Every tick-replayed
  /// step resolves one with step_key(): that float weight is part of the
  /// reference (kFixed) trajectory. It widens exactly to a LuxKey, so
  /// at() and power_at() read both.
  struct StepKey {
    std::uint32_t slot = kDarkStep;  ///< grid slot, or kDarkStep below kDarkLux
    float frac = 0.0f;               ///< weight towards entry slot + 1
    operator LuxKey() const { return LuxKey{slot, frac}; }
  };
  /// Key for `equivalent_lux`, building its two grid entries on first
  /// touch. Surrogate mode only.
  [[nodiscard]] StepKey step_key(double equivalent_lux) {
    require(options_.model == PowerModel::kSurrogate,
            "CurveCache: step_key needs the surrogate model");
    const LuxKey key = key_of(equivalent_lux);
    return StepKey{key.slot, static_cast<float>(key.frac)};
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

  /// The grid entries covering [lux_min, lux_max] (plus the
  /// interpolation neighbour above) as a self-contained CurveTable.
  /// The fleet SoA engine exports one table per environment and answers
  /// every node's curve queries from it; reading it through
  /// laws::pv_row_read reproduces at()/power_at() arithmetic bit for bit
  /// (up to the lanes' v * inv_voc row position). Warms the range first;
  /// surrogate mode only.
  [[nodiscard]] CurveTable export_range(double lux_min, double lux_max);

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
  /// Grid index of slot 0: floor(32 ln kDarkLux), the node below the
  /// dimmest lit illuminance.
  static constexpr long kGridLo = -96;
  /// Grid index of the top entry. Keys resolve below it: 32 ln lux <
  /// kGridHi, lux < 8.9e6.
  static constexpr long kGridHi = 512;
  static constexpr std::size_t kGridSlots = kGridHi - kGridLo + 1;

  /// A lit illuminance's place on the grid: the node j below it and the
  /// weight towards j + 1 (x = 32 ln lux, j = floor(x), frac = x - j).
  /// `equivalent_lux` must be >= kDarkLux; one at or above the ceiling
  /// fails a require.
  struct GridPoint {
    long j = 0;
    double frac = 0.0;
  };
  [[nodiscard]] static GridPoint grid_point(double equivalent_lux);

  // --- certified keys (fleet/hill_lanes.cpp, point 1) -----------------
  // step_key's (j, float weight) at lux = scale * eq from one log per
  // factor, x ~ key_term(scale) + key_term(eq): kept only where both
  // ends of [x - kKeyRadius, x + kKeyRadius] give the same pair.

  /// 32 ln y, or NaN (failing the certificate) outside |32 ln y| <
  /// kGridHi. Always inlined: the per-ISA lane objects keep no copy.
  [[nodiscard]] __attribute__((always_inline)) static double key_term(double y) {
    const double x = kGridNodesPerLogLux * std::log(y);
    return x > -kGridHi && x < kGridHi ? x : std::numeric_limits<double>::quiet_NaN();
  }
  /// Half-width of the interval whose every point must give one key.
  static constexpr double kKeyRadius = 0x1p-40;
  /// A certified key on the lanes of lane type L (common/step_laws.hpp):
  /// grid index j and float-rounded weight, valid where `sure`.
  template <class L>
  struct CertifiedKey {
    typename L::D j, frac;
    typename L::B sure;
  };
  template <class L>
  [[nodiscard]] __attribute__((always_inline)) static CertifiedKey<L> certified_key(
      typename L::D xoff, typename L::D xeq) {
    using D = typename L::D;
    const D x = xoff + xeq;
    const D lo = x - L::splat(kKeyRadius);
    const D hi = x + L::splat(kKeyRadius);
    const D j = L::floor(lo);
    const D f_lo = L::round_float(lo - j);
    const D f_hi = L::round_float(hi - L::floor(hi));
    const typename L::B sure =
        (j == L::floor(hi)) & (f_lo == f_hi) & (hi < L::splat(static_cast<double>(kGridHi)));
    return {j, f_lo, sure};
  }

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
  /// Build the entries of slots s and s+1 if they are not built yet.
  /// The inline fast path returns when both are; build_slot() is the
  /// out-of-line rest.
  void ensure_slot(std::size_t s);
  void build_slot(std::size_t s);
  /// lux_key() without the mode check.
  LuxKey key_of(double equivalent_lux);

  const pv::SingleDiodeModel& cell_;
  pv::Conditions conditions_;
  Options options_;

  // Exact mode: per-step entry slots, filled by prepare (frac unused).
  std::vector<StepKey> step_keys_;
  /// Surrogate: the kGridSlots grid entries, slot s at grid node
  /// s + kGridLo. Exact: one entry per prepared illuminance bucket.
  std::vector<Entry> entries_;
  const std::vector<double>* eq_lux_ = nullptr;  ///< exact mode: per-step lux

  std::uint64_t model_evals_ = 0;
  std::uint64_t entries_built_ = 0;
  mutable std::uint64_t queries_ = 0;  ///< per-step lookups (at_step is const)
};

// --- per-step readers (inline: see the file comment) -------------------

inline CurveCache::GridPoint CurveCache::grid_point(double equivalent_lux) {
  const double x = kGridNodesPerLogLux * std::log(equivalent_lux);
  require(x < static_cast<double>(kGridHi),
          "CurveCache: illuminance at or above the surrogate grid's ceiling (8.9e6 lux)");
  const double j = std::floor(x);
  return GridPoint{static_cast<long>(j), x - j};
}

inline void CurveCache::ensure_slot(std::size_t s) {
  if (!(entries_[s].built && entries_[s + 1].built)) build_slot(s);
}

inline CurveCache::LuxKey CurveCache::key_of(double equivalent_lux) {
  if (!(equivalent_lux >= kDarkLux)) return LuxKey{};
  const GridPoint g = grid_point(equivalent_lux);
  const auto slot = static_cast<std::uint32_t>(g.j - kGridLo);
  ensure_slot(slot);
  return LuxKey{slot, g.frac};
}

inline double CurveCache::table_power(const Entry& e, double v) const {
  if (v >= e.voc) return 0.0;
  const int n = options_.surrogate_points;
  return laws::pv_row_read<laws::Scalar>(e.power.data(), 0,
                                         v / e.voc * static_cast<double>(n - 1),
                                         static_cast<double>(n - 2));
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
