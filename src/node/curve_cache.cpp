#include "node/curve_cache.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/require.hpp"

namespace focv::node {

CurveCache::CurveCache(const pv::SingleDiodeModel& cell, double temperature_k, Options options)
    : cell_(cell), options_(options) {
  require(options_.surrogate_points >= 8, "CurveCache: surrogate_points must be >= 8");
  conditions_.spectrum = pv::Spectrum::kFluorescent;
  conditions_.temperature_k = temperature_k;
  if (options_.model == PowerModel::kSurrogate) entries_.resize(kGridSlots);
}

pv::Conditions CurveCache::conditions_at(double equivalent_lux) const {
  pv::Conditions c = conditions_;
  c.illuminance_lux = equivalent_lux;
  return c;
}

void CurveCache::prepare(const std::vector<double>& eq_lux) {
  require(options_.model == PowerModel::kExact,
          "CurveCache: prepare needs the exact model (surrogate runs use step_key)");
  // The historical memoisation: a 0.1 % log-illuminance bucket, keyed by
  // the first illuminance that lands in it, in step order. Keeping the
  // first-encounter representative (rather than the bucket centre) is
  // what makes this mode reproduce the pre-surrogate trajectory bit for
  // bit. Entries keyed by the previous series would change the
  // trajectory, so re-preparation starts from a fresh table.
  entries_.clear();
  eq_lux_ = &eq_lux;
  step_keys_.resize(eq_lux.size());
  std::unordered_map<long, std::uint32_t> slot_of_key;
  for (std::size_t i = 0; i < eq_lux.size(); ++i) {
    const double lux = eq_lux[i];
    const long key = std::lround(1000.0 * std::log(std::max(lux, 1e-3)));
    const auto [it, inserted] =
        slot_of_key.emplace(key, static_cast<std::uint32_t>(entries_.size()));
    if (inserted) {
      entries_.emplace_back();
      build_exact_entry(entries_.back(), lux);
    }
    step_keys_[i] = StepKey{it->second, 0.0f};
  }
}

void CurveCache::build_exact_entry(Entry& e, double lux) {
  if (lux >= kDarkLux) {
    const pv::Conditions c = conditions_at(lux);
    e.voc = cell_.open_circuit_voltage(c);
    const pv::MppResult mpp = cell_.maximum_power_point(c, e.voc);
    e.pmpp = mpp.power;
    e.vmpp = mpp.voltage;
    model_evals_ += 2;
  }
  e.built = true;
  ++entries_built_;
}

void CurveCache::build_surrogate_entry(Entry& e, long grid_index) {
  const double lux = std::exp(static_cast<double>(grid_index) / kGridNodesPerLogLux);
  const pv::Conditions c = conditions_at(lux);
  e.voc = cell_.open_circuit_voltage(c);
  const pv::MppResult mpp = cell_.maximum_power_point(c, e.voc);
  e.pmpp = mpp.power;
  e.vmpp = mpp.voltage;
  const int n = options_.surrogate_points;
  e.power.resize(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    const double v = e.voc * static_cast<double>(m) / static_cast<double>(n - 1);
    e.power[static_cast<std::size_t>(m)] = cell_.power_at(v, c);
  }
  model_evals_ += 2 + static_cast<std::uint64_t>(n);
  e.built = true;
  ++entries_built_;
}

CurveCache::StepCurve CurveCache::at_step(std::size_t i) const {
  ++queries_;
  const Entry& e = entries_[step_keys_[i].slot];
  return StepCurve{e.voc, e.pmpp, e.vmpp};
}

double CurveCache::power_at_step(std::size_t i, double v) {
  ++queries_;
  if (v <= 0.0) return 0.0;
  const double lux = (*eq_lux_)[i];
  if (lux < kDarkLux) return 0.0;
  ++model_evals_;
  return cell_.power_at(v, conditions_at(lux));
}

void CurveCache::build_slot(std::size_t s) {
  for (const std::size_t k : {s, s + 1}) {
    if (!entries_[k].built) build_surrogate_entry(entries_[k], static_cast<long>(k) + kGridLo);
  }
}

void CurveCache::warm_range(double lux_min, double lux_max) {
  require(options_.model == PowerModel::kSurrogate,
          "CurveCache::warm_range: surrogate mode only");
  lux_min = std::max(lux_min, kDarkLux);
  if (!(lux_max >= lux_min)) return;
  const long jmax = grid_point(lux_max).j;
  for (long j = grid_point(lux_min).j; j <= jmax; ++j) {
    ensure_slot(static_cast<std::size_t>(j - kGridLo));
  }
}

CurveTable CurveCache::export_range(double lux_min, double lux_max) {
  require(options_.model == PowerModel::kSurrogate,
          "CurveCache::export_range: surrogate mode only");
  lux_min = std::max(lux_min, kDarkLux);
  require(lux_max >= lux_min, "CurveCache::export_range: empty illuminance range");
  warm_range(lux_min, lux_max);
  CurveTable out;
  out.grid_lo = grid_point(lux_min).j;
  out.slots = static_cast<int>(grid_point(lux_max).j + 2 - out.grid_lo);
  out.points = options_.surrogate_points;
  const auto slots = static_cast<std::size_t>(out.slots);
  const auto points = static_cast<std::size_t>(out.points);
  out.slot_f.resize(slots);
  out.power.resize(slots * points);
  for (std::size_t i = 0; i < slots; ++i) {
    const Entry& e = entries_[static_cast<std::size_t>(out.grid_lo - kGridLo) + i];
    out.slot_f[i] = {e.voc, e.pmpp,
                     e.voc > 0.0 ? 1.0 / e.voc : std::numeric_limits<double>::infinity()};
    std::copy(e.power.begin(), e.power.end(),
              out.power.begin() + static_cast<std::ptrdiff_t>(i * points));
  }
  return out;
}

void CurveCache::seed_entries(const CurveCache& other) {
  require(options_.model == PowerModel::kSurrogate &&
              other.options_.model == PowerModel::kSurrogate,
          "CurveCache::seed_entries: surrogate mode only");
  require(&other.cell_ == &cell_ &&
              other.conditions_.temperature_k == conditions_.temperature_k &&
              other.options_.surrogate_points == options_.surrogate_points,
          "CurveCache::seed_entries: cache identity mismatch");
  for (std::size_t s = 0; s < kGridSlots; ++s) {
    if (other.entries_[s].built && !entries_[s].built) entries_[s] = other.entries_[s];
  }
}

}  // namespace focv::node
