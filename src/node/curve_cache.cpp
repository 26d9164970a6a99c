#include "node/curve_cache.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/require.hpp"

namespace focv::node {

CurveCache::CurveCache(const pv::SingleDiodeModel& cell, double temperature_k, Options options)
    : cell_(cell), options_(options) {
  require(options_.surrogate_points >= 8, "CurveCache: surrogate_points must be >= 8");
  conditions_.spectrum = pv::Spectrum::kFluorescent;
  conditions_.temperature_k = temperature_k;
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

void CurveCache::cover(long lo, long hi) {
  const long old_lo = grid_base_;
  const long old_hi = grid_base_ + static_cast<long>(entries_.size()) - 1;
  if (lo >= old_lo && hi <= old_hi) return;
  if (entries_.empty()) {
    grid_base_ = lo;
    entries_.resize(static_cast<std::size_t>(hi - lo + 1));
    return;
  }
  const long new_lo = std::min(old_lo, lo);
  const long new_hi = std::max(old_hi, hi);
  std::vector<Entry> grown(static_cast<std::size_t>(new_hi - new_lo + 1));
  for (std::size_t s = 0; s < entries_.size(); ++s) {
    grown[static_cast<std::size_t>(old_lo - new_lo) + s] = std::move(entries_[s]);
  }
  entries_ = std::move(grown);
  grid_base_ = new_lo;
}

std::uint32_t CurveCache::build_slot(long j) {
  if (j < grid_base_ || j + 1 >= grid_base_ + static_cast<long>(entries_.size())) cover(j, j + 1);
  const std::size_t slot = static_cast<std::size_t>(j - grid_base_);
  if (!entries_[slot].built) build_surrogate_entry(entries_[slot], j);
  if (!entries_[slot + 1].built) build_surrogate_entry(entries_[slot + 1], j + 1);
  return static_cast<std::uint32_t>(slot);
}

void CurveCache::warm_range(double lux_min, double lux_max) {
  require(options_.model == PowerModel::kSurrogate,
          "CurveCache::warm_range: surrogate mode only");
  lux_min = std::max(lux_min, kDarkLux);
  if (!(lux_max >= lux_min)) return;
  const long jmin = static_cast<long>(std::floor(kGridNodesPerLogLux * std::log(lux_min)));
  const long jmax = static_cast<long>(std::floor(kGridNodesPerLogLux * std::log(lux_max)));
  for (long j = jmin; j <= jmax; ++j) {
    // A lux at the node-interval midpoint makes lux_key build grid
    // nodes j and j+1.
    (void)lux_key(std::exp((static_cast<double>(j) + 0.5) / kGridNodesPerLogLux));
  }
}

CurveCache::DenseExport CurveCache::export_range(double lux_min, double lux_max) {
  require(options_.model == PowerModel::kSurrogate,
          "CurveCache::export_range: surrogate mode only");
  lux_min = std::max(lux_min, kDarkLux);
  require(lux_max >= lux_min, "CurveCache::export_range: empty illuminance range");
  warm_range(lux_min, lux_max);
  const long jmin = static_cast<long>(std::floor(kGridNodesPerLogLux * std::log(lux_min)));
  const long jmax =
      static_cast<long>(std::floor(kGridNodesPerLogLux * std::log(lux_max))) + 1;
  DenseExport out;
  out.grid_lo = jmin;
  out.points = options_.surrogate_points;
  const std::size_t slots = static_cast<std::size_t>(jmax - jmin + 1);
  out.voc.resize(slots);
  out.pmpp.resize(slots);
  out.vmpp.resize(slots);
  out.power.resize(slots * static_cast<std::size_t>(out.points));
  for (std::size_t i = 0; i < slots; ++i) {
    const std::size_t slot = static_cast<std::size_t>(jmin - grid_base_) + i;
    const Entry& e = entries_[slot];
    require(e.built, "CurveCache::export_range: entry missed by warm_range");
    out.voc[i] = e.voc;
    out.pmpp[i] = e.pmpp;
    out.vmpp[i] = e.vmpp;
    std::copy(e.power.begin(), e.power.end(),
              out.power.begin() + static_cast<std::ptrdiff_t>(i * static_cast<std::size_t>(out.points)));
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
  if (other.entries_.empty()) return;
  const long src_lo = other.grid_base_;
  cover(src_lo, src_lo + static_cast<long>(other.entries_.size()) - 1);
  for (std::size_t s = 0; s < other.entries_.size(); ++s) {
    const Entry& src = other.entries_[s];
    if (!src.built) continue;
    Entry& dst = entries_[static_cast<std::size_t>(src_lo - grid_base_) + s];
    if (!dst.built) dst = src;
  }
}

}  // namespace focv::node
