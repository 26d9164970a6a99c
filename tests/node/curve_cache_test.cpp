#include "node/curve_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/require.hpp"
#include "pv/cell_library.hpp"

namespace focv::node {
namespace {

constexpr double kRoomTempK = 300.15;

CurveCache::Options options_for(PowerModel model) {
  CurveCache::Options opt;
  opt.model = model;
  return opt;
}

// Illuminance ladder spanning desk light to full daylight, deliberately
// off any grid node (the worst case for the interpolation).
const std::vector<double> kLuxLadder = {137.0, 480.0, 1021.0, 3333.0, 9870.0, 41000.0};

// Resolve a key for every illuminance of a series, in step order, as a
// kFixed run does; builds the series' grid entries.
void resolve_series(CurveCache& cache, const std::vector<double>& lux) {
  for (const double l : lux) (void)cache.step_key(l);
}

TEST(CurveCache, SurrogatePowerWithinTenthOfPercentOfExact) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK, options_for(PowerModel::kSurrogate));
  for (std::size_t i = 0; i < kLuxLadder.size(); ++i) {
    const CurveCache::StepKey key = cache.step_key(kLuxLadder[i]);
    const pv::Conditions c = cache.conditions_at(kLuxLadder[i]);
    const double voc = cell.open_circuit_voltage(c);
    const double pmpp = cell.maximum_power_point(c, voc).power;
    for (int k = 1; k < 60; ++k) {
      const double v = voc * k / 60.0;
      const double exact = cell.power_at(v, c);
      const double fast = cache.power_at(key, v);
      EXPECT_NEAR(fast, exact, 1e-3 * pmpp)
          << "lux=" << kLuxLadder[i] << " v=" << v;
    }
  }
}

TEST(CurveCache, SurrogateCurveSummaryWithinTenthOfPercent) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK, options_for(PowerModel::kSurrogate));
  for (std::size_t i = 0; i < kLuxLadder.size(); ++i) {
    const pv::Conditions c = cache.conditions_at(kLuxLadder[i]);
    const double voc = cell.open_circuit_voltage(c);
    const pv::MppResult mpp = cell.maximum_power_point(c, voc);
    const CurveCache::StepCurve s = cache.at(cache.step_key(kLuxLadder[i]));
    EXPECT_NEAR(s.voc, voc, 1e-3 * voc);
    EXPECT_NEAR(s.pmpp, mpp.power, 1e-3 * mpp.power);
    // Vmpp tolerance is looser in absolute terms: P(V) is flat at the
    // top, so a small Vmpp offset costs far less than 0.1 % of Pmpp.
    EXPECT_NEAR(s.vmpp, mpp.voltage, 1e-2 * mpp.voltage);
  }
}

TEST(CurveCache, SurrogateNeverExceedsItsOwnPmpp) {
  // Tracking efficiency stays <= 1 by construction: interpolated power
  // cannot beat the interpolated curve maximum.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK, options_for(PowerModel::kSurrogate));
  for (const double lux : kLuxLadder) {
    const CurveCache::StepKey key = cache.step_key(lux);
    const CurveCache::StepCurve s = cache.at(key);
    for (int k = 0; k <= 100; ++k) {
      const double v = s.voc * 1.05 * k / 100.0;
      EXPECT_LE(cache.power_at(key, v), s.pmpp * (1.0 + 1e-12));
    }
  }
}

TEST(CurveCache, ExactModeMatchesDirectSolvesBitForBit) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK, options_for(PowerModel::kExact));
  cache.prepare(kLuxLadder);
  for (std::size_t i = 0; i < kLuxLadder.size(); ++i) {
    const pv::Conditions c = cache.conditions_at(kLuxLadder[i]);
    const double voc = cell.open_circuit_voltage(c);
    const pv::MppResult mpp = cell.maximum_power_point(c, voc);
    const CurveCache::StepCurve s = cache.at_step(i);
    EXPECT_EQ(s.voc, voc);
    EXPECT_EQ(s.pmpp, mpp.power);
    EXPECT_EQ(s.vmpp, mpp.voltage);
    const double v = 0.8 * voc;
    EXPECT_EQ(cache.power_at_step(i, v), cell.power_at(v, c));
  }
}

TEST(CurveCache, ExactModeKeysBucketsByFirstEncounter) {
  // Two illuminances in the same 0.1 % bucket share the first one's
  // curve — the memoisation the pre-surrogate engine used, preserved
  // for bit-stable trajectories.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK, options_for(PowerModel::kExact));
  const std::vector<double> lux = {1000.0, 1000.2, 1000.0};
  cache.prepare(lux);
  EXPECT_EQ(cache.entries_built(), 1u);
  const CurveCache::StepCurve a = cache.at_step(0);
  const CurveCache::StepCurve b = cache.at_step(1);
  EXPECT_EQ(a.voc, b.voc);
  EXPECT_EQ(a.pmpp, b.pmpp);
}

TEST(CurveCache, DarkStepsAreFreeAndZero) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  const std::vector<double> lux = {0.0, 0.01, 500.0};
  {
    CurveCache cache(cell, kRoomTempK, options_for(PowerModel::kSurrogate));
    EXPECT_EQ(cache.at(cache.step_key(lux[0])).pmpp, 0.0);
    EXPECT_EQ(cache.at(cache.step_key(lux[1])).voc, 0.0);
    EXPECT_EQ(cache.power_at(cache.step_key(lux[0]), 1.5), 0.0);
    EXPECT_GT(cache.at(cache.step_key(lux[2])).pmpp, 0.0);
  }
  {
    CurveCache cache(cell, kRoomTempK, options_for(PowerModel::kExact));
    cache.prepare(lux);  // must outlive the queries in exact mode
    EXPECT_EQ(cache.at_step(0).pmpp, 0.0);
    EXPECT_EQ(cache.at_step(1).voc, 0.0);
    EXPECT_EQ(cache.power_at_step(0, 1.5), 0.0);
    EXPECT_GT(cache.at_step(2).pmpp, 0.0);
  }
}

TEST(CurveCache, ConstantLightBuildsOnlyNeighbouringEntries) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK, options_for(PowerModel::kSurrogate));
  const std::vector<double> lux(10000, 750.0);
  resolve_series(cache, lux);
  EXPECT_EQ(cache.entries_built(), 2u);  // node j and its j+1 neighbour
  // Resolution cost is bounded by entries, not steps.
  EXPECT_LE(cache.model_evals(), 2u * (2u + 128u));
  // Per-step queries issue no further solves in surrogate mode.
  const std::uint64_t before = cache.model_evals();
  (void)cache.power_at(cache.step_key(lux[123]), 1.0);
  EXPECT_EQ(cache.model_evals(), before);
}

TEST(CurveCache, RePrepareIsFreeForAnIdenticalSeries) {
  // A surrogate cache carries its entries across runs: resolving the
  // same series again reuses every entry and solves nothing new.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK);
  resolve_series(cache, {500.0});
  const std::uint64_t evals = cache.model_evals();
  const std::uint64_t entries = cache.entries_built();
  resolve_series(cache, {500.0});
  EXPECT_EQ(cache.model_evals(), evals);
  EXPECT_EQ(cache.entries_built(), entries);
}

TEST(CurveCache, PrepareRejectsTheSurrogateModel) {
  // Surrogate runs resolve keys lazily; prepare() serves only kExact.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK, options_for(PowerModel::kSurrogate));
  EXPECT_THROW(cache.prepare(kLuxLadder), PreconditionError);
}

TEST(CurveCache, RejectsTinyTables) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache::Options bad;
  bad.surrogate_points = 4;
  EXPECT_THROW(CurveCache(cell, kRoomTempK, bad), PreconditionError);
}

TEST(CurveCache, SurrogateRePrepareMatchesFreshCache) {
  // The fleet stepper shares one cache across many nodes. A re-used
  // cache must answer exactly like a fresh one for the new series, while
  // keeping (and growing) the grid entries it already solved.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  // Wider span, a dark step, and one illuminance (480) shared with the
  // first series whose grid entries must be reused, not re-solved.
  const std::vector<double> first = {137.0, 480.0, 1021.0};
  const std::vector<double> second = {55.0, 480.0, 22000.0, 0.0};

  CurveCache reused(cell, kRoomTempK, options_for(PowerModel::kSurrogate));
  resolve_series(reused, first);
  const std::uint64_t evals_first = reused.model_evals();
  resolve_series(reused, second);

  CurveCache fresh(cell, kRoomTempK, options_for(PowerModel::kSurrogate));
  resolve_series(fresh, second);

  for (std::size_t i = 0; i < second.size(); ++i) {
    // Every entry is built, so these keys stay valid across the queries.
    const CurveCache::StepKey ka = reused.step_key(second[i]);
    const CurveCache::StepKey kb = fresh.step_key(second[i]);
    const CurveCache::StepCurve a = reused.at(ka);
    const CurveCache::StepCurve b = fresh.at(kb);
    EXPECT_EQ(a.voc, b.voc) << i;
    EXPECT_EQ(a.pmpp, b.pmpp) << i;
    for (int k = 1; k < 20; ++k) {
      const double v = b.voc * k / 20.0;
      EXPECT_EQ(reused.power_at(ka, v), fresh.power_at(kb, v)) << i << " " << v;
    }
  }
  // Overlapping grid nodes were reused, not re-solved: the second
  // series costs fewer evals than the fresh cache's.
  EXPECT_LT(reused.model_evals() - evals_first, fresh.model_evals());
  // Counters accumulate across prepares instead of resetting.
  EXPECT_GE(reused.model_evals(), evals_first);
}

TEST(CurveCache, ExactRePrepareMatchesFreshCache) {
  // Exact mode keys entries by first-encounter illuminance, so re-using
  // a cache must reset them; the trajectory has to stay bit-identical to
  // a fresh cache even when the two series disagree about which
  // illuminance arrives first.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  const std::vector<double> first = {1021.0, 137.0};
  const std::vector<double> second = {137.0, 1021.0, 480.0};

  CurveCache reused(cell, kRoomTempK, options_for(PowerModel::kExact));
  reused.prepare(first);
  reused.prepare(second);

  CurveCache fresh(cell, kRoomTempK, options_for(PowerModel::kExact));
  fresh.prepare(second);

  for (std::size_t i = 0; i < second.size(); ++i) {
    const CurveCache::StepCurve a = reused.at_step(i);
    const CurveCache::StepCurve b = fresh.at_step(i);
    EXPECT_EQ(a.voc, b.voc) << i;
    EXPECT_EQ(a.pmpp, b.pmpp) << i;
    EXPECT_EQ(reused.power_at_step(i, 0.7 * b.voc), fresh.power_at_step(i, 0.7 * b.voc)) << i;
  }
}

// --- LuxKey: on-demand lookups resolved once per illuminance ---------

TEST(CurveCache, LuxKeyBelowDarkLuxIsDarkAndFree) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK);
  const CurveCache::LuxKey key = cache.lux_key(0.5 * CurveCache::kDarkLux);
  EXPECT_EQ(key.slot, CurveCache::kDarkStep);
  EXPECT_EQ(cache.at(key).voc, 0.0);
  EXPECT_EQ(cache.at(key).pmpp, 0.0);
  EXPECT_EQ(cache.power_at(key, 1.5), 0.0);
  EXPECT_EQ(cache.entries_built(), 0u);
  EXPECT_EQ(cache.model_evals(), 0u);
}

TEST(CurveCache, LuxKeyPowerAtNonPositiveVoltageIsZero) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK);
  const CurveCache::LuxKey key = cache.lux_key(480.0);
  ASSERT_NE(key.slot, CurveCache::kDarkStep);
  EXPECT_EQ(cache.power_at(key, 0.0), 0.0);
  EXPECT_EQ(cache.power_at(key, -0.3), 0.0);
  EXPECT_GT(cache.power_at(key, 0.5 * cache.at(key).voc), 0.0);
}

TEST(CurveCache, LuxKeyQueriesCountEveryLookup) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK);
  const std::uint64_t before = cache.queries();
  const CurveCache::LuxKey key = cache.lux_key(1021.0);
  const CurveCache::LuxKey dark = cache.lux_key(0.0);
  EXPECT_EQ(cache.queries(), before);  // resolving is not a lookup
  (void)cache.at(key);
  (void)cache.power_at(key, 1.0);
  (void)cache.power_at(key, 0.0);
  (void)cache.at(dark);
  (void)cache.power_at(dark, 1.0);
  EXPECT_EQ(cache.queries(), before + 5u);
}

TEST(CurveCache, ReusingALuxKeyBuildsNothing) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK);
  const CurveCache::LuxKey key = cache.lux_key(3333.0);
  const std::uint64_t evals = cache.model_evals();
  const std::uint64_t entries = cache.entries_built();
  EXPECT_EQ(entries, 2u);  // node j and its j+1 neighbour
  const CurveCache::StepCurve c = cache.at(key);
  for (int k = 0; k < 50; ++k) {
    (void)cache.at(key);
    (void)cache.power_at(key, c.voc * k / 50.0);
  }
  EXPECT_EQ(cache.model_evals(), evals);
  EXPECT_EQ(cache.entries_built(), entries);
}

TEST(CurveCache, LuxKeyStaysValidWhileTheTableGrowsAboveIt) {
  // The event stepper resolves its two quadrature illuminances low then
  // high and reads through both keys: growing the table above a resolved
  // slot must not move that slot.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK);
  const CurveCache::LuxKey lo = cache.lux_key(137.0);
  (void)cache.lux_key(41000.0);  // grows the table far above `lo`
  CurveCache fresh(cell, kRoomTempK);
  const CurveCache::LuxKey ref = fresh.lux_key(137.0);
  EXPECT_EQ(cache.at(lo).voc, fresh.at(ref).voc);
  EXPECT_EQ(cache.at(lo).pmpp, fresh.at(ref).pmpp);
  EXPECT_EQ(cache.power_at(lo, 0.4), fresh.power_at(ref, 0.4));
}

TEST(CurveCache, LuxKeyStaysValidWhileTheTableGrowsBelowIt) {
  // A key resolved at a high illuminance must keep reading its own
  // entries after a key far below it builds new ones.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK);
  const CurveCache::LuxKey hi = cache.lux_key(1000.0);
  (void)cache.lux_key(10.0);  // builds entries far below `hi`
  CurveCache fresh(cell, kRoomTempK);
  const CurveCache::LuxKey ref = fresh.lux_key(1000.0);
  EXPECT_EQ(cache.at(hi).voc, fresh.at(ref).voc);
  EXPECT_EQ(cache.at(hi).pmpp, fresh.at(ref).pmpp);
  EXPECT_EQ(cache.power_at(hi, 0.4), fresh.power_at(ref, 0.4));
}

TEST(CurveCache, GridRunsFromTheDarkEdgeToItsCeiling) {
  EXPECT_EQ(CurveCache::kGridLo,
            static_cast<long>(std::floor(CurveCache::kGridNodesPerLogLux *
                                         std::log(CurveCache::kDarkLux))));
  EXPECT_EQ(CurveCache::kGridSlots, 609u);
  CurveCache cache(pv::sanyo_am1815(), kRoomTempK);
  EXPECT_EQ(cache.lux_key(CurveCache::kDarkLux).slot, 0u);
  // The top key sits just below the ceiling, 32 ln lux < 512, and
  // reads the last two slots (the cell model itself gives out long
  // before 8.9e6 lux, so the entries are not built here).
  const double top = std::exp(511.5 / CurveCache::kGridNodesPerLogLux);
  EXPECT_EQ(CurveCache::grid_point(top).j - CurveCache::kGridLo,
            static_cast<long>(CurveCache::kGridSlots) - 2);
}

TEST(CurveCache, LuxPastTheCeilingThrowsTheCacheMessage) {
  CurveCache cache(pv::sanyo_am1815(), kRoomTempK);
  const double ceiling = std::exp(512.0 / CurveCache::kGridNodesPerLogLux);
  for (const double lux : {ceiling * 1.001, 1e12, std::numeric_limits<double>::infinity()}) {
    try {
      (void)cache.lux_key(lux);
      ADD_FAILURE() << "no throw at " << lux;
    } catch (const PreconditionError& e) {
      EXPECT_STREQ(e.what(),
                   "CurveCache: illuminance at or above the surrogate grid's ceiling (8.9e6 lux)")
          << lux;
    }
    EXPECT_THROW(cache.warm_range(1.0, lux), PreconditionError) << lux;
  }
  EXPECT_EQ(cache.entries_built(), 0u);
}

TEST(CurveCache, SeedingDisjointRangesReadsLikeAFreshCache) {
  // Two caches that built disjoint ranges; seeding one from the other
  // gives it both, entry for entry what a fresh cache builds.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache dim(cell, kRoomTempK);
  CurveCache bright(cell, kRoomTempK);
  dim.warm_range(5.0, 50.0);
  bright.warm_range(2000.0, 40000.0);
  const std::uint64_t built = dim.entries_built();
  dim.seed_entries(bright);
  EXPECT_EQ(dim.entries_built(), built);  // seeded entries are not its work
  const std::uint64_t evals = dim.model_evals();
  CurveCache fresh(cell, kRoomTempK);
  for (const double lux : {5.0, 7.3, 49.0, 2000.0, 3333.0, 39000.0}) {
    const CurveCache::LuxKey key = dim.lux_key(lux);
    const CurveCache::LuxKey ref = fresh.lux_key(lux);
    EXPECT_EQ(key.slot, ref.slot) << lux;
    EXPECT_EQ(dim.at(key).voc, fresh.at(ref).voc) << lux;
    EXPECT_EQ(dim.at(key).pmpp, fresh.at(ref).pmpp) << lux;
    EXPECT_EQ(dim.at(key).vmpp, fresh.at(ref).vmpp) << lux;
    EXPECT_EQ(dim.power_at(key, 0.37), fresh.power_at(ref, 0.37)) << lux;
  }
  EXPECT_EQ(dim.model_evals(), evals);  // every read hit a built or seeded entry
}

TEST(CurveCache, LuxKeyMatchesStepKeySlot) {
  // Same grid node as the fixed loop's float-weight key; only the
  // weight's precision differs.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  CurveCache cache(cell, kRoomTempK);
  for (const double lux : kLuxLadder) {
    const CurveCache::LuxKey key = cache.lux_key(lux);
    const CurveCache::StepKey step = cache.step_key(lux);
    EXPECT_EQ(key.slot, step.slot) << lux;
    EXPECT_EQ(static_cast<float>(key.frac), step.frac) << lux;
  }
}

}  // namespace
}  // namespace focv::node
