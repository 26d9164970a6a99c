#include "node/sizing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "core/focv_system.hpp"
#include "env/profiles.hpp"
#include "pv/cell_library.hpp"

namespace focv::node {
namespace {

SizingQuery office_query(const env::LightTrace& trace, double report_period) {
  SizingQuery q;
  q.use_cell(pv::sanyo_am1815());
  q.use_scenario(trace);
  q.use_controller(core::make_paper_controller());
  q.load.report_period = report_period;
  return q;
}

TEST(Sizing, LightLoadNeedsSmallCell) {
  const env::LightTrace day = env::office_desk_mixed();
  const SizingResult r =
      size_for_energy_neutrality(office_query(day, 600.0));  // report every 10 min
  ASSERT_TRUE(r.feasible);
  EXPECT_LT(r.area_factor, 2.0);  // one AM-1815 class cell suffices
  EXPECT_GE(r.daily_harvest_j, r.daily_load_j);
  EXPECT_GT(r.storage_j, 0.0);   // must ride through the night
  EXPECT_GT(r.storage_f_at_3v, 0.0);
}

TEST(Sizing, HeavierLoadNeedsLargerCell) {
  const env::LightTrace day = env::office_desk_mixed();
  const SizingResult light = size_for_energy_neutrality(office_query(day, 600.0));
  const SizingResult heavy = size_for_energy_neutrality(office_query(day, 60.0));
  ASSERT_TRUE(light.feasible);
  ASSERT_TRUE(heavy.feasible);
  EXPECT_GT(heavy.area_factor, light.area_factor);
  EXPECT_GT(heavy.storage_j, light.storage_j);
}

TEST(Sizing, InfeasibleWhenScenarioIsDark) {
  const env::LightTrace dark = env::constant_light(0.0, 0.0, 86400.0, 60.0);
  const SizingResult r =
      size_for_energy_neutrality(office_query(dark, 600.0), 0.1, 4.0);
  EXPECT_FALSE(r.feasible);
}

TEST(Sizing, QueryIsReentrant) {
  // Two runs of the same const query agree bit-for-bit: the controller
  // prototype is cloned per run, never mutated in place.
  const env::LightTrace day = env::office_desk_mixed();
  const SizingQuery q = office_query(day, 600.0);
  const SizingResult a = size_for_energy_neutrality(q);
  const SizingResult b = size_for_energy_neutrality(q);
  EXPECT_DOUBLE_EQ(a.area_factor, b.area_factor);
  EXPECT_DOUBLE_EQ(a.storage_j, b.storage_j);
}

/// Delegates to a real controller but reports the conservative
/// MacroLaw::kPerStepOnly, so sizing takes the per-probe loop (scaled
/// cell, per-probe Voc) for a law it would otherwise record once and
/// replay.
class LoopOnly : public mppt::MpptController {
 public:
  explicit LoopOnly(std::unique_ptr<mppt::MpptController> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<mppt::MpptController> clone() const override {
    return std::make_unique<LoopOnly>(inner_->clone());
  }
  [[nodiscard]] mppt::ControlOutput step(const mppt::SensedInputs& inputs) override {
    return inner_->step(inputs);
  }
  [[nodiscard]] double overhead_power() const override { return inner_->overhead_power(); }
  [[nodiscard]] double minimum_operating_lux() const override {
    return inner_->minimum_operating_lux();
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<mppt::MpptController> inner_;
};

SizingQuery spec_query(const env::LightTrace& trace, const std::string& spec,
                       double report_period) {
  core::register_paper_controller();
  SizingQuery q;
  q.use_cell(pv::sanyo_am1815());
  q.use_scenario(trace);
  q.use_controller(spec);
  q.load.report_period = report_period;
  return q;
}

void expect_bit_equal(const SizingResult& a, const SizingResult& b) {
  EXPECT_EQ(a.area_factor, b.area_factor);
  EXPECT_EQ(a.daily_harvest_j, b.daily_harvest_j);
  EXPECT_EQ(a.daily_load_j, b.daily_load_j);
  EXPECT_EQ(a.storage_j, b.storage_j);
  EXPECT_EQ(a.storage_f_at_3v, b.storage_f_at_3v);
  EXPECT_EQ(a.feasible, b.feasible);
}

struct SizingDayCase {
  const char* name;
  env::LightTrace (*make)();
};

void PrintTo(const SizingDayCase& day, std::ostream* os) { *os << day.name; }

class SizingReplay : public ::testing::TestWithParam<SizingDayCase> {};

// Memoryless and sample-hold laws are stepped once and every area probe
// replays the recorded tape; the loop re-steps and re-solves per probe.
// Both must give the same bits. The wide range makes outdoor bisect; at
// [0.1, 64] it is neutral at min_factor.
TEST_P(SizingReplay, TapeMatchesPerProbeLoopBitForBit) {
  const env::LightTrace trace = GetParam().make();
  for (const char* spec : {"focv", "fixed", "pilot", "photo"}) {
    for (const double period : {10.0, 120.5, 3600.0}) {
      for (const auto& [lo, hi] : {std::pair{0.1, 64.0}, std::pair{0.01, 1000.0}}) {
        SCOPED_TRACE(std::string(spec) + " period " + std::to_string(period) + " range " +
                     std::to_string(lo) + ".." + std::to_string(hi));
        SizingQuery tape = spec_query(trace, spec, period);
        SizingQuery loop = tape;
        loop.use_controller(std::make_unique<LoopOnly>(tape.controller_prototype->clone()));
        expect_bit_equal(size_for_energy_neutrality(tape, lo, hi),
                         size_for_energy_neutrality(loop, lo, hi));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Days, SizingReplay,
    ::testing::Values(SizingDayCase{"office", [] { return env::office_desk_mixed(); }},
                      SizingDayCase{"office_sunday",
                                    [] { return env::desk_sunday_blinds_closed(); }},
                      SizingDayCase{"semi_mobile", [] { return env::semi_mobile_day(); }},
                      SizingDayCase{"outdoor", [] { return env::outdoor_day({}); }}),
    [](const ::testing::TestParamInfo<SizingDayCase>& info) { return info.param.name; });

// Values captured before sizing replayed a tape, printed with %.17g.
TEST(Sizing, OfficeFocvMatchesPinnedValues) {
  const env::LightTrace day = env::office_desk_mixed();
  const SizingResult r = size_for_energy_neutrality(spec_query(day, "focv", 120.5));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.area_factor, 0.176456195674839);
  EXPECT_EQ(r.daily_harvest_j, 0.8081393883795428);
  EXPECT_EQ(r.daily_load_j, 0.78319269709652339);
  EXPECT_EQ(r.storage_j, 0.31617508976153097);
}

TEST(Sizing, OutdoorPilotWideRangeMatchesPinnedValues) {
  const env::LightTrace day = env::outdoor_day({});
  const SizingQuery q = spec_query(day, "pilot", 120.5);
  const SizingResult r = size_for_energy_neutrality(q, 0.01, 1000.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.area_factor, 0.049916277163626857);
  EXPECT_EQ(r.daily_harvest_j, 0.88747044987820423);
  EXPECT_EQ(r.storage_j, 2.2891972143586097);
  // The context overload shares only the spectral conversion.
  const SizingContext context(day, pv::sanyo_am1815());
  expect_bit_equal(size_for_energy_neutrality(q, context, 0.01, 1000.0), r);
}

TEST(Sizing, OutdoorPandoMatchesPinnedValues) {
  const env::LightTrace day = env::outdoor_day({});
  const SizingResult r =
      size_for_energy_neutrality(spec_query(day, "pando", 120.5), 0.01, 1000.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.area_factor, 0.14362384940381748);
  EXPECT_EQ(r.daily_harvest_j, 0.82688799770028376);
  EXPECT_EQ(r.storage_j, 6.3542411181460174);
}

TEST(SizingQuery, ControllerSpecOnlyWhenTheCanonicalPrintBuildsIt) {
  core::register_paper_controller();
  SizingQuery q;
  q.use_controller(std::string("focv"));
  EXPECT_EQ(q.controller_spec(), "focv");
  q.use_controller(std::string("pilot[ k = 0.61 , min_lux = 0 lux ]"));
  EXPECT_EQ(q.controller_spec(), "pilot[k=0.61,min_lux=0lux]");
  // Canonical "focv" leaves k unset, which the paper factory reads.
  q.use_controller(std::string("focv[k=0.596]"));
  EXPECT_EQ(q.controller_spec(), "");
  // 13 significant digits do not survive the canonical print.
  q.use_controller(std::string("fixed[v=3.000000000001]"));
  EXPECT_EQ(q.controller_spec(), "");
  q.use_controller(std::string("fixed"));
  q.controller_prototype = q.controller_prototype->clone();
  EXPECT_EQ(q.controller_spec(), "");
  q.use_controller(core::make_paper_controller());
  EXPECT_EQ(q.controller_spec(), "");
}

// A context keeps each tape law's recorded day across queries. Ten keys
// (spec x temperature) cycle through eight resident slots, so the second
// pass evicts and re-records every one; every result must equal the
// context-free run bit for bit, at every load.
TEST(SizingMemo, MemoizedEqualsFreshThroughEvictionAndRebuild) {
  const env::LightTrace day = env::semi_mobile_day();
  const SizingContext context(day, pv::sanyo_am1815());
  struct Key {
    const char* spec;
    double temperature_k;
  };
  const Key keys[] = {{"focv", 300.15},           {"focv[min_lux=0lux]", 300.15},
                      {"focv", 310.0},            {"focv", 300.15 + 1e-12},
                      {"fixed", 300.15},          {"fixed[min_lux=0lux]", 300.15},
                      {"pilot", 300.15},          {"pilot", 280.0},
                      {"photo", 300.15},          {"focv[k=0.61]", 300.15}};
  static_assert(std::size(keys) > SizingContext::kResidentTapes);
  std::uint64_t recorded = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Key& key : keys) {
      for (const double period : {30.0, 600.0}) {
        SCOPED_TRACE(std::string(key.spec) + " at " + std::to_string(key.temperature_k) +
                     " K, period " + std::to_string(period) + ", pass " +
                     std::to_string(pass));
        SizingQuery q = spec_query(day, key.spec, period);
        q.temperature_k = key.temperature_k;
        ASSERT_FALSE(q.controller_spec().empty());
        expect_bit_equal(size_for_energy_neutrality(q, context),
                         size_for_energy_neutrality(q));
      }
      // Recorded on the first load, replayed on the second.
      EXPECT_EQ(context.tapes_recorded(), ++recorded);
    }
    EXPECT_EQ(context.tapes_resident(), SizingContext::kResidentTapes);
  }
  // The most recent key is resident: asking again records nothing.
  const SizingQuery last = spec_query(day, "focv[k=0.61]", 120.0);
  expect_bit_equal(size_for_energy_neutrality(last, context), size_for_energy_neutrality(last));
  EXPECT_EQ(context.tapes_recorded(), recorded);
}

TEST(SizingMemo, QueriesWithoutASpecRecordTheirOwnTape) {
  const env::LightTrace day = env::office_desk_mixed();
  const SizingContext context(day, pv::sanyo_am1815());
  const SizingQuery object = office_query(day, 120.5);
  const SizingQuery lossy = spec_query(day, "focv[k=0.596]", 120.5);
  for (int i = 0; i < 2; ++i) {
    expect_bit_equal(size_for_energy_neutrality(object, context),
                     size_for_energy_neutrality(object));
    expect_bit_equal(size_for_energy_neutrality(lossy, context),
                     size_for_energy_neutrality(lossy));
  }
  // Loop laws step per probe and never touch the memo either.
  const SizingQuery pando = spec_query(day, "pando", 120.5);
  expect_bit_equal(size_for_energy_neutrality(pando, context), size_for_energy_neutrality(pando));
  EXPECT_EQ(context.tapes_recorded(), 0u);
  EXPECT_EQ(context.tapes_resident(), 0u);
}

TEST(Sizing, RejectsMissingInputs) {
  SizingQuery q;
  EXPECT_THROW((void)size_for_energy_neutrality(q), PreconditionError);
}

}  // namespace
}  // namespace focv::node
