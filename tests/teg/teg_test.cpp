// The TEG extension (paper Section I: the technique "is also applicable
// to ... thermoelectric generators").
#include <gtest/gtest.h>

#include "teg/teg_harvest.hpp"
#include "teg/teg_model.hpp"

namespace focv::teg {
namespace {

TEST(TegModel, TheveninLaw) {
  TegModel::Params p;
  p.seebeck_v_per_k = 0.1;
  p.internal_resistance = 5.0;
  p.resistance_tempco = 0.0;
  const TegModel teg(p);
  ThermalConditions c;
  c.delta_t = 10.0;
  EXPECT_DOUBLE_EQ(teg.open_circuit_voltage(c), 1.0);
  EXPECT_DOUBLE_EQ(teg.current(0.0, c), 0.2);          // short circuit
  EXPECT_DOUBLE_EQ(teg.current(1.0, c), 0.0);          // open circuit
  EXPECT_DOUBLE_EQ(teg.current(0.5, c), 0.1);          // matched
}

TEST(TegModel, MppExactlyHalfVoc) {
  const TegModel teg;
  ThermalConditions c;
  c.delta_t = 8.0;
  EXPECT_DOUBLE_EQ(teg.mpp_voltage(c), 0.5 * teg.open_circuit_voltage(c));
  // P(Voc/2) = Voc^2 / 4R and beats neighbours.
  const double vm = teg.mpp_voltage(c);
  EXPECT_GT(teg.power_at(vm, c), teg.power_at(vm * 0.9, c));
  EXPECT_GT(teg.power_at(vm, c), teg.power_at(vm * 1.1, c));
  EXPECT_NEAR(teg.power_at(vm, c), teg.mpp_power(c), 1e-15);
}

TEST(TegModel, KFactorIsHalf) { EXPECT_DOUBLE_EQ(TegModel::k_factor(), 0.5); }

TEST(TegModel, ResistanceTempco) {
  TegModel::Params p;
  p.internal_resistance = 10.0;
  p.resistance_tempco = 0.004;
  const TegModel teg(p);
  ThermalConditions hot;
  hot.delta_t = 20.0;
  hot.cold_side_k = 330.0;
  ThermalConditions cold;
  cold.delta_t = 20.0;
  cold.cold_side_k = 280.0;
  EXPECT_GT(teg.internal_resistance(hot), teg.internal_resistance(cold));
}

TEST(TegModel, LibraryInstancesSane) {
  ThermalConditions c;
  c.delta_t = 3.0;
  // Body-worn: a few volts open-circuit even at small dT.
  EXPECT_GT(body_worn_teg().open_circuit_voltage(c), 1.0);
  c.delta_t = 35.0;
  EXPECT_GT(industrial_teg().mpp_power(c), 0.5);  // watts-class
}

TEST(TegController, TrimmedToHalf) {
  const auto ctl = make_teg_controller();
  EXPECT_NEAR(ctl.sample_hold().params().divider_ratio, 0.25, 1e-12);
}

TEST(TegController, TracksTheveninMppNearPerfectly) {
  auto ctl = make_teg_controller();
  const TegModel& teg = body_worn_teg();
  ThermalConditions c;
  c.delta_t = 4.0;
  mppt::SensedInputs s;
  s.time = 0.0;
  s.dt = 1.0;
  s.voc = teg.open_circuit_voltage(c);
  const auto out = ctl.step(s);
  // FOCV with k = 0.5 is exact on a Thevenin source.
  EXPECT_NEAR(out.pv_voltage, teg.mpp_voltage(c), 0.02);
  EXPECT_GT(teg.tracking_efficiency(out.pv_voltage, c), 0.99);
}

TEST(TegHarvest, BodyWornDayNetsPositive) {
  auto ctl = make_teg_controller();
  const ThermalTrace day = body_worn_thermal_day();
  const TegHarvestReport r = harvest_teg(body_worn_teg(), day, ctl);
  EXPECT_GT(r.harvested_energy, 0.0);
  EXPECT_GT(r.tracking_efficiency(), 0.85);  // dead zones below the Voc floor
  EXPECT_GT(r.net_energy(), 0.0);
}

TEST(TegHarvest, IndustrialDayHighEfficiency) {
  auto ctl = make_teg_controller();
  const ThermalTrace day = industrial_thermal_day();
  const TegHarvestReport r = harvest_teg(industrial_teg(), day, ctl);
  EXPECT_GT(r.tracking_efficiency(), 0.95);
  EXPECT_GT(r.net_energy(), 100.0);  // watts-class source, joules galore
}

TEST(TegHarvest, TraceGeneratorsDeterministic) {
  const ThermalTrace a = body_worn_thermal_day(5);
  const ThermalTrace b = body_worn_thermal_day(5);
  ASSERT_EQ(a.delta_t.size(), b.delta_t.size());
  for (std::size_t i = 0; i < a.delta_t.size(); i += 1001) {
    EXPECT_DOUBLE_EQ(a.delta_t[i], b.delta_t[i]);
  }
}

TEST(TegHarvest, RejectsMalformedTrace) {
  auto ctl = make_teg_controller();
  ThermalTrace bad;
  bad.time = {0.0};
  bad.delta_t = {1.0};
  EXPECT_THROW((void)harvest_teg(body_worn_teg(), bad, ctl), PreconditionError);
}

}  // namespace
}  // namespace focv::teg
