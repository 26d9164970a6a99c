#include "power/storage.hpp"

#include <cmath>
#include <cstddef>
#include <iterator>
#include <optional>

#include <gtest/gtest.h>

namespace focv::power {
namespace {

Supercapacitor::Params no_leak() {
  Supercapacitor::Params p;
  p.capacitance = 1.0;
  p.max_voltage = 5.0;
  p.min_useful_voltage = 1.8;
  p.self_discharge_resistance = 0.0;
  return p;
}

TEST(Supercapacitor, ChargingConservesEnergy) {
  Supercapacitor cap(no_leak());
  const double absorbed = cap.apply_power(1e-3, 100.0);  // 0.1 J
  EXPECT_NEAR(absorbed, 0.1, 1e-12);
  EXPECT_NEAR(cap.stored_energy(), 0.1, 1e-12);
  EXPECT_NEAR(cap.voltage(), std::sqrt(0.2), 1e-9);
}

TEST(Supercapacitor, DischargeStopsAtEmpty) {
  Supercapacitor cap(no_leak());
  cap.set_voltage(1.0);  // 0.5 J
  const double delivered = cap.apply_power(-1.0, 10.0);  // asks for 10 J
  EXPECT_NEAR(delivered, -0.5, 1e-12);
  EXPECT_DOUBLE_EQ(cap.voltage(), 0.0);
}

TEST(Supercapacitor, ClipsAtMaxVoltage) {
  Supercapacitor cap(no_leak());
  cap.apply_power(1.0, 1000.0);  // would exceed the 5 V limit
  EXPECT_NEAR(cap.voltage(), 5.0, 1e-9);
  EXPECT_TRUE(cap.full());
}

TEST(Supercapacitor, UsableThreshold) {
  Supercapacitor cap(no_leak());
  EXPECT_FALSE(cap.usable());
  cap.set_voltage(2.0);
  EXPECT_TRUE(cap.usable());
  cap.set_voltage(1.7);
  EXPECT_FALSE(cap.usable());
}

TEST(Supercapacitor, SelfDischargeDecays) {
  Supercapacitor::Params p = no_leak();
  p.self_discharge_resistance = 100.0;  // tau = 100 s
  Supercapacitor cap(p);
  cap.set_voltage(4.0);
  cap.apply_power(0.0, 100.0);
  EXPECT_NEAR(cap.voltage(), 4.0 * std::exp(-1.0), 1e-6);
}

TEST(Supercapacitor, MemoisedDecayMatchesAFreshStoreAtEveryStep) {
  // apply_power memoises the self-discharge factor on the last dt. A
  // long-lived store, and a copy taken mid-run that carries the memo,
  // must stay bit-equal to a freshly built store set to the same voltage
  // at every step, also when dt changes.
  Supercapacitor::Params p;  // default leak: tau = 2e6 s
  p.initial_voltage = 3.0;
  Supercapacitor cap(p);
  std::optional<Supercapacitor> copy;
  const double dts[] = {1.0, 1.0, 0.5, 1.0, 2.0};
  const auto expect_step_matches_fresh = [&](Supercapacitor& store, double power, double dt) {
    Supercapacitor fresh(p);
    fresh.set_voltage(store.voltage());
    EXPECT_EQ(store.apply_power(power, dt), fresh.apply_power(power, dt));
    EXPECT_EQ(store.voltage(), fresh.voltage());
  };
  for (std::size_t k = 0; k < std::size(dts); ++k) {
    SCOPED_TRACE(k);
    const double power = k % 2 == 0 ? 2e-5 : -7e-6;
    expect_step_matches_fresh(cap, power, dts[k]);
    if (copy) expect_step_matches_fresh(*copy, -power, dts[k]);
    if (k == 2) copy = cap;  // memo at dt = 0.5
  }
  EXPECT_NE(cap.voltage(), copy->voltage());
}

TEST(Supercapacitor, AdvanceConstantPowerMatchesLinearCharge) {
  // No leak: the closed form degenerates to E += P dt, exactly what
  // apply_power does below the clamps.
  Supercapacitor cap(no_leak());
  cap.set_voltage(2.0);
  const double de = cap.advance_constant_power(1e-3, 500.0);
  EXPECT_NEAR(de, 0.5e-3 * 1000.0, 1e-12);
  EXPECT_NEAR(cap.stored_energy(), 0.5 * 2.0 * 2.0 + 0.5, 1e-12);
}

TEST(Supercapacitor, AdvanceConstantPowerIsASemigroup) {
  // The RC closed form is exact, so advancing T in one call must land
  // exactly where two calls of T/2 do — no splitting error.
  Supercapacitor::Params p = no_leak();
  p.self_discharge_resistance = 200.0;
  Supercapacitor one(p);
  Supercapacitor two(p);
  one.set_voltage(3.0);
  two.set_voltage(3.0);
  one.advance_constant_power(2e-4, 300.0);
  two.advance_constant_power(2e-4, 150.0);
  two.advance_constant_power(2e-4, 150.0);
  EXPECT_NEAR(one.voltage(), two.voltage(), 1e-12);
}

TEST(Supercapacitor, AdvanceConstantPowerIsFineStepLimit) {
  // apply_power splits decay and charge per step; its trajectory must
  // converge to the closed form as the step shrinks.
  Supercapacitor::Params p = no_leak();
  p.self_discharge_resistance = 500.0;
  Supercapacitor macro(p);
  Supercapacitor micro(p);
  macro.set_voltage(2.5);
  micro.set_voltage(2.5);
  macro.advance_constant_power(5e-4, 600.0);
  for (int i = 0; i < 6000; ++i) micro.apply_power(5e-4, 0.1);
  EXPECT_NEAR(macro.voltage(), micro.voltage(), 1e-4);
}

TEST(Supercapacitor, TimeToEnergyLinear) {
  Supercapacitor cap(no_leak());
  cap.set_voltage(1.0);  // 0.5 J
  const double target = cap.min_useful_energy();
  const double t = cap.time_to_energy(1e-3, target);
  ASSERT_TRUE(std::isfinite(t));
  EXPECT_NEAR(t, (target - 0.5) / 1e-3, 1e-9);
  cap.advance_constant_power(1e-3, t);
  EXPECT_NEAR(cap.stored_energy(), target, 1e-9);
  // Wrong direction: discharging never reaches a higher target.
  EXPECT_TRUE(std::isinf(cap.time_to_energy(-1e-3, 2.0 * target)));
}

TEST(Supercapacitor, TimeToEnergyWithLeak) {
  Supercapacitor::Params p = no_leak();
  p.self_discharge_resistance = 1000.0;
  Supercapacitor cap(p);
  cap.set_voltage(2.0);  // 2 J, draining towards the 1.62 J threshold
  const double target = cap.min_useful_energy();
  const double t = cap.time_to_energy(-1e-4, target);
  ASSERT_TRUE(std::isfinite(t));
  Supercapacitor probe(p);
  probe.set_voltage(2.0);
  probe.advance_constant_power(-1e-4, t);
  EXPECT_NEAR(probe.stored_energy(), target, 1e-9);
  // Asymptote short of the target: a charge rate whose equilibrium sits
  // below the threshold never crosses it.
  Supercapacitor low(p);
  low.set_voltage(0.5);
  EXPECT_TRUE(std::isinf(low.time_to_energy(1e-6, target)));
}

TEST(Supercapacitor, TimeToEnergyAtThresholdIsZero) {
  // A store sitting exactly on a threshold must still report the
  // crossing (t = 0), or the event engine would wait forever to flip
  // usable(); both the linear and the RC branch.
  Supercapacitor lin(no_leak());
  lin.set_voltage(1.8);
  EXPECT_EQ(lin.time_to_energy(-1e-4, lin.min_useful_energy()), 0.0);
  EXPECT_EQ(lin.time_to_energy(0.0, lin.min_useful_energy()), 0.0);
  Supercapacitor::Params p = no_leak();
  p.self_discharge_resistance = 1000.0;
  Supercapacitor rc(p);
  rc.set_voltage(1.8);
  EXPECT_EQ(rc.time_to_energy(-1e-4, rc.min_useful_energy()), 0.0);
}

TEST(Supercapacitor, RejectsBadUse) {
  Supercapacitor cap(no_leak());
  EXPECT_THROW(cap.apply_power(1.0, 0.0), focv::PreconditionError);
  EXPECT_THROW(cap.set_voltage(99.0), focv::PreconditionError);
  Supercapacitor::Params bad = no_leak();
  bad.capacitance = 0.0;
  EXPECT_THROW(Supercapacitor{bad}, focv::PreconditionError);
}

}  // namespace
}  // namespace focv::power
