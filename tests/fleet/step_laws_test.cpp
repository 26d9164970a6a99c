// Law-level bit equality of the shared step laws (common/step_laws.hpp):
// seeded random states run through graddesc_step, pando_step,
// supercap_step and buck_boost_output as scalar (the instantiation the
// controllers' step(), Supercapacitor::apply_power and
// BuckBoostConverter::output_power use) and on lanes (the one the
// fleet's lane kernels use), at every lane width this host runs; each
// lane must end with the scalar's bits. The cases cover bootstrap,
// stalled, annealing and climbing decisions, clamps at 0 and at
// max_voltage, off-cadence and masked-off lanes, empty, full and
// self-discharging stores, and a converter that is off (no input power,
// or a voltage outside its rating), at its loss floor or converting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "fleet/soa_internal.hpp"
#include "power/converter.hpp"
#include "step_laws_cases.hpp"

namespace focv::laws_test {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// What the scalar run saw, so the test can show every case kind occurs.
struct Coverage {
  int bootstrap = 0, stall = 0, anneal = 0, climb = 0, clamp_zero = 0, clamp_max = 0;
  int off_cadence = 0, masked = 0, empty = 0, full = 0, discharging = 0;
  int conv_off = 0, conv_floor = 0, conv_on = 0;
};

LawParams draw_params(Rng& rng, bool self_discharge) {
  LawParams p{};
  auto& g = p.graddesc;
  g.update_period = rng.uniform(0.5, 2.0);
  g.max_voltage = rng.uniform(3.0, 8.0);
  g.probe_step = rng.uniform(0.005, 0.05);
  g.learning_rate = rng.uniform(0.01, 0.5);
  g.lr_min = g.learning_rate * rng.uniform(0.0, 0.5);
  g.decay = rng.uniform(0.5, 1.0);
  g.max_step = rng.uniform(0.05, 0.5);
  auto& h = p.pando;
  h.update_period = rng.uniform(0.5, 2.0);
  h.max_voltage = rng.uniform(3.0, 8.0);
  h.voltage_step = rng.uniform(0.01, 0.2);
  p.capacitance = rng.uniform(0.05, 1.0);
  const double v_max = rng.uniform(3.0, 5.5);
  p.max_energy = 0.5 * p.capacitance * v_max * v_max;
  p.self_discharge = self_discharge;
  auto& cv = p.converter;
  cv.efficiency_peak = rng.uniform(0.5, 1.0);
  cv.fixed_loss = rng.uniform(0.0, 5e-6);
  cv.input_power_knee = rng.uniform(1e-6, 5e-5);
  cv.min_input_voltage = rng.uniform(0.3, 1.0);
  cv.max_input_voltage = rng.uniform(2.0, 6.0);
  return p;
}

/// A voltage in [0, vmax], often on or next to a rail.
double rail_voltage(Rng& rng, double vmax) {
  switch (rng.below(6)) {
    case 0: return 0.0;
    case 1: return vmax;
    case 2: return rng.uniform(0.0, 0.02);
    case 3: return vmax - rng.uniform(0.0, 0.02);
    default: return rng.uniform(0.0, vmax);
  }
}

LawCase draw_case(Rng& rng, const LawParams& p) {
  LawCase c{};
  c.on = rng.below(8) != 0;
  c.time = rng.uniform(0.0, 86400.0);
  auto& g = c.graddesc;
  g.voltage = rail_voltage(rng, p.graddesc.max_voltage);
  g.lr = rng.below(4) == 0 ? p.graddesc.lr_min : rng.uniform(p.graddesc.lr_min, 1.0);
  g.prev_power = rng.uniform(0.0, 5e-3);
  g.prev_voltage = rng.uniform(0.0, p.graddesc.max_voltage);
  g.prev_gradient = rng.uniform(-2e-3, 2e-3);
  // One in four off cadence: the next decision lies ahead.
  g.next_update = c.time + (rng.below(4) == 0 ? rng.uniform(1e-3, 1.0) : -rng.uniform(0.0, 2.0));
  g.has_prev = rng.below(6) != 0;
  g.has_gradient = rng.below(3) != 0;
  c.power = rng.below(8) == 0 ? g.prev_power : rng.uniform(0.0, 5e-3);
  switch (rng.below(5)) {
    case 0: c.voltage = g.prev_voltage; break;                            // stalled
    case 1: c.voltage = g.prev_voltage + rng.uniform(-5e-10, 5e-10); break;  // stalled
    case 2: c.voltage = g.prev_voltage + rng.uniform(-1e-3, 1e-3); break;  // steep climb
    default: c.voltage = rng.uniform(0.0, p.graddesc.max_voltage); break;
  }
  auto& h = c.pando;
  h.voltage = rail_voltage(rng, p.pando.max_voltage);
  h.direction = rng.below(2) == 0 ? 1.0 : -1.0;
  h.last_power = rng.below(8) == 0 ? c.power : rng.uniform(0.0, 5e-3);
  h.next_update = c.time + (rng.below(4) == 0 ? rng.uniform(1e-3, 1.0) : -rng.uniform(0.0, 2.0));
  h.has_last_power = rng.below(6) != 0;

  const double v_full = std::sqrt(2.0 * p.max_energy / p.capacitance);
  switch (rng.below(4)) {
    case 0: c.store_voltage = 0.0; break;
    case 1: c.store_voltage = v_full; break;
    default: c.store_voltage = rng.uniform(0.0, v_full); break;
  }
  c.dt = rng.below(2) == 0 ? 1.0 : rng.uniform(0.1, 10.0);
  c.net = rng.uniform(-0.05, 0.05);
  c.decay = std::exp(-c.dt / rng.uniform(1e3, 1e7));
  switch (rng.below(5)) {
    case 0: c.conv_in = 0.0; break;
    case 1: c.conv_in = -rng.uniform(0.0, 1e-4); break;
    default: c.conv_in = rng.uniform(0.0, 1e-4); break;
  }
  // Below, inside and above the input rating, and on its edges.
  switch (rng.below(6)) {
    case 0: c.conv_v = p.converter.min_input_voltage; break;
    case 1: c.conv_v = p.converter.max_input_voltage; break;
    default: c.conv_v = rng.uniform(0.0, 1.2 * p.converter.max_input_voltage); break;
  }
  c.delivered = rng.uniform(0.0, 1.0);
  return c;
}

void run_scalar(const LawParams& p, LawCase& c, Coverage& cov) {
  using S = laws::Scalar;
  const laws::GradDescState<double, bool> g0 = c.graddesc;
  laws::graddesc_step<S>(c.on, c.graddesc, p.graddesc, c.time, c.power, c.voltage);
  laws::pando_step<S>(c.on, c.pando, p.pando, c.time, c.power);
  const double v0 = c.store_voltage;
  (void)laws::supercap_step<S>(c.on, c.store_voltage, c.net, c.dt, c.decay, p.self_discharge,
                               p.capacitance, p.max_energy);
  c.delivered = laws::buck_boost_output<S>(c.on, p.converter, c.conv_in, c.conv_v);
  if (!c.on) {
    ++cov.masked;
    return;
  }
  const bool due = c.time >= g0.next_update;
  if (!due) ++cov.off_cadence;
  if (due && !g0.has_prev) ++cov.bootstrap;
  if (due && g0.has_prev && std::fabs(c.voltage - g0.prev_voltage) < 1e-9) ++cov.stall;
  if (due && g0.has_prev && std::fabs(c.voltage - g0.prev_voltage) >= 1e-9) ++cov.climb;
  if (c.graddesc.lr != g0.lr) ++cov.anneal;
  if (due && c.graddesc.voltage == 0.0) ++cov.clamp_zero;
  if (due && c.graddesc.voltage == p.graddesc.max_voltage) ++cov.clamp_max;
  if (c.store_voltage == 0.0) ++cov.empty;
  if (0.5 * p.capacitance * c.store_voltage * c.store_voltage >= p.max_energy * (1 - 1e-12)) {
    ++cov.full;
  }
  if (p.self_discharge && v0 > 0.0) ++cov.discharging;
  const bool rated =
      c.conv_v >= p.converter.min_input_voltage && c.conv_v <= p.converter.max_input_voltage;
  if (c.conv_in <= 0.0 || !rated) {
    ++cov.conv_off;
  } else if (c.delivered == 0.0) {
    ++cov.conv_floor;
  } else {
    ++cov.conv_on;
  }
  EXPECT_EQ(bits(c.delivered),
            bits(power::BuckBoostConverter(p.converter).output_power(c.conv_in, c.conv_v)));
}

/// Every state field of `lane` equals the scalar's, bit for bit.
void expect_same(const LawCase& scalar, const LawCase& lane, std::size_t index) {
  const auto& a = scalar.graddesc;
  const auto& b = lane.graddesc;
  const auto& pa = scalar.pando;
  const auto& pb = lane.pando;
  const double da[] = {a.voltage,      a.lr,          a.prev_power,  a.prev_voltage,
                       a.prev_gradient, a.next_update, pa.voltage,    pa.direction,
                       pa.last_power,   pa.next_update, scalar.store_voltage, scalar.delivered};
  const double db[] = {b.voltage,      b.lr,          b.prev_power,  b.prev_voltage,
                       b.prev_gradient, b.next_update, pb.voltage,    pb.direction,
                       pb.last_power,   pb.next_update, lane.store_voltage, lane.delivered};
  for (std::size_t k = 0; k < std::size(da); ++k) {
    EXPECT_EQ(bits(da[k]), bits(db[k]))
        << "case " << index << " field " << k << ": scalar " << std::hexfloat << da[k]
        << " lanes " << db[k];
  }
  EXPECT_EQ(a.has_prev, b.has_prev) << "case " << index;
  EXPECT_EQ(a.has_gradient, b.has_gradient) << "case " << index;
  EXPECT_EQ(pa.has_last_power, pb.has_last_power) << "case " << index;
}

using LanesFn = void (*)(const LawParams&, double* const*, std::size_t);
struct LanesFns {
  LanesFn laws = nullptr;
  LanesFn converter = nullptr;
};

/// Runs the lane functions on the cases through their columns.
void run_columns(LanesFns run, const LawParams& p, std::vector<LawCase>& cases) {
  std::vector<std::vector<double>> cols(kAllColumns, std::vector<double>(cases.size()));
  for (std::size_t r = 0; r < cases.size(); ++r) {
    for_each_column(cases[r], [&](int k, auto v) { cols[k][r] = static_cast<double>(v); });
    cols[kConvIn][r] = cases[r].conv_in;
    cols[kConvV][r] = cases[r].conv_v;
  }
  std::vector<double*> ptrs;
  for (std::vector<double>& c : cols) ptrs.push_back(c.data());
  // The converter reads `on` before the laws overwrite any column.
  run.converter(p, ptrs.data(), cases.size());
  run.laws(p, ptrs.data(), cases.size());
  for (std::size_t r = 0; r < cases.size(); ++r) {
    for_each_column(cases[r], [&](int k, auto& v) {
      v = static_cast<std::remove_reference_t<decltype(v)>>(cols[k][r]);
    });
    cases[r].delivered = cols[kDelivered][r];
  }
}

LanesFns lanes_fns(int width) {
  switch (width) {
#if FOCV_TEST_LANES4
    case 4: return {&run_lanes<4>, &run_converter_lanes<4>};
#endif
#if FOCV_TEST_LANES8
    case 8: return {&run_lanes<8>, &run_converter_lanes<8>};
#endif
    default: return {};
  }
}

class StepLawLanes : public ::testing::TestWithParam<int> {};

TEST_P(StepLawLanes, MatchScalarBitForBit) {
  const int width = GetParam();
  const LanesFns run = lanes_fns(width);
  if (run.laws == nullptr) GTEST_SKIP() << "no " << width << "-lane build on this target";
  if (!fleet::soa::internal::lanes_runnable(width)) {
    GTEST_SKIP() << "host lacks " << fleet::soa::internal::lanes_requirement(width);
  }
  Coverage cov;
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const LawParams p = draw_params(rng, seed % 4 != 0);
    std::vector<LawCase> in(static_cast<std::size_t>(width) * 64);
    for (LawCase& c : in) c = draw_case(rng, p);
    std::vector<LawCase> scalar = in;
    for (LawCase& c : scalar) run_scalar(p, c, cov);
    std::vector<LawCase> lanes = in;
    run_columns(run, p, lanes);
    for (std::size_t k = 0; k < in.size(); ++k) expect_same(scalar[k], lanes[k], cases + k);
    cases += in.size();
    if (HasFailure()) break;
  }
  // Every kind of case occurred.
  for (const int count : {cov.bootstrap, cov.stall, cov.anneal, cov.climb, cov.clamp_zero,
                          cov.clamp_max, cov.off_cadence, cov.masked, cov.empty, cov.full,
                          cov.discharging, cov.conv_off, cov.conv_floor, cov.conv_on}) {
    EXPECT_GT(count, 0);
  }
  std::printf("%zu cases: bootstrap %d, stall %d, anneal %d, climb %d, clamp 0 %d, clamp max %d, "
              "off cadence %d, masked %d, empty %d, full %d, self-discharging %d, converter "
              "off %d, at floor %d, on %d\n",
              cases, cov.bootstrap, cov.stall, cov.anneal, cov.climb, cov.clamp_zero,
              cov.clamp_max, cov.off_cadence, cov.masked, cov.empty, cov.full, cov.discharging,
              cov.conv_off, cov.conv_floor, cov.conv_on);
}

INSTANTIATE_TEST_SUITE_P(Widths, StepLawLanes, ::testing::Values(4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string("w").append(std::to_string(info.param));
                         });

}  // namespace
}  // namespace focv::laws_test
