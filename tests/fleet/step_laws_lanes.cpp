// The lane side of tests/fleet/step_laws_test.cpp: runs the shared step
// laws and the converter on W lanes (lanes::Lanes), built once per lane
// width with the fleet lane kernel's flags (tests/CMakeLists.txt). It calls no inline
// function another object defines, so no wide-ISA copy can leak.
#include <memory>

#include "common/simd.hpp"
#include "common/step_laws.hpp"
#include "fleet/lane_math.hpp"
#include "step_laws_cases.hpp"

namespace focv::laws_test {
namespace {

using simd::DVec;
using simd::MVec;
constexpr int W = simd::kLanes;

#define FOCV_TEST_INLINE __attribute__((always_inline)) inline

FOCV_TEST_INLINE void get(DVec& v, const double* col) { v = simd::load(col); }
FOCV_TEST_INLINE void get(MVec& v, const double* col) {
  v = simd::load(col) != simd::broadcast(0.0);
}
FOCV_TEST_INLINE void put(double* col, DVec v) { simd::store(col, v); }
FOCV_TEST_INLINE void put(double* col, MVec v) {
  simd::store(col, simd::select(v, simd::broadcast(1.0), simd::broadcast(0.0)));
}

/// A case's fields over W lanes, named as in LawCase.
struct Lanes {
  MVec on;
  DVec time, power, voltage, net, dt, decay;
  laws::GradDescState<DVec, MVec> graddesc;
  laws::PandoState<DVec, MVec> pando;
  DVec store_voltage;
};

}  // namespace

template <>
void run_lanes<W>(const LawParams& p, double* const* col, std::size_t n) {
  using L = fleet::lanes::Lanes;
  // On the heap: GCC aligns a local vector struct to 64 bytes, and under
  // ASan's use-after-return checks a frame can land on its fake stack,
  // where that alignment does not hold and the aligned moves fault.
  const std::unique_ptr<Lanes> held = std::make_unique<Lanes>();
  Lanes& x = *held;
  for (std::size_t row = 0; row < n; row += W) {
    for_each_column(x, [&](int k, auto& v) __attribute__((always_inline)) {
      get(v, col[k] + row);
    });
    laws::graddesc_step<L>(x.on, x.graddesc, p.graddesc, x.time, x.power, x.voltage);
    laws::pando_step<L>(x.on, x.pando, p.pando, x.time, x.power);
    laws::supercap_step<L>(x.on, x.store_voltage, x.net, x.dt, x.decay, p.self_discharge,
                           p.capacitance, p.max_energy);
    for_each_column(x, [&](int k, auto& v) __attribute__((always_inline)) {
      put(col[k] + row, v);
    });
  }
}

template <>
void run_converter_lanes<W>(const LawParams& p, double* const* col, std::size_t n) {
  using L = fleet::lanes::Lanes;
  for (std::size_t row = 0; row < n; row += W) {
    MVec on;
    get(on, col[kOn] + row);
    put(col[kDelivered] + row,
        laws::buck_boost_output<L>(on, p.converter, simd::load(col[kConvIn] + row),
                                   simd::load(col[kConvV] + row)));
  }
}

}  // namespace focv::laws_test
