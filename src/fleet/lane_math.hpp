// Lane arithmetic shared by the fleet's two lane kernels, soa_lanes.cpp
// and hill_lanes.cpp. Both are compiled once per lane width with that
// width's ISA flags; everything here is always_inline and has internal
// linkage, so no object keeps an out-of-line wide-ISA copy.
#pragma once

#include "common/simd.hpp"
#include "power/converter.hpp"

namespace focv::fleet::lanes {
namespace {

/// BuckBoostConverter::output_power on W lanes (converter.hpp): the
/// knee ratio and efficiency in the scalar association, the fixed-loss
/// floor and both guards as selects. The knee denominator of a lane
/// with p <= 0 is never used: the p > 0 guard voids it.
__attribute__((always_inline)) inline simd::DVec conv_lanes(
    const power::BuckBoostConverter::Params& cp, simd::DVec p, simd::DVec v) {
  const simd::DVec zero = simd::broadcast(0.0);
  const simd::MVec ok = (p > zero) & (v >= simd::broadcast(cp.min_input_voltage)) &
                        (v <= simd::broadcast(cp.max_input_voltage));
  const simd::DVec knee = p / (p + simd::broadcast(cp.input_power_knee));
  const simd::DVec conv = (p * simd::broadcast(cp.efficiency_peak)) * knee;
  const simd::DVec fixed = simd::broadcast(cp.fixed_loss);
  const simd::DVec out = simd::select(conv > fixed, conv - fixed, zero);
  return simd::select(ok, out, zero);
}

}  // namespace
}  // namespace focv::fleet::lanes
