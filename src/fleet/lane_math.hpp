// Lane arithmetic shared by the fleet's two lane kernels, soa_lanes.cpp
// and hill_lanes.cpp, and the lane type the hill lanes run the shared
// step laws on (common/step_laws.hpp). Both kernels are compiled once per lane width with that
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

#define FOCV_LANES_INLINE __attribute__((always_inline)) static

/// The lane type of common/step_laws.hpp over W lanes: a choice runs
/// both sides, each on its own mask, and every write is a select on
/// the mask it runs under.
struct Lanes {
  using D = simd::DVec;
  using B = simd::MVec;
  FOCV_LANES_INLINE D splat(double x) { return simd::broadcast(x); }
  FOCV_LANES_INLINE D pick(B c, D a, D b) { return simd::select(c, a, b); }
  FOCV_LANES_INLINE D clamp(D x, D lo, D hi) { return simd::clamp(x, lo, hi); }
  FOCV_LANES_INLINE D max(D a, D b) { return simd::select(a < b, b, a); }  // std::max
  FOCV_LANES_INLINE D abs(D x) { return simd::abs(x); }
  FOCV_LANES_INLINE D sqrt(D x) { return simd::sqrt(x); }
  template <class Then>
  FOCV_LANES_INLINE void when(B on, B c, Then&& then) {
    then(on & c);
  }
  template <class Then, class Otherwise>
  FOCV_LANES_INLINE void branch(B on, B c, Then&& then, Otherwise&& otherwise) {
    then(on & c);
    otherwise(on & ~c);
  }
  FOCV_LANES_INLINE void set(B on, D& dst, D v) { dst = simd::select(on, v, dst); }
  FOCV_LANES_INLINE void set(B on, B& dst, B v) { dst = (on & v) | (~on & dst); }
};

#undef FOCV_LANES_INLINE

}  // namespace
}  // namespace focv::fleet::lanes
