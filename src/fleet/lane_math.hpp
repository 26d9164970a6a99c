// The lane type of the fleet's two lane kernels, soa_lanes.cpp and
// hill_lanes.cpp: the templates of common/step_laws.hpp and the SoA
// interval body (soa_internal.hpp) run on it at W = simd::kLanes. Both
// kernels are compiled once per lane width with that width's ISA flags;
// everything here is always_inline and has internal linkage, so no
// object keeps an out-of-line wide-ISA copy.
#pragma once

#include "common/simd.hpp"

namespace focv::fleet::lanes {
namespace {

#define FOCV_LANES_INLINE __attribute__((always_inline)) static

/// The lane type of common/step_laws.hpp over W lanes: a choice runs
/// both sides, each on its own mask, and every write is a select on
/// the mask it runs under. Its shortcuts are the few choices that test
/// the lanes first: when_some() skips work no lane needs, and a block
/// whose lanes share one table index reads it once (uniform()).
struct Lanes {
  using D = simd::DVec;
  using B = simd::MVec;
  using I = simd::IVec;
  static constexpr int kWidth = simd::kLanes;
  FOCV_LANES_INLINE D splat(double x) { return simd::broadcast(x); }
  FOCV_LANES_INLINE I splat_i(int x) { return simd::broadcast_i(x); }
  FOCV_LANES_INLINE B yes() { return splat(0.0) == splat(0.0); }
  FOCV_LANES_INLINE D pick(B c, D a, D b) { return simd::select(c, a, b); }
  FOCV_LANES_INLINE D clamp(D x, D lo, D hi) { return simd::clamp(x, lo, hi); }
  FOCV_LANES_INLINE D max(D a, D b) { return simd::select(a < b, b, a); }  // std::max
  FOCV_LANES_INLINE D abs(D x) { return simd::abs(x); }
  FOCV_LANES_INLINE D sqrt(D x) { return simd::sqrt(x); }
  FOCV_LANES_INLINE D floor(D x) { return simd::floor(x); }
  FOCV_LANES_INLINE I to_index(D x) { return simd::to_int(x); }
  FOCV_LANES_INLINE D to_double(I x) { return simd::to_double(x); }
  FOCV_LANES_INLINE D gather(const double* base, I k) { return simd::gather(base, k); }
  /// Field `f` of rows[k]: a strided gather off the first row's field.
  template <class Row>
  FOCV_LANES_INLINE D gather(const Row* rows, I k, double Row::*f) {
    static_assert(sizeof(Row) % sizeof(double) == 0, "rows must be whole doubles");
    constexpr int stride = static_cast<int>(sizeof(Row) / sizeof(double));
    return simd::gather(&(rows->*f), k * simd::broadcast_i(stride));
  }
  FOCV_LANES_INLINE bool uniform(I k) { return simd::uniform(k); }
  FOCV_LANES_INLINE int first(I k) { return k[0]; }
  FOCV_LANES_INLINE bool all(B c) { return simd::all(c); }
  FOCV_LANES_INLINE bool any(B c) { return simd::any(c); }
  FOCV_LANES_INLINE double lane(D x, int l) { return x[l]; }
  FOCV_LANES_INLINE bool lane(B c, int l) { return c.lane(l); }
  template <class Then>
  FOCV_LANES_INLINE void when(B on, B c, Then&& then) {
    then(on & c);
  }
  template <class Then>
  FOCV_LANES_INLINE void when_some(B on, B c, Then&& then) {
    const B m = on & c;
    if (simd::any(m)) then(m);
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
