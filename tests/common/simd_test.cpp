// The lane primitives' bit-exactness contract (common/simd.hpp): every
// lane of every op must be the scalar IEEE-754 double op, select must
// be a pure bit blend, and the derived helpers must mirror their std::
// counterparts — the fleet kernel byte-identity proof stands on these.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/simd.hpp"

namespace focv::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::numeric_limits<double>::quiet_NaN();

double lane_bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ba == bb;
}

/// Awkward lane values: zeros of both signs, denormal, huge, Inf, NaN.
/// The NaN sits in the first four lanes so a 4-lane block sees it too.
const double kVals[] = {0.0, -0.0, kNan, -3.5, 5e-324, 1e300, -kInf, 1.0};
static_assert(sizeof(kVals) / sizeof(kVals[0]) >= static_cast<std::size_t>(kLanes) ||
                  kLanes > 8,
              "test vector shorter than a lane block");

DVec awkward() { return load(kVals); }

TEST(Simd, BroadcastLoadStoreRoundtrip) {
  double out[kLanes];
  store(out, awkward());
  for (int l = 0; l < kLanes; ++l) {
    EXPECT_TRUE(lane_bits_equal(out[l], kVals[l])) << "lane " << l;
  }
  store(out, broadcast(-0.0));
  for (int l = 0; l < kLanes; ++l) EXPECT_TRUE(lane_bits_equal(out[l], -0.0));
}

TEST(Simd, ArithmeticIsPerLaneScalarIeee) {
  const DVec a = awkward();
  const DVec b = broadcast(3.0);
  for (int l = 0; l < kLanes; ++l) {
    const double x = kVals[l];
    EXPECT_TRUE(lane_bits_equal((a + b)[l], x + 3.0)) << l;
    EXPECT_TRUE(lane_bits_equal((a - b)[l], x - 3.0)) << l;
    EXPECT_TRUE(lane_bits_equal((a * b)[l], x * 3.0)) << l;
    EXPECT_TRUE(lane_bits_equal((a / b)[l], x / 3.0)) << l;
  }
}

TEST(Simd, ComparisonsMatchScalarIncludingNan) {
  const DVec a = awkward();
  const DVec b = broadcast(1.0);
  for (int l = 0; l < kLanes; ++l) {
    const double x = kVals[l];
    EXPECT_EQ((a < b).lane(l), x < 1.0) << l;
    EXPECT_EQ((a <= b).lane(l), x <= 1.0) << l;
    EXPECT_EQ((a > b).lane(l), x > 1.0) << l;
    EXPECT_EQ((a >= b).lane(l), x >= 1.0) << l;
    EXPECT_EQ((a == b).lane(l), x == 1.0) << l;
    EXPECT_EQ((a != b).lane(l), x != 1.0) << l;
  }
}

TEST(Simd, SelectIsAPureBitBlend) {
  // Masked-off lanes may hold NaN payloads or Inf; select must pass the
  // chosen lane's exact bits through untouched.
  const DVec a = awkward();
  const DVec b = broadcast(7.0);
  const MVec odd = [&] {
    double tmp[kLanes];
    for (int l = 0; l < kLanes; ++l) tmp[l] = (l % 2 == 1) ? 1.0 : 0.0;
    return load(tmp) > broadcast(0.5);
  }();
  const DVec r = select(odd, a, b);
  for (int l = 0; l < kLanes; ++l) {
    EXPECT_TRUE(lane_bits_equal(r[l], (l % 2 == 1) ? kVals[l] : 7.0)) << l;
  }
}

TEST(Simd, MaskOpsAndReductions) {
  const DVec a = awkward();
  const MVec none = a > broadcast(kInf);
  const MVec fin = (a >= broadcast(-kInf)) & (a <= broadcast(kInf));
  EXPECT_FALSE(any(none));
  EXPECT_TRUE(any(fin));
  EXPECT_FALSE(all(fin));  // the NaN lane fails both ordered compares
  EXPECT_TRUE(all(fin | ~fin));
  EXPECT_FALSE(any(fin & ~fin));
}

TEST(Simd, UniformDetectsAnyDifferingLane) {
  EXPECT_TRUE(uniform(broadcast_i(7)));
  EXPECT_TRUE(uniform(broadcast_i(-1)));
  // One differing lane at each position, including lane 0 itself and
  // differences confined to the sign bit or the lowest bit.
  for (int l = 0; l < kLanes; ++l) {
    for (const std::int32_t other : {8, 6, -7, 7 | INT32_MIN}) {
      double tmp[kLanes];
      for (int q = 0; q < kLanes; ++q) tmp[q] = 7.0;
      const IVec base = to_int(load(tmp));
      ASSERT_TRUE(uniform(base));
      std::int32_t lanes[kLanes];
      store(lanes, base);
      lanes[l] = other;
      for (int q = 0; q < kLanes; ++q) tmp[q] = static_cast<double>(lanes[q]);
      EXPECT_FALSE(uniform(to_int(load(tmp)))) << "lane " << l << " = " << other;
    }
  }
  // Index arithmetic as the lane kernel forms it keeps uniformity.
  EXPECT_TRUE(uniform(broadcast_i(5) * broadcast_i(3) + broadcast_i(2)));
}

TEST(Simd, ClampMatchesStdClampBitwise) {
  // Includes the -0.0 / +0.0 edge: std::clamp(-0.0, 0.0, 1.0) keeps
  // -0.0 because neither comparison fires, and so must the lane form.
  const DVec lo = broadcast(0.0);
  const DVec hi = broadcast(1.0);
  const DVec r = clamp(awkward(), lo, hi);
  for (int l = 0; l < kLanes; ++l) {
    if (std::isnan(kVals[l])) continue;  // NaN clamp is caller UB in std too
    EXPECT_TRUE(lane_bits_equal(r[l], std::clamp(kVals[l], 0.0, 1.0))) << l;
  }
  EXPECT_TRUE(lane_bits_equal(clamp(broadcast(-0.0), lo, hi)[0], std::clamp(-0.0, 0.0, 1.0)));
}

TEST(Simd, FloorMatchesStdFloor) {
  const DVec r = floor(awkward());
  for (int l = 0; l < kLanes; ++l) {
    const double expect = std::floor(kVals[l]);
    if (std::isnan(expect)) {
      EXPECT_TRUE(std::isnan(r[l])) << l;
    } else {
      EXPECT_TRUE(lane_bits_equal(r[l], expect)) << l;
    }
  }
}

// The hardware lowerings (AVX2 at 4 lanes, AVX-512 at 8) against
// plain scalar loads and loops, over every lane position.

TEST(Simd, GatherMatchesScalarLoads) {
  double table[64];
  for (int i = 0; i < 64; ++i) table[i] = (i % 7 == 3) ? kVals[i % 8] : 0.125 * i - 3.0;
  // Repeats, both table ends and descending runs, shifted through
  // every lane position.
  const std::int32_t pattern[] = {0, 63, 5, 5, 62, 1, 31, 32, 17, 3, 3, 60, 7, 44, 0, 63};
  for (int shift = 0; shift < 8; ++shift) {
    std::int32_t idx[kLanes];
    for (int l = 0; l < kLanes; ++l) idx[l] = pattern[(l + shift) % 16];
    double as_double[kLanes];
    for (int l = 0; l < kLanes; ++l) as_double[l] = static_cast<double>(idx[l]);
    const IVec iv = to_int(load(as_double));
    const DVec r = gather(table, iv);
    for (int l = 0; l < kLanes; ++l) {
      EXPECT_TRUE(lane_bits_equal(r[l], table[idx[l]])) << "shift " << shift << " lane " << l;
    }
  }
}

TEST(Simd, FloorMatchesStdFloorAcrossRanges) {
  // Halves and near-integers of both signs, signed zeros, denormals
  // (floor(-denormal) is -1), the 2^52 edge where every double is an
  // integer, and infinities.
  const double vals[] = {-2.5, -2.0, -1.5, -0.5, -0.0, 0.0, 0.5, 1.5, 2.5, 2.0,
                         0.9999999999999999, -0.9999999999999999, 1e-320, -1e-320,
                         4503599627370495.5, -4503599627370495.5, 4503599627370496.0,
                         -4503599627370497.0, 1e300, -1e300, kInf, -kInf, 123.456, -123.456};
  constexpr int n = sizeof(vals) / sizeof(vals[0]);
  for (int base = 0; base < n; base += kLanes) {
    double in[kLanes];
    for (int l = 0; l < kLanes; ++l) in[l] = vals[(base + l) % n];
    const DVec r = floor(load(in));
    for (int l = 0; l < kLanes; ++l) {
      EXPECT_TRUE(lane_bits_equal(r[l], std::floor(in[l]))) << in[l];
    }
  }
}

TEST(Simd, AnyAllMatchLaneLoopsOnEveryMask) {
  for (unsigned bits = 0; bits < (1u << kLanes); ++bits) {
    double tmp[kLanes];
    for (int l = 0; l < kLanes; ++l) tmp[l] = ((bits >> l) & 1u) != 0 ? 1.0 : 0.0;
    const MVec m = load(tmp) > broadcast(0.5);
    bool any_loop = false;
    bool all_loop = true;
    for (int l = 0; l < kLanes; ++l) {
      any_loop = any_loop || m.lane(l);
      all_loop = all_loop && m.lane(l);
    }
    EXPECT_EQ(any(m), any_loop) << "mask " << bits;
    EXPECT_EQ(all(m), all_loop) << "mask " << bits;
  }
}

TEST(Simd, UniformMatchesLaneLoopOnEveryPattern) {
  // Lane l holds 7, or 7 + 2^l when bit l of the pattern is set, so
  // only the all-clear pattern is uniform.
  for (unsigned bits = 0; bits < (1u << kLanes); ++bits) {
    double tmp[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      tmp[l] = ((bits >> l) & 1u) != 0 ? 7.0 + static_cast<double>(1 << l) : 7.0;
    }
    const IVec v = to_int(load(tmp));
    bool same = true;
    for (int l = 1; l < kLanes; ++l) same = same && v[l] == v[0];
    EXPECT_EQ(uniform(v), same) << "pattern " << bits;
  }
}

TEST(Simd, AbsMatchesStdFabsBitwise) {
  const DVec r = abs(awkward());
  for (int l = 0; l < kLanes; ++l) {
    EXPECT_TRUE(lane_bits_equal(r[l], std::fabs(kVals[l]))) << l;
  }
}

TEST(Simd, SqrtMatchesStdSqrtBitwise) {
  // Every lane position sees every awkward value (negatives give NaN,
  // -0.0 stays -0.0), plus values whose square roots round.
  const double extra[] = {2.0, 3.0, 1e-310, 0.1, 7.25e-5, 4.0, 1.7976931348623157e308, 0.5};
  for (int shift = 0; shift < kLanes; ++shift) {
    for (const double* src : {kVals, extra}) {
      double in[kLanes];
      for (int l = 0; l < kLanes; ++l) in[l] = src[(l + shift) % 8];
      const DVec r = sqrt(load(in));
      for (int l = 0; l < kLanes; ++l) {
        const double want = std::sqrt(in[l]);
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(r[l])) << "lane " << l << " x=" << in[l];
        } else {
          EXPECT_TRUE(lane_bits_equal(r[l], want)) << "lane " << l << " x=" << in[l];
        }
      }
    }
  }
}

TEST(Simd, RoundToFloatMatchesScalarCastsBitwise) {
  // Halfway and near-halfway cases, float overflow and underflow, both
  // zeros and Inf, each at every lane position.
  const double extra[] = {1.0 + 0x1p-24,       1.0 + 0x1p-24 + 0x1p-52, 0.1, 1e39,
                          -1e-46,              3.4028235677973366e38,   0.999999999999,
                          0.123456789012345678};
  for (int shift = 0; shift < kLanes; ++shift) {
    for (const double* src : {kVals, extra}) {
      double in[kLanes];
      for (int l = 0; l < kLanes; ++l) in[l] = src[(l + shift) % 8];
      const DVec r = round_to_float(load(in));
      for (int l = 0; l < kLanes; ++l) {
        const double want = static_cast<double>(static_cast<float>(in[l]));
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(r[l])) << "lane " << l;
        } else {
          EXPECT_TRUE(lane_bits_equal(r[l], want)) << "lane " << l << " x=" << in[l];
        }
      }
    }
  }
}

}  // namespace
}  // namespace focv::simd
