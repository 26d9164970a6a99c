// Property test of the SoA kernels' closed-form store advance: whenever
// internal::closed_form_ok() lets a kernel skip advance_slow, the
// one-piece closed form must equal what advance_slow computes on the
// same inputs, bit for bit, with no usable() flip. The draws crowd the
// guard band: end energies within 1e-15..1e-6 relative of e_use, the
// store exactly at e_use, and ends clamped at 0 and at e_max.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fleet/soa_internal.hpp"

namespace focv::fleet::soa::internal {
namespace {

/// Store fields advance_slow mutates, seeded with non-zero totals so the
/// accumulating adds are exercised too.
struct Store {
  double e = 0.0;
  double served = 0.0;
  double brown_t = 0.0;
  std::uint32_t brown_steps = 0;
  std::uint32_t flips = 0;
  std::uint32_t slow = 0;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

enum class Kind { kFree, kNearGate, kAtGate, kClampLow, kClampHigh };

struct Tally {
  int closed = 0;  ///< draws the helper sent down the closed form
  int slow = 0;    ///< draws it deferred to advance_slow
  int clamped = 0;  ///< closed-form draws whose end energy left [0, e_max]
};

class AdvanceProperty {
 public:
  explicit AdvanceProperty(std::uint64_t seed) : rng_(seed) {}

  /// One random interval and store state of `kind`; checks the helper's
  /// verdict against advance_slow and records which way it went.
  void run(Kind kind, Tally& tally) {
    // Storage model in the range a node config can reach: tau = R * C
    // from 1e3 s to 2e8 s.
    const double cap = rng_.uniform(0.01, 2.0);
    const double v_use = rng_.uniform(1.0, 3.0);
    const double v_max = v_use + rng_.uniform(0.5, 2.5);
    cx_.tau = std::exp(rng_.uniform(std::log(1e5), std::log(1e8))) * cap;
    cx_.e_use = 0.5 * cap * v_use * v_use;
    cx_.e_max = 0.5 * cap * v_max * v_max;

    // An interval of 1..64 trace steps somewhere in a day.
    const auto steps = static_cast<std::uint32_t>(1 + rng_.next_u64() % 64);
    const auto lead = static_cast<std::uint32_t>(rng_.next_u64() % 4);
    t_.assign(1, rng_.uniform(0.0, 86400.0));
    for (std::uint32_t i = 0; i < lead + steps; ++i) {
      t_.push_back(t_.back() + std::exp(rng_.uniform(std::log(0.05), std::log(900.0))));
    }
    cx_.t = t_.data();
    sched::BatchInterval iv;
    iv.a = lead;
    iv.b = lead + steps;
    const double span = t_[iv.b] - t_[iv.a];
    const double dec = std::exp(-2.0 * span / cx_.tau);

    // Pick the start energy e and asymptote e_inf for the kind, then
    // express e_inf through the kernel inputs (load, delivered).
    const double load_w = rng_.uniform(1e-6, 1e-3);
    double e = rng_.uniform(0.0, cx_.e_max);
    double e_inf_target = rng_.uniform(-cx_.e_max, 2.0 * cx_.e_max);
    switch (kind) {
      case Kind::kFree:
        break;
      case Kind::kNearGate: {
        // Asymptote on one side of e_use, end energy z a hair from it
        // on either side; solve for the start energy.
        const bool drain = rng_.uniform() < 0.5;
        e_inf_target = drain ? rng_.uniform(-cx_.e_use, 0.9 * cx_.e_use)
                             : rng_.uniform(1.1 * cx_.e_use, 3.0 * cx_.e_max);
        const double rel = std::pow(10.0, rng_.uniform(-15.0, -6.0));
        const double z = cx_.e_use * (1.0 + (rng_.uniform() < 0.5 ? rel : -rel));
        e = e_inf_target + (z - e_inf_target) / dec;
        if (e < 0.0 || e > cx_.e_max) return;  // unreachable start state
        break;
      }
      case Kind::kAtGate:
        e = cx_.e_use;
        break;
      case Kind::kClampLow:
        e = rng_.uniform(0.0, cx_.e_use);
        e_inf_target = -rng_.uniform(1.0, 1e3) * cx_.e_max;
        break;
      case Kind::kClampHigh:
        e = rng_.uniform(cx_.e_use, cx_.e_max);
        e_inf_target = rng_.uniform(1.0, 1e3) * cx_.e_max;
        break;
    }
    const bool usable = e >= cx_.e_use;
    const double net = 2.0 * e_inf_target / cx_.tau;
    const double delivered = net + (usable ? load_w : 0.0);
    const double oh_drain = 0.0;

    // The kernels' closed form, exactly as advance_span computes it.
    const double e_inf = 0.5 * (delivered - oh_drain - (usable ? load_w : 0.0)) * cx_.tau;
    const double z = e_inf + (e - e_inf) * dec;

    Store start;
    start.e = e;
    start.served = rng_.uniform(0.0, 10.0);
    start.brown_t = rng_.uniform(0.0, 1e4);
    start.brown_steps = static_cast<std::uint32_t>(rng_.next_u64() % 1000);
    Store slow = start;
    advance_slow(cx_, iv, load_w, delivered, oh_drain, dec,
                 SlowRefs{slow.e, slow.served, slow.brown_t, slow.brown_steps, slow.flips,
                          slow.slow});

    if (!closed_form_ok(e, e_inf, z, cx_.e_use, kCrossingGuard)) {
      ++tally.slow;
      return;
    }
    ++tally.closed;
    if (z < 0.0 || z > cx_.e_max) ++tally.clamped;
    Store fast = start;
    fast.e = std::clamp(z, 0.0, cx_.e_max);
    if (usable) {
      fast.served += load_w * span;
    } else {
      fast.brown_steps += steps;
      fast.brown_t += span;
    }
    ASSERT_EQ(slow.flips, 0u) << "closed form taken across a usable() flip: e=" << e
                              << " e_inf=" << e_inf << " z=" << z << " e_use=" << cx_.e_use;
    ASSERT_TRUE(same_bits(fast.e, slow.e)) << fast.e << " vs " << slow.e;
    ASSERT_TRUE(same_bits(fast.served, slow.served));
    ASSERT_TRUE(same_bits(fast.brown_t, slow.brown_t));
    ASSERT_EQ(fast.brown_steps, slow.brown_steps);
  }

 private:
  Rng rng_;
  EnvContext cx_;
  std::vector<double> t_;
};

Tally run_many(Kind kind, int n, std::uint64_t seed) {
  AdvanceProperty prop(seed);
  Tally tally;
  for (int i = 0; i < n && !::testing::Test::HasFatalFailure(); ++i) prop.run(kind, tally);
  return tally;
}

TEST(SoaAdvance, ClosedFormMatchesSlowPathOnRandomIntervals) {
  const Tally t = run_many(Kind::kFree, 20000, 11);
  EXPECT_GT(t.closed, 15000);
  EXPECT_GT(t.slow, 0);
}

TEST(SoaAdvance, ClosedFormMatchesSlowPathNearTheGate) {
  // Ends 1e-15..1e-6 relative of e_use: the helper must defer inside the
  // guard band and stay exact just outside it.
  const Tally t = run_many(Kind::kNearGate, 40000, 12);
  EXPECT_GT(t.closed, 5000);
  EXPECT_GT(t.slow, 5000);
}

TEST(SoaAdvance, StoreExactlyAtTheGateTakesSlowPath) {
  const Tally t = run_many(Kind::kAtGate, 2000, 13);
  EXPECT_EQ(t.closed, 0);
  EXPECT_EQ(t.slow, 2000);
}

TEST(SoaAdvance, ClosedFormMatchesSlowPathWhenClamped) {
  const Tally low = run_many(Kind::kClampLow, 5000, 14);
  const Tally high = run_many(Kind::kClampHigh, 5000, 15);
  EXPECT_GT(low.clamped, 100);
  EXPECT_GT(high.clamped, 100);
}

TEST(SoaAdvance, GuardBandIsSymmetricAndRelative) {
  const double e_use = 1.0;
  // Draining from above toward 0: band = 1e-9 * (1.5 + 0).
  EXPECT_TRUE(closed_form_ok(1.5, 0.0, 1.0 + 2e-9, e_use, kCrossingGuard));
  EXPECT_FALSE(closed_form_ok(1.5, 0.0, 1.0 + 1e-9, e_use, kCrossingGuard));
  EXPECT_FALSE(closed_form_ok(1.5, 0.0, 1.0 - 1e-9, e_use, kCrossingGuard));
  // Charging from below toward 3: band = 1e-9 * (2.5 + 3).
  EXPECT_TRUE(closed_form_ok(0.5, 3.0, 1.0 - 6e-9, e_use, kCrossingGuard));
  EXPECT_FALSE(closed_form_ok(0.5, 3.0, 1.0 - 5e-9, e_use, kCrossingGuard));
  // At the gate, or NaN, always defers.
  EXPECT_FALSE(closed_form_ok(1.0, 0.0, 0.5, e_use, kCrossingGuard));
  EXPECT_FALSE(closed_form_ok(std::nan(""), 0.0, 0.5, e_use, kCrossingGuard));
}

}  // namespace
}  // namespace focv::fleet::soa::internal
