// Allocation contract of the per-step hot paths: a passing require() /
// ensure() builds no message string, the store, cold-start and cell
// models allocate nothing per call, and a fixed-step run over a shared
// warm cache and PreparedTrace allocates a fixed amount per run, not
// per step.
//
// This binary replaces the global operator new with a counting version,
// so it must not be built under ASan (which owns operator new).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/require.hpp"
#include "core/focv_system.hpp"
#include "env/profiles.hpp"
#include "node/curve_cache.hpp"
#include "node/harvester_node.hpp"
#include "pv/cell_library.hpp"
#include "sched/prepared_trace.hpp"

namespace {

// Per thread, so a stray runtime thread cannot skew a reading.
thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  ++t_allocations;
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The array, nothrow and sized forms of the default library forward to
// these four, so together they count every operator-new allocation.
void* operator new(std::size_t n) { return counted_alloc(n, alignof(std::max_align_t)); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace focv {
namespace {

/// Allocations made on this thread while running f.
template <class F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = t_allocations;
  f();
  return t_allocations - before;
}

constexpr int kCalls = 10000;

/// Keeps the probe allocation observable (a new/delete pair whose
/// pointer never escapes may be elided).
double* volatile g_escape = nullptr;

TEST(Alloc, CounterSeesAllocations) {
  const std::size_t n = allocations_in([] {
    g_escape = new double[64];
    delete[] g_escape;
  });
  EXPECT_EQ(n, 1u);
}

TEST(Alloc, PassingChecksAllocateNothing) {
  const std::size_t n = allocations_in([] {
    for (int i = 0; i < kCalls; ++i) {
      require(i >= 0, "a passing precondition message well past fifteen chars");
      ensure(i >= 0, "a passing invariant message well past fifteen chars");
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(Alloc, SupercapacitorStepsAllocateNothing) {
  power::Supercapacitor::Params params;
  params.initial_voltage = 3.0;
  power::Supercapacitor cap(params);
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < kCalls; ++i) {
      cap.apply_power(i % 2 == 0 ? 1e-4 : -1e-4, 0.1);
      cap.advance_constant_power(i % 2 == 0 ? -5e-5 : 5e-5, 0.1);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(std::isfinite(cap.voltage()));
}

TEST(Alloc, BatteryStepsAllocateNothing) {
  power::Battery bat(power::Battery::Params{});
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < kCalls; ++i) bat.apply_power(i % 2 == 0 ? 1e-3 : -1e-3, 0.1);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(std::isfinite(bat.open_circuit_voltage()));
}

TEST(Alloc, ColdStartAdvanceAllocatesNothing) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  pv::Conditions c;
  c.illuminance_lux = 200.0;
  power::ColdStartCircuit cs;
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < kCalls; ++i) cs.advance(cell, c, 1e-3, 1e-6);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(std::isfinite(cs.capacitor_voltage()));
}

TEST(Alloc, CellPowerAtAllocatesNothing) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  pv::Conditions c;
  double sum = 0.0;
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < kCalls; ++i) {
      c.illuminance_lux = 50.0 + static_cast<double>(i % 100) * 10.0;
      sum += cell.power_at(2.0 + 1e-4 * static_cast<double>(i % 50), c);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(sum, 0.0);
}

/// The office day repeated back to back: twice the steps, same light.
env::LightTrace repeated(const env::LightTrace& day) {
  const std::vector<double>& t = day.time();
  const double shift = t.back() - t.front() + (t[1] - t[0]);
  env::LightTrace out;
  for (int copy = 0; copy < 2; ++copy) {
    for (std::size_t i = 0; i < day.size(); ++i) {
      out.append(t[i] + shift * copy, day.artificial_lux()[i], day.daylight_lux()[i]);
    }
  }
  return out;
}

TEST(Alloc, FixedStepRunAllocatesPerRunNotPerStep) {
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  const env::LightTrace one_day = env::office_desk_mixed();
  const env::LightTrace two_days = repeated(one_day);
  const sched::PreparedTrace prep1(one_day, cell, env::SegmentationOptions{});
  const sched::PreparedTrace prep2(two_days, cell, env::SegmentationOptions{});

  node::NodeConfig config;
  config.use_cell(cell);
  config.use_controller(core::make_paper_controller());
  config.stepper = node::Stepper::kFixed;
  config.storage.initial_voltage = 3.0;
  config.load.report_period = 120.0;
  node::CurveCache cache(cell, config.temperature_k,
                         node::CurveCache::Options{config.power_model, config.surrogate_points});

  const auto run = [&](const env::LightTrace& trace, const sched::PreparedTrace& prep) {
    return allocations_in([&] { (void)node::simulate_node(trace, config, &cache, &prep); });
  };
  // Warm the cache's entries and per-step arrays on the longer series.
  run(two_days, prep2);
  run(one_day, prep1);
  const std::size_t a1 = run(one_day, prep1);
  const std::size_t a2 = run(two_days, prep2);
  EXPECT_EQ(a1, a2) << "allocations grow with the step count";
  EXPECT_GT(one_day.size(), 1000u);
}

}  // namespace
}  // namespace focv
