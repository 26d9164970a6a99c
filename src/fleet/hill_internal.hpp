// Interface between the hill-climber lane dispatch (hill.cpp, baseline
// ISA) and the lane kernel (hill_lanes.cpp, one object per lane width,
// built like soa_lanes.cpp). Plain data and one function pointer: the
// kernel objects use the controller and store headers for their Params
// and State types only and call none of their inline functions, so no
// wide-ISA copy of one can be left behind, and the call crosses the ISA
// boundary with scalar and pointer arguments only.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "mppt/baselines.hpp"
#include "mppt/gradient_descent.hpp"
#include "node/curve_cache.hpp"
#include "power/converter.hpp"
#include "power/storage.hpp"
#include "sched/node_run.hpp"

namespace focv::fleet::hill {

/// The update law a lane group runs.
enum class Law : std::uint8_t {
  kGradientDescent,  ///< laws::graddesc_step, as GradientDescentController::step
  kPerturbObserve,   ///< laws::pando_step, as HillClimbingController::step
};

/// Curve keys in the lanes are certified only below this bound on
/// |32 ln y| (y < 8.9e6): there std::log's 1-ulp error stays within
/// the budget hill_lanes.cpp's point 1 sets out.
inline constexpr double kKeyLogBound = 512.0;

/// 32 ln(y) on CurveCache's grid, or NaN outside the certified range
/// (a NaN term fails the certificate, so such a lane takes the log of
/// its own lux instead). Internal linkage: each object keeps its own
/// copy, built for its own ISA.
static inline double key_log(double y) {
  const double x = node::CurveCache::kGridNodesPerLogLux * std::log(y);
  return x > -kKeyLogBound && x < kKeyLogBound ? x : std::numeric_limits<double>::quiet_NaN();
}

/// A lane's span is done and no further span follows.
inline constexpr std::size_t kDone = static_cast<std::size_t>(-1);

/// One node in a lane: its constants, the state a lean tick carries,
/// and the span [a, b) its planner asked to tick. Only the state of
/// its group's law is live. The lane owns it for the node's whole day:
/// the planner never steps a per-step law outside a tick span.
struct LaneNode {
  double scale = 0.0;   ///< NodeConfig::lux_scale
  double xoff = 0.0;    ///< key_log(scale): the node's share of every curve key
  double load_w = 0.0;  ///< period-average load [W]
  sched::TickState tick;
  double brownout_steps = 0.0;  ///< browned-out steps of the current span
  mppt::GradientDescentController::State graddesc{};
  mppt::HillClimbingController::State pando{};
  std::size_t a = kDone;
  std::size_t b = kDone;
  void* owner = nullptr;  ///< hill.cpp's record of this node
};

/// Everything a lane group shares: the environment's trace and dense
/// curve table, the axis' law, and the converter and store models.
struct GroupContext {
  const double* t = nullptr;   ///< trace step boundaries
  const double* eq = nullptr;  ///< unscaled equivalent lux per step
  /// soa::DenseTables::slot_f as doubles: {voc, pmpp, 1/voc} per slot.
  const double* slot_f = nullptr;
  const double* power = nullptr;  ///< [slot * points + m]
  long grid_lo = 0;
  int slots = 0;
  int points = 0;

  Law law = Law::kGradientDescent;
  mppt::GradientDescentController::Params graddesc;  ///< the law's, when graddesc
  mppt::HillClimbingController::Params pando;        ///< the law's, when P&O
  double overhead = 0.0;  ///< controller overhead power [W]
  double min_lux = 0.0;   ///< supply floor

  power::BuckBoostConverter::Params converter;
  power::Supercapacitor::Params storage;
  double max_energy = 0.0;  ///< Supercapacitor::max_energy()

  /// Called when a lane finishes its span: hands the node back to its
  /// planner and fills in the next span, or returns false (a = b =
  /// kDone) when the node's run is over or failed.
  bool (*resume)(LaneNode& node) = nullptr;
};

/// Ticks up to W nodes of one group in lockstep over the shared trace
/// until every node's run is over. nodes[0..count) must arrive with
/// their first span set (or a = kDone). Each step of a node is the
/// lean scalar tick's arithmetic bit for bit (see hill_lanes.cpp).
template <int W>
void tick_lanes(const GroupContext& cx, LaneNode* const* nodes, std::size_t count);
template <>
void tick_lanes<4>(const GroupContext& cx, LaneNode* const* nodes, std::size_t count);
template <>
void tick_lanes<8>(const GroupContext& cx, LaneNode* const* nodes, std::size_t count);

}  // namespace focv::fleet::hill
