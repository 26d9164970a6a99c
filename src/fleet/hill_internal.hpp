// Interface between the hill-climber lane dispatch (hill.cpp, baseline
// ISA) and the lane kernel (hill_lanes.cpp, one object per lane width,
// built like soa_lanes.cpp). Plain data and one function pointer: the
// kernel objects use the controller and store headers for their Params
// and State types only and call none of their inline functions; of the
// curve cache they read the exported CurveTable and call only the
// always-inlined key certificate (CurveCache::key_term, certified_key).
// So no wide-ISA copy of a shared inline function can be left behind,
// and the call crosses the ISA boundary with scalar and pointer
// arguments only.
#pragma once

#include <cstddef>
#include <cstdint>

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

/// A lane's span is done and no further span follows.
inline constexpr std::size_t kDone = static_cast<std::size_t>(-1);

/// One node in a lane: its constants, the state a lean tick carries,
/// and the span [a, b) its planner asked to tick. Only the state of
/// its group's law is live. The lane owns it for the node's whole day:
/// the planner never steps a per-step law outside a tick span.
struct LaneNode {
  double scale = 0.0;   ///< NodeConfig::lux_scale
  double xoff = 0.0;    ///< CurveCache::key_term(scale): the node's share of every curve key
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
  const node::CurveTable::SlotF* slot_f = nullptr;  ///< [slots]
  const double* power = nullptr;                    ///< [slot * points + m]
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
