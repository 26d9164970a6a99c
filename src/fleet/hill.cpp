// Hill-climber lane dispatch: eligibility, grouping and the per-node
// planners around the lockstep kernel (see hill.hpp, hill_lanes.cpp).

#include "fleet/hill.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <typeinfo>
#include <utility>

#include "fleet/detail.hpp"
#include "fleet/hill_internal.hpp"
#include "fleet/soa_internal.hpp"
#include "mppt/baselines.hpp"
#include "mppt/gradient_descent.hpp"
#include "obs/obs.hpp"
#include "sched/node_run.hpp"

namespace focv::fleet::hill {

namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// The lane law of a policy axis: its prototype's exact type decides,
/// so a subclass that overrides step() stays on the per-node path.
std::optional<Law> lane_law(const PolicyAxis& axis) {
  if (axis.prototype == nullptr) return std::nullopt;
  const std::type_info& type = typeid(*axis.prototype);
  if (type == typeid(mppt::GradientDescentController)) return Law::kGradientDescent;
  if (type == typeid(mppt::HillClimbingController)) return Law::kPerturbObserve;
  return std::nullopt;
}

/// The unscaled illuminance an environment's nodes can query: the
/// range of its lit segments, and the top of its dark-merged ones
/// (which tick once a node's scale lifts them past kDarkLux).
struct EnvRange {
  double lit_lo = std::numeric_limits<double>::infinity();
  double lit_hi = 0.0;
  double dark_hi = 0.0;
};

EnvRange env_range(const sched::PreparedTrace& prepared) {
  EnvRange r;
  for (const env::Segment& seg : prepared.segments()) {
    if (seg.dark) {
      r.dark_hi = std::max(r.dark_hi, seg.max_value);
    } else {
      r.lit_lo = std::min(r.lit_lo, seg.min_value);
      r.lit_hi = std::max(r.lit_hi, seg.max_value);
    }
  }
  return r;
}

/// True when every grid slot a node at lux scale `s` can resolve —
/// CurveCache::key_of's j and j + 1 — lies inside the dense table, so
/// the node's cache reads only entries the warm cache already built.
/// Every query of a run lies in [s * min, s * max] of the segments it
/// reads; below kDarkLux a query reads no entry. The lanes read the
/// table even for dark lanes, so it must exist.
bool covered(const EnvRange& r, const soa::DenseTables& tb, double s) {
  constexpr double kDark = node::CurveCache::kDarkLux;
  double lo = s * r.lit_lo;
  double hi = r.lit_hi > 0.0 ? s * r.lit_hi : 0.0;
  if (s * r.dark_hi >= kDark) {
    lo = kDark;
    hi = std::max(hi, s * r.dark_hi);
  }
  if (tb.slots < 2) return false;
  if (!(hi >= kDark)) return true;
  lo = std::max(lo, kDark);
  constexpr double kGrid = node::CurveCache::kGridNodesPerLogLux;
  const auto j_lo = static_cast<long>(std::floor(kGrid * std::log(lo)));
  const auto j_hi = static_cast<long>(std::floor(kGrid * std::log(hi)));
  return j_lo >= tb.grid_lo && j_hi + 1 <= tb.grid_lo + tb.slots - 1;
}

/// One lane node's planner and where its outcome goes.
struct Record {
  node::NodeConfig config;
  std::optional<sched::NodeRun> run;
  Outcome* out = nullptr;
};

/// Hands a lane back to its node's planner: takes back the span just
/// ticked (unless this is the first call) and plans up to the next
/// non-empty span, or finishes the run. A run that throws ends as a
/// failed outcome with the message the per-node path would record.
bool advance(LaneNode& lane, bool ticked) {
  Record& r = *static_cast<Record*>(lane.owner);
  try {
    if (ticked) {
      r.run->set_tick_state(lane.tick, lane.b - lane.a, static_cast<int>(lane.brownout_steps));
      lane.brownout_steps = 0.0;
    }
    sched::TickSpan span;
    while (r.run->next_ticks(span)) {
      if (span.a == span.b) continue;
      lane.tick = r.run->tick_state();
      lane.a = span.a;
      lane.b = span.b;
      return true;
    }
    r.out->report = r.run->finish();
  } catch (const std::exception& e) {
    r.out->failed = true;
    r.out->error = e.what();
  } catch (...) {
    r.out->failed = true;
    r.out->error = "unknown exception";
  }
  r.run.reset();
  lane.a = lane.b = kDone;
  return false;
}

bool resume(LaneNode& lane) { return advance(lane, true); }

}  // namespace

Lanes::Lanes(const FleetSpec& spec, const std::vector<PolicyAxis>& policies,
             const std::vector<std::optional<sched::PreparedTrace>>& prepared,
             const soa::SoaPlan& plan, const node::CurveCache& warm)
    : spec_(spec), prepared_(prepared), plan_(plan), warm_(warm), policies_(policies) {
  const node::NodeConfig& base = spec.base;
  if (obs::enabled()) return;
  if (base.stepper != node::Stepper::kEvent ||
      base.power_model != node::PowerModel::kSurrogate || base.obs_compare_exact ||
      base.battery || base.coldstart || base.events.resolve_load_bursts) {
    return;
  }
  width_ = soa::internal::lanes_width();
  if (width_ == 0) return;
  const std::size_t n_axes = policies.size();
  if (std::none_of(policies.begin(), policies.end(),
                   [](const PolicyAxis& axis) { return lane_law(axis).has_value(); })) {
    return;
  }

  std::vector<EnvRange> ranges;
  ranges.reserve(prepared.size());
  for (const auto& p : prepared) ranges.push_back(env_range(*p));

  std::vector<std::vector<Member>> groups(spec.environments.size() * n_axes);
  for (std::size_t index = 0; index < spec.node_count; ++index) {
    const NodeDraw d = detail::draw_node_prevalidated(spec, policies, index);
    if (!lane_law(policies[d.policy_index])) continue;
    // materialize_node's lux_scale, in its association.
    const double s = base.lux_scale * d.attenuation * d.cell_factor;
    if (!covered(ranges[d.env_index], plan.envs[d.env_index].tables, s)) continue;
    groups[d.env_index * n_axes + d.policy_index].push_back(
        {d, d.attenuation * d.cell_factor});
  }
  // Neighbouring scales cross the supply floor at nearly the same steps,
  // so their lit spans overlap and the lanes stay full.
  const auto w = static_cast<std::size_t>(width_);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<Member>& members = groups[g];
    std::sort(members.begin(), members.end(), [](const Member& a, const Member& b) {
      if (a.scale_key != b.scale_key) return a.scale_key < b.scale_key;
      return a.draw.node < b.draw.node;
    });
    // A batch costs about the same per step whatever its occupancy, so a
    // lone node loses to its per-node tick (EXPERIMENTS.md): a group
    // tail below kMinBatch stays on the per-node path.
    const std::size_t tail = members.size() % w;
    if (tail != 0 && tail < kMinBatch) members.resize(members.size() - tail);
    for (std::size_t k = 0; k < members.size(); k += w) {
      batches_.push_back({nodes_.size() + k, std::min(w, members.size() - k), g % n_axes});
    }
    nodes_.insert(nodes_.end(), members.begin(), members.end());
  }
  if (nodes_.empty()) return;
  slot_.assign(spec.node_count, kNoSlot);
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    slot_[nodes_[k].draw.node] = static_cast<std::uint32_t>(k);
  }
  outcomes_.resize(nodes_.size());
}

std::size_t Lanes::task_count(int executors) const {
  if (batches_.empty()) return 0;
  // Each task seeds one curve cache for its planners; a few tasks per
  // executor balance the batches' uneven lit spans.
  const std::size_t per = executors <= 1 ? 1 : 4 * static_cast<std::size_t>(executors);
  return std::min(batches_.size(), per);
}

void Lanes::run_task(std::size_t task, std::size_t task_count) {
  const node::NodeConfig& base = spec_.base;
  std::optional<node::CurveCache> cache;
  std::vector<LaneNode> lanes;
  std::vector<LaneNode*> live;
  for (std::size_t bi = task; bi < batches_.size(); bi += task_count) {
    const Batch& batch = batches_[bi];
    const std::size_t e = nodes_[batch.first].draw.env_index;
    const sched::PreparedTrace& prep = *prepared_[e];
    const env::LightTrace& trace = *spec_.environments[e].trace;
    const soa::DenseTables& tb = plan_.envs[e].tables;
    const mppt::MpptController& proto = *policies_[batch.axis].prototype;

    GroupContext cx;
    cx.t = trace.time().data();
    cx.eq = prep.eq_lux().data();
    cx.slot_f = &tb.slot_f.data()->voc;
    cx.power = tb.power.data();
    cx.grid_lo = tb.grid_lo;
    cx.slots = tb.slots;
    cx.points = tb.points;
    cx.law = *lane_law(policies_[batch.axis]);
    if (cx.law == Law::kGradientDescent) {
      cx.graddesc = static_cast<const mppt::GradientDescentController&>(proto).params();
    } else {
      cx.pando = static_cast<const mppt::HillClimbingController&>(proto).params();
    }
    cx.overhead = proto.overhead_power();
    cx.min_lux = proto.minimum_operating_lux();
    cx.converter = base.converter.params();
    cx.storage = base.storage;
    // Supercapacitor::max_energy(), in its association (a store that
    // rejects its params throws per node, in the node's own run).
    cx.max_energy =
        0.5 * base.storage.capacitance * base.storage.max_voltage * base.storage.max_voltage;
    cx.resume = &resume;

    if (!cache) {
      cache.emplace(*spec_.cell, base.temperature_k,
                    node::CurveCache::Options{base.power_model, base.surrogate_points});
      cache->seed_entries(warm_);
    }
    std::vector<Record> records(batch.count);
    lanes.assign(batch.count, LaneNode{});
    live.clear();
    for (std::size_t k = 0; k < batch.count; ++k) {
      Record& r = records[k];
      r.out = &outcomes_[batch.first + k];
      LaneNode& lane = lanes[k];
      lane.owner = &r;
      try {
        r.config = materialize_node(spec_, nodes_[batch.first + k].draw);
        r.run.emplace(trace, r.config, &*cache, &prep);
      } catch (const std::exception& ex) {
        r.out->failed = true;
        r.out->error = ex.what();
        continue;
      } catch (...) {
        r.out->failed = true;
        r.out->error = "unknown exception";
        continue;
      }
      lane.scale = r.config.lux_scale;
      lane.xoff = key_log(lane.scale);
      lane.load_w = power::WsnLoad(r.config.load).average_power();
      mppt::MpptController& ctl = r.run->controller();
      if (cx.law == Law::kGradientDescent) {
        lane.graddesc = static_cast<const mppt::GradientDescentController&>(ctl).state();
      } else {
        lane.pando = static_cast<const mppt::HillClimbingController&>(ctl).state();
      }
      if (advance(lane, false)) live.push_back(&lane);
    }
    if (live.empty()) continue;
    switch (width_) {
#if FOCV_FLEET_LANES8
      case 8:
        tick_lanes<8>(cx, live.data(), live.size());
        break;
#endif
      default:
        tick_lanes<4>(cx, live.data(), live.size());
        break;
    }
  }
}

Outcome* Lanes::outcome(std::size_t index) {
  if (slot_.empty() || slot_[index] == kNoSlot) return nullptr;
  return &outcomes_[slot_[index]];
}

}  // namespace focv::fleet::hill
