// Correctness contract of the event-driven macro-stepper (focv::sched):
// for every supported configuration, NodeConfig::stepper = kEvent must
// reproduce the fixed-step reference trajectory's energy accounting
// within 0.1 % while taking at least an order of magnitude fewer steps.
// The fixed path is the ground truth; these tests are what licenses the
// fleet/sweep tiers to run on events by default-compatible opt-in.
// Per-step-only hill-climbers are held to more: their lit steps replay
// the fixed loop bit for bit, so harvest and brown-out counts are exact.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/focv_system.hpp"
#include "env/profiles.hpp"
#include "fleet/fleet.hpp"
#include "mppt/baselines.hpp"
#include "node/harvester_node.hpp"
#include "obs/obs.hpp"
#include "pv/cell_library.hpp"

namespace focv {
namespace {

constexpr double kRelBound = 1e-3;  // the 0.1 % equivalence contract

double rel(double a, double b) {
  const double d = std::abs(a - b);
  const double m = std::max(std::abs(a), std::abs(b));
  return m > 1e-12 ? d / m : 0.0;
}

node::NodeConfig base_config() {
  node::NodeConfig cfg;
  cfg.use_cell(pv::sanyo_am1815());
  cfg.use_controller(core::make_paper_controller());
  cfg.storage.initial_voltage = 3.0;
  return cfg;
}

struct Pair {
  node::NodeReport fixed;
  node::NodeReport event;
};

Pair run_both(const env::LightTrace& trace, node::NodeConfig cfg) {
  Pair p;
  cfg.stepper = node::Stepper::kFixed;
  p.fixed = node::simulate_node(trace, cfg);
  cfg.stepper = node::Stepper::kEvent;
  p.event = node::simulate_node(trace, cfg);
  return p;
}

void expect_equivalent(const Pair& p, double min_compression) {
  EXPECT_LE(rel(p.fixed.harvested_energy, p.event.harvested_energy), kRelBound);
  EXPECT_LE(rel(p.fixed.delivered_energy, p.event.delivered_energy), kRelBound);
  EXPECT_LE(rel(p.fixed.overhead_energy, p.event.overhead_energy), kRelBound);
  EXPECT_LE(rel(p.fixed.load_energy_served, p.event.load_energy_served), kRelBound);
  EXPECT_LE(rel(p.fixed.ideal_mpp_energy, p.event.ideal_mpp_energy), kRelBound);
  EXPECT_LE(std::abs(p.fixed.final_store_voltage - p.event.final_store_voltage), 5e-3);
  // The point of the engine: the same day in far fewer steps.
  ASSERT_GT(p.event.steps, 0u);
  EXPECT_GE(static_cast<double>(p.fixed.steps) / static_cast<double>(p.event.steps),
            min_compression);
  EXPECT_GT(p.event.events, 0u);
  EXPECT_EQ(p.fixed.events, 0u);  // the fixed path reports no events
}

TEST(SchedEquivalence, IndoorConstant200Lux) {
  const env::LightTrace trace = env::constant_light(200.0, 0.0, 86400.0);
  const Pair p = run_both(trace, base_config());
  expect_equivalent(p, 10.0);
}

TEST(SchedEquivalence, OfficeDay) {
  const env::LightTrace trace = env::office_desk_mixed(env::OfficeDayParams{});
  const Pair p = run_both(trace, base_config());
  expect_equivalent(p, 10.0);
  // Brown-out accounting must agree too (the office day has none, which
  // must hold on both paths).
  EXPECT_NEAR(p.fixed.brownout_time, p.event.brownout_time, 2.0);
}

TEST(SchedEquivalence, OutdoorDay) {
  const env::LightTrace trace = env::outdoor_day({});
  const Pair p = run_both(trace, base_config());
  expect_equivalent(p, 10.0);
}

TEST(SchedEquivalence, ColdStartFromDeadStore) {
  // A dead store + cold-start supervisor exercises the engine's
  // certification fallback: until the supervisor fires, segments run
  // step by step and the reported cold-start instant must be exact. The
  // per-step fallback means compression is modest here by design — the
  // contract is correctness, not speed.
  env::LightTrace trace = env::office_desk_mixed(env::OfficeDayParams{});
  node::NodeConfig cfg = base_config();
  cfg.coldstart = power::ColdStartCircuit::Params{};
  cfg.storage.initial_voltage = 0.0;
  const Pair p = run_both(trace, cfg);
  expect_equivalent(p, 1.5);
  EXPECT_DOUBLE_EQ(p.fixed.coldstart_time, p.event.coldstart_time);
  EXPECT_NEAR(p.fixed.brownout_time, p.event.brownout_time, 2.0);
}

TEST(SchedEquivalence, BaselineControllersStayInContract) {
  const env::LightTrace trace = env::office_desk_mixed(env::OfficeDayParams{});
  node::NodeConfig fixedv = base_config();
  fixedv.use_controller(mppt::FixedVoltageController(mppt::FixedVoltageController::Params{}));
  expect_equivalent(run_both(trace, fixedv), 10.0);

  node::NodeConfig direct = base_config();
  direct.use_controller(
      mppt::DirectConnectionController(mppt::DirectConnectionController::Params{}));
  expect_equivalent(run_both(trace, direct), 10.0);
}

// --- Per-step-only hill-climbers (MacroLaw::kPerStepOnly) -------------
// A span wholly under the controller's supply floor runs as one store
// interval (the fixed loop makes no step() call there); every other step
// is replayed with the fixed loop's own curve arithmetic. Harvest,
// delivery, overhead and brown-out steps therefore match kFixed exactly;
// only the gated spans' ideal MPP (quadrature) and store drift (closed
// form) are approximations, held to the 0.1 % contract.

const env::LightTrace& office_trace() {
  static const env::LightTrace trace = env::office_desk_mixed(env::OfficeDayParams{});
  return trace;
}

const env::LightTrace& outdoor_trace() {
  static const env::LightTrace trace = env::outdoor_day({});
  return trace;
}

struct HillScene {
  std::string name;
  const env::LightTrace* trace;
  double lux_scale;
  bool heavy_load;  ///< tiny store + 10 s reports: browns out inside gated spans
};

std::vector<HillScene> hill_scenes() {
  return {{"office", &office_trace(), 1.0, false},
          {"corridor", &office_trace(), 0.65, false},
          // Lifts the office day across the 1500 lux P&O/inccond floor
          // mid-segment.
          {"office_x1.31", &office_trace(), 1.31, false},
          {"outdoor", &outdoor_trace(), 1.0, false},
          {"office_heavy_load", &office_trace(), 1.0, true},
          {"outdoor_heavy_load", &outdoor_trace(), 1.0, true}};
}

node::NodeConfig hill_config(const std::string& spec, const HillScene& scene) {
  node::NodeConfig cfg = base_config();
  cfg.use_controller(spec);
  cfg.lux_scale = scene.lux_scale;
  if (scene.heavy_load) {
    cfg.storage.capacitance = 0.05;
    cfg.load.report_period = 10.0;
  }
  return cfg;
}

TEST(SchedEquivalence, HillClimbersReplayFixedStepExactly) {
  for (const char* spec : {"pando", "inccond", "periodic", "graddesc"}) {
    for (const HillScene& scene : hill_scenes()) {
      SCOPED_TRACE(std::string(spec) + " / " + scene.name);
      const Pair p = run_both(*scene.trace, hill_config(spec, scene));
      EXPECT_EQ(p.fixed.harvested_energy, p.event.harvested_energy);
      EXPECT_EQ(p.fixed.delivered_energy, p.event.delivered_energy);
      EXPECT_EQ(p.fixed.overhead_energy, p.event.overhead_energy);
      EXPECT_EQ(p.fixed.brownout_steps, p.event.brownout_steps);
      EXPECT_LE(rel(p.fixed.ideal_mpp_energy, p.event.ideal_mpp_energy), kRelBound);
      EXPECT_LE(rel(p.fixed.load_energy_served, p.event.load_energy_served), kRelBound);
      EXPECT_LE(rel(p.fixed.final_store_voltage, p.event.final_store_voltage), kRelBound);
      // Gated spans are skipped, not ticked.
      EXPECT_GT(p.event.events, 0u);
      EXPECT_LT(p.event.steps, scene.trace->size() - 1);
      if (scene.heavy_load) {
        EXPECT_GT(p.fixed.brownout_steps, 0);
      }
    }
  }
}

TEST(SchedEquivalence, HillClimberEventRunCountsCurveHitsAndMisses) {
  // The event stepper reports node.curve.hits/misses with the fixed
  // path's definition, so a fleet with no fixed-path node left still
  // has a curve hit ratio. A fresh cache on the outdoor day both builds
  // entries (misses) and serves far more lit-step lookups (hits).
  node::NodeConfig cfg = base_config();
  cfg.use_controller("pando");
  cfg.stepper = node::Stepper::kEvent;
  obs::reset_all();
  {
    obs::ScopedEnable scoped;
    const node::NodeReport r = node::simulate_node(outdoor_trace(), cfg);
    ASSERT_GT(r.events, 0u);  // took the event engine
  }
  EXPECT_GT(obs::metrics().counter_value("node.curve.hits"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("node.curve.misses"), 0.0);
  obs::reset_all();
}

// --- Supply-floor runs ------------------------------------------------
// A ratio-band segment that straddles the controller's supply floor is
// split into maximal runs on one side of it, at the fixed loop's own
// running gate. The gated runs are store intervals and the lit ones
// macro-step, so memoryless laws tick no step at all on these days.

const env::LightTrace& semi_mobile_trace() {
  static const env::LightTrace trace = env::semi_mobile_day();
  return trace;
}

// sched.fallback_steps of one event run: NodeReport does not carry it.
double event_fallback_steps(const env::LightTrace& trace, node::NodeConfig cfg) {
  cfg.stepper = node::Stepper::kEvent;
  obs::reset_all();
  {
    obs::ScopedEnable scoped;
    (void)node::simulate_node(trace, cfg);
  }
  const double steps = obs::metrics().counter_value("sched.fallback_steps");
  obs::reset_all();
  return steps;
}

TEST(SchedEquivalence, SupplyFloorRunsMacroStep) {
  struct Day {
    std::string name;
    const env::LightTrace* trace;
  };
  const std::vector<Day> days = {{"office", &office_trace()},
                                 {"semi_mobile", &semi_mobile_trace()},
                                 {"outdoor", &outdoor_trace()}};
  for (const char* spec : {"fixed", "fixed[v=3.02]", "pilot", "pilot[k=0.61]", "photo", "focv"}) {
    const std::string law(spec);
    for (const Day& day : days) {
      for (const double lux_scale : {0.65, 1.0, 1.31}) {
        // Out of contract before floor runs existed and not moved by them
        // (ROADMAP, defect (a)): harvest and delivery off by ~1.0e-3.
        if (law == "photo" && day.name == "outdoor" && lux_scale == 0.65) continue;
        for (const double store_v : {3.0, 0.0}) {
          SCOPED_TRACE(law + " / " + day.name + " x" + std::to_string(lux_scale) + " / store " +
                       std::to_string(store_v));
          node::NodeConfig cfg = base_config();
          cfg.use_controller(law);
          cfg.lux_scale = lux_scale;
          cfg.storage.initial_voltage = store_v;
          const Pair p = run_both(*day.trace, cfg);
          EXPECT_LE(rel(p.fixed.harvested_energy, p.event.harvested_energy), kRelBound);
          EXPECT_LE(rel(p.fixed.delivered_energy, p.event.delivered_energy), kRelBound);
          EXPECT_LE(rel(p.fixed.overhead_energy, p.event.overhead_energy), kRelBound);
          EXPECT_LE(rel(p.fixed.load_energy_served, p.event.load_energy_served), kRelBound);
          EXPECT_LE(rel(p.fixed.ideal_mpp_energy, p.event.ideal_mpp_energy), kRelBound);
          // Memoryless laws without a cold-start supervisor never tick.
          // Above unit scale the night's dark-merged segment crosses
          // CurveCache::kDarkLux and still ticks, whatever the law.
          if (law != "focv" && lux_scale <= 1.0) {
            EXPECT_EQ(event_fallback_steps(*day.trace, cfg), 0.0);
          }
          // The days that used to tick through every straddling segment.
          if (lux_scale == 1.0 && store_v == 3.0) {
            if (law == "pilot" && day.name == "office") {
              EXPECT_LE(p.event.steps, 300u);
            }
            if (law == "fixed" && day.name == "semi_mobile") {
              EXPECT_LE(p.event.steps, 600u);
            }
            if (law == "pilot" && day.name == "semi_mobile") {
              EXPECT_LE(p.event.steps, 1000u);
            }
          }
        }
      }
    }
  }
}

// --- Full-store intervals ----------------------------------------------
// A store-tracking law on a full supercapacitor under net inflow runs at
// the clamped store voltage, so its intervals are floored at 60 s there
// instead of being sliced by the drift guard (~2 s outdoors).

TEST(SchedEquivalence, FullStoreMacroStepsStoreTrackingLaws) {
  struct Day {
    std::string name;
    const env::LightTrace* trace;
  };
  const std::vector<Day> days = {{"office", &office_trace()},
                                 {"outdoor", &outdoor_trace()},
                                 {"semi_mobile", &semi_mobile_trace()}};
  // desk_sunday_blinds_closed() with an empty store is left out: it is
  // out of contract (~2e-3) before and after this rule, because an empty
  // store never pins (ROADMAP, defect (a)).
  for (const char* spec : {"direct", "direct[drop=0.4V]"}) {
    const std::string law(spec);
    for (const Day& day : days) {
      for (const double lux_scale : {0.65, 1.0, 1.31}) {
        for (const double store_v : {3.0, 2.5}) {
          // Out of contract before this rule and not moved by it (ROADMAP,
          // defect (a)): harvest off by 1.17e-3.
          if (law == "direct[drop=0.4V]" && day.name == "office" && lux_scale == 1.31 &&
              store_v == 3.0) {
            continue;
          }
          SCOPED_TRACE(law + " / " + day.name + " x" + std::to_string(lux_scale) + " / store " +
                       std::to_string(store_v));
          node::NodeConfig cfg = base_config();
          cfg.use_controller(law);
          cfg.lux_scale = lux_scale;
          cfg.storage.initial_voltage = store_v;
          const Pair p = run_both(*day.trace, cfg);
          EXPECT_LE(rel(p.fixed.harvested_energy, p.event.harvested_energy), kRelBound);
          EXPECT_LE(rel(p.fixed.delivered_energy, p.event.delivered_energy), kRelBound);
          EXPECT_LE(rel(p.fixed.overhead_energy, p.event.overhead_energy), kRelBound);
          EXPECT_LE(rel(p.fixed.load_energy_served, p.event.load_energy_served), kRelBound);
          EXPECT_LE(rel(p.fixed.ideal_mpp_energy, p.event.ideal_mpp_energy), kRelBound);
          EXPECT_LE(std::abs(p.fixed.final_store_voltage - p.event.final_store_voltage), 5e-3);
          // The outdoor day pins the store for ~9 h; 2 s slicing read
          // ~20.7 k event steps there.
          if (law == "direct" && day.name == "outdoor" && lux_scale == 1.0 && store_v == 3.0) {
            EXPECT_LE(p.event.steps, 2000u);
          }
        }
      }
    }
  }
}

// --- Load-burst resolution ----------------------------------------------
// EventOptions::resolve_load_bursts advances the store in continuous time
// between load burst edges. On the office day a 3.0 V store drains to the
// 1.8 V usable() threshold, where the inflow lies between the net power
// with the load and without it, so each usable() flip would flip back
// within nanoseconds without end. A flip holds to the next step
// boundary, as tick mode tests usable() only at step starts, so a step
// sees at most one flip and the run finishes.

TEST(SchedEquivalence, LoadBurstRunsFinishAtTheUsableThreshold) {
  const std::size_t trace_steps = office_trace().size() - 1;
  for (const char* spec : {"direct", "pilot"}) {
    SCOPED_TRACE(spec);
    node::NodeConfig cfg = base_config();
    cfg.use_controller(spec);
    cfg.stepper = node::Stepper::kEvent;
    cfg.events.resolve_load_bursts = true;
    const node::NodeReport r = node::simulate_node(office_trace(), cfg);
    EXPECT_GT(r.events, 0u);
    EXPECT_LE(r.events, trace_steps);
    EXPECT_GT(r.brownout_time, 0.0);  // the store does reach the threshold
    EXPECT_LT(r.brownout_time, r.duration);
  }
}

fleet::FleetSpec fleet_spec(node::Stepper stepper) {
  static const auto trace = std::make_shared<const env::LightTrace>(
      env::office_desk_mixed(env::OfficeDayParams{}));
  fleet::FleetSpec fs;
  fs.node_count = 16;
  fs.use_cell(pv::sanyo_am1815());
  fs.add_environment("office", trace);
  fs.add_policy("focv", 0.5);
  fs.add_policy("fixed", 0.25);
  fs.add_policy("direct", 0.25);
  fs.base.storage.initial_voltage = 3.0;
  fs.base.load.report_period = 120.0;
  fs.base.stepper = stepper;
  return fs;
}

TEST(SchedEquivalence, MixedPolicyFleetChunk) {
  fleet::FleetOptions opt;
  opt.jobs = 1;
  const fleet::FleetReport fixed = fleet::run_fleet(fleet_spec(node::Stepper::kFixed), opt);
  const fleet::FleetReport event = fleet::run_fleet(fleet_spec(node::Stepper::kEvent), opt);
  ASSERT_EQ(fixed.nodes_ok, event.nodes_ok);
  EXPECT_LE(rel(fixed.harvested_j, event.harvested_j), kRelBound);
  EXPECT_LE(rel(fixed.delivered_j, event.delivered_j), kRelBound);
  EXPECT_LE(rel(fixed.ideal_mpp_j, event.ideal_mpp_j), kRelBound);
  EXPECT_LE(rel(fixed.load_served_j, event.load_served_j), kRelBound);
  EXPECT_NEAR(fixed.mean_tracking_efficiency(), event.mean_tracking_efficiency(), 1e-3);
  EXPECT_EQ(fixed.energy_neutral_nodes, event.energy_neutral_nodes);
  ASSERT_GT(event.steps, 0u);
  EXPECT_GE(static_cast<double>(fixed.steps) / static_cast<double>(event.steps), 10.0);
}

TEST(SchedEquivalence, FleetEventCountIsDeterministicAcrossJobs) {
  // events is part of the report contract: a config + trace determines
  // it exactly, so the serial and threaded fleet paths must agree to the
  // last event.
  fleet::FleetOptions serial;
  serial.jobs = 1;
  fleet::FleetOptions threaded;
  threaded.jobs = 2;
  const fleet::FleetReport a = fleet::run_fleet(fleet_spec(node::Stepper::kEvent), serial);
  const fleet::FleetReport b = fleet::run_fleet(fleet_spec(node::Stepper::kEvent), threaded);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.model_evals, b.model_evals);
  EXPECT_DOUBLE_EQ(a.harvested_j, b.harvested_j);
  EXPECT_DOUBLE_EQ(a.delivered_j, b.delivered_j);
  EXPECT_GT(a.events, 0u);
}

TEST(SchedEquivalence, HillClimberFleetIsByteIdenticalAcrossEnginesAndJobs) {
  // A roster the SoA engine cannot batch runs every node per node on the
  // event engine, so the report bytes depend on neither the engine nor
  // the worker count.
  fleet::FleetSpec spec;
  spec.node_count = 24;
  spec.chunk_size = 4;
  spec.use_cell(pv::sanyo_am1815());
  spec.add_environment("office", office_trace(), 0.6);
  spec.add_environment("outdoor", outdoor_trace(), 0.4);
  for (const char* policy : {"pando", "inccond", "periodic", "graddesc", "direct"}) {
    spec.add_policy(policy, 0.2);
  }
  spec.base.storage.initial_voltage = 3.0;
  spec.base.load.report_period = 120.0;
  spec.base.stepper = node::Stepper::kEvent;

  std::vector<std::string> json;
  for (const fleet::FleetEngine engine : {fleet::FleetEngine::kPerNode, fleet::FleetEngine::kSoa}) {
    for (const int jobs : {1, 3}) {
      spec.engine = engine;
      fleet::FleetOptions opt;
      opt.jobs = jobs;
      json.push_back(fleet::run_fleet(spec, opt).to_json());
    }
  }
  for (std::size_t i = 1; i < json.size(); ++i) EXPECT_EQ(json[0], json[i]) << "run " << i;
  EXPECT_NE(json[0].find("\"graddesc\""), std::string::npos);
}

}  // namespace
}  // namespace focv
