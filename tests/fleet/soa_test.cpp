// Equivalence and determinism contract of the struct-of-arrays fleet
// engine (fleet/soa.hpp) against the per-node engine it accelerates.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "env/profiles.hpp"
#include "fleet/fleet.hpp"
#include "node/harvester_node.hpp"
#include "obs/obs.hpp"
#include "pv/cell_library.hpp"

namespace focv::fleet {
namespace {

FleetOptions jobs1() {
  FleetOptions opt;
  opt.jobs = 1;
  return opt;
}

/// Mixed-policy fleet over the paper's two measured day shapes. The
/// roster deliberately mixes batchable axes (focv closed form, pilot
/// memoryless) with a per-node fallback axis (direct tracks the store).
FleetSpec day_spec(std::size_t nodes, bool with_fallback = true) {
  FleetSpec spec;
  spec.node_count = nodes;
  spec.root_seed = 2026;
  spec.chunk_size = 64;
  spec.use_cell(pv::sanyo_am1815());
  spec.base.stepper = node::Stepper::kEvent;
  spec.base.storage.initial_voltage = 2.4;
  spec.base.load.report_period = 120.0;
  env::OfficeDayParams office;
  office.duration = 6.0 * 3600.0;
  spec.add_environment("office", env::office_desk_mixed(office), 0.6);
  spec.add_environment("sunday", env::desk_sunday_blinds_closed(7), 0.4);
  if (with_fallback) {
    spec.add_policy("focv", 0.6);
    spec.add_policy("pilot", 0.2);
    spec.add_policy("direct", 0.2);
  } else {
    spec.add_policy("focv", 0.7);
    spec.add_policy("pilot", 0.2);
    spec.add_policy("fixed", 0.1);
  }
  return spec;
}

double rel_err(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  if (scale == 0.0) return 0.0;
  return std::abs(a - b) / scale;
}

TEST(FleetSoa, MatchesPerNodeEngineWithinEventContract) {
  FleetSpec per_node = day_spec(96);
  // A memoryless law with no closed form: SoA runs it through the
  // cloned prototype's step(), on the scalar kernel.
  per_node.add_policy("photo", 0.2);
  FleetSpec soa = per_node;
  soa.engine = FleetEngine::kSoa;

  const FleetReport a = run_fleet(per_node, jobs1());
  const FleetReport b = run_fleet(soa, jobs1());

  ASSERT_EQ(a.nodes_ok, b.nodes_ok);
  ASSERT_EQ(a.nodes_failed, 0u);
  // Fleet-level energy totals stay inside the event stepper's 0.1 %
  // equivalence band.
  EXPECT_LT(rel_err(a.harvested_j, b.harvested_j), 1e-3);
  EXPECT_LT(rel_err(a.delivered_j, b.delivered_j), 1e-3);
  EXPECT_LT(rel_err(a.ideal_mpp_j, b.ideal_mpp_j), 1e-3);
  EXPECT_LT(rel_err(a.load_served_j, b.load_served_j), 1e-3);
  EXPECT_LT(rel_err(a.net_j, b.net_j), 2e-3);
  EXPECT_LT(rel_err(a.overhead_j, b.overhead_j), 1e-3);
  EXPECT_LT(std::abs(a.efficiency_sum - b.efficiency_sum),
            1e-3 * static_cast<double>(a.nodes_ok));

  // Per-axis totals hold the same bound (nothing hides in mixture
  // cancellation), and the fallback axis is not merely close — those
  // nodes run the per-node engine inside the SoA chunks, byte for byte.
  ASSERT_EQ(a.policies.size(), b.policies.size());
  for (std::size_t i = 0; i < a.policies.size(); ++i) {
    const PolicyAggregate& pa = a.policies[i];
    const PolicyAggregate& pb = b.policies[i];
    ASSERT_EQ(pa.nodes, pb.nodes);
    EXPECT_LT(rel_err(pa.harvested_j, pb.harvested_j), 1e-3) << pa.policy;
    EXPECT_LT(std::abs(pa.efficiency_sum - pb.efficiency_sum),
              1e-3 * static_cast<double>(pa.nodes) + 1e-12)
        << pa.policy;
    if (pa.policy == "direct") {
      EXPECT_DOUBLE_EQ(pa.harvested_j, pb.harvested_j);
      EXPECT_DOUBLE_EQ(pa.net_j, pb.net_j);
      EXPECT_DOUBLE_EQ(pa.efficiency_sum, pb.efficiency_sum);
    }
  }
}

TEST(FleetSoa, AllFallbackRosterIsByteIdenticalToPerNode) {
  // No batchable axis at all: the SoA engine must degrade to exactly
  // the per-node engine, not an approximation of it.
  FleetSpec per_node = day_spec(24);
  per_node.policies.clear();
  per_node.add_policy("direct", 0.5);
  per_node.add_policy("pando", 0.5);
  FleetSpec soa = per_node;
  soa.engine = FleetEngine::kSoa;

  const FleetReport a = run_fleet(per_node, jobs1());
  const FleetReport b = run_fleet(soa, jobs1());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(FleetSoa, TelemetryOnOffIsByteIdenticalAndCountsTheSweep) {
  // The observe-only contract at fleet scale: enabling focv::obs must
  // not perturb a single exported byte, while the SoA sweep's aggregate
  // counters report real work. The mixed roster exercises both the
  // batched axes and the per-node fallback axis under telemetry.
  FleetSpec spec = day_spec(96);
  spec.engine = FleetEngine::kSoa;
  const std::string off = run_fleet(spec, jobs1()).to_json();

  obs::reset_all();
  std::string on;
  {
    obs::ScopedEnable scoped;
    on = run_fleet(spec, jobs1()).to_json();
  }
  EXPECT_EQ(off, on);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.nodes_swept"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.intervals_swept"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.nodes_batched"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.nodes_fallback"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("fleet.soa.plans_built"), 0.0);
  EXPECT_GT(obs::metrics().counter_value("sched.batch.builds"), 0.0);
  // Batched + fallback partitions the fleet exactly.
  EXPECT_EQ(obs::metrics().counter_value("fleet.soa.nodes_batched") +
                obs::metrics().counter_value("fleet.soa.nodes_fallback"),
            96.0);
  obs::reset_all();
}

TEST(FleetSoa, ByteIdenticalAcrossWorkerCounts) {
  FleetSpec spec = day_spec(10000, /*with_fallback=*/false);
  spec.chunk_size = 512;
  spec.engine = FleetEngine::kSoa;

  FleetOptions threaded;
  threaded.jobs = 4;
  const FleetReport a = run_fleet(spec, jobs1());
  const FleetReport b = run_fleet(spec, threaded);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.nodes_failed, 0u);
}

}  // namespace
}  // namespace focv::fleet
