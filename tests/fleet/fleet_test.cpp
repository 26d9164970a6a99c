#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/require.hpp"
#include "env/profiles.hpp"
#include "fleet/detail.hpp"
#include "node/harvester_node.hpp"
#include "pv/cell_library.hpp"

namespace focv::fleet {
namespace {

FleetOptions serial_options() {
  FleetOptions opt;
  opt.jobs = 1;
  return opt;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

/// Small mixed fleet on short constant-light traces: fast, but still
/// exercising both environments, several policies and many chunks.
FleetSpec small_spec(std::size_t nodes) {
  FleetSpec spec;
  spec.node_count = nodes;
  spec.root_seed = 99;
  spec.chunk_size = 4;
  spec.use_cell(pv::sanyo_am1815());
  spec.add_environment("bright", env::constant_light(1200.0, 0.0, 3600.0), 0.6);
  spec.add_environment("dim", env::constant_light(180.0, 0.0, 3600.0), 0.4);
  spec.add_policy("focv", 0.7);
  spec.add_policy("pilot", 0.15);
  spec.add_policy("direct", 0.15);
  spec.base.storage.initial_voltage = 2.5;
  spec.base.load.report_period = 120.0;
  return spec;
}

TEST(FleetDraw, PureFunctionOfSpecAndIndex) {
  const FleetSpec spec = small_spec(32);
  const NodeDraw a = draw_node(spec, 7);
  const NodeDraw b = draw_node(spec, 7);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.env_index, b.env_index);
  EXPECT_EQ(a.policy_index, b.policy_index);
  EXPECT_EQ(a.attenuation, b.attenuation);
  EXPECT_EQ(a.cell_factor, b.cell_factor);
  EXPECT_EQ(a.divider_ratio, b.divider_ratio);
  EXPECT_EQ(a.report_period, b.report_period);
  EXPECT_EQ(a.burst_phase, b.burst_phase);

  // Execution-shape knobs (node_count, chunk_size) must not move draws.
  FleetSpec bigger = small_spec(32);
  bigger.node_count = 4096;
  bigger.chunk_size = 64;
  const NodeDraw c = draw_node(bigger, 7);
  EXPECT_EQ(a.seed, c.seed);
  EXPECT_EQ(a.attenuation, c.attenuation);
  EXPECT_EQ(a.burst_phase, c.burst_phase);

  // Distinct nodes get distinct streams.
  const NodeDraw d = draw_node(spec, 8);
  EXPECT_NE(a.seed, d.seed);
  EXPECT_NE(a.attenuation, d.attenuation);
}

TEST(FleetDraw, RespectsHeterogeneityRanges) {
  const FleetSpec spec = small_spec(64);
  const HeterogeneitySpec& h = spec.heterogeneity;
  for (std::size_t i = 0; i < spec.node_count; ++i) {
    const NodeDraw d = draw_node(spec, i);
    EXPECT_GE(d.attenuation, h.attenuation_min);
    EXPECT_LE(d.attenuation, h.attenuation_max);
    EXPECT_GT(d.cell_factor, 0.0);
    EXPECT_GT(d.divider_ratio, 0.0);
    EXPECT_GE(d.burst_phase, 0.0);
    EXPECT_LT(d.burst_phase, d.report_period);
    EXPECT_LT(d.env_index, spec.environments.size());
    EXPECT_LT(d.policy_index, spec.policies.size());
    const double jitter = spec.heterogeneity.load_period_jitter;
    EXPECT_GE(d.report_period, spec.base.load.report_period * (1.0 - jitter) - 1e-9);
    EXPECT_LE(d.report_period, spec.base.load.report_period * (1.0 + jitter) + 1e-9);
  }
}

TEST(FleetDraw, LockstepPhaseWhenRandomizationOff) {
  FleetSpec spec = small_spec(16);
  spec.heterogeneity.randomize_load_phase = false;
  for (std::size_t i = 0; i < spec.node_count; ++i) {
    EXPECT_EQ(draw_node(spec, i).burst_phase, 0.0);
  }
  // The phase draw is consumed either way: toggling the flag must not
  // shift any other draw.
  FleetSpec on = small_spec(16);
  EXPECT_EQ(draw_node(spec, 5).attenuation, draw_node(on, 5).attenuation);
  EXPECT_EQ(draw_node(spec, 5).report_period, draw_node(on, 5).report_period);
}

TEST(Fleet, SingleNodeFleetMatchesDirectSimulateNode) {
  FleetSpec spec = small_spec(1);
  const FleetReport fleet = run_fleet(spec, serial_options());

  const NodeDraw draw = draw_node(spec, 0);
  const node::NodeConfig config = materialize_node(spec, draw);
  const node::NodeReport direct =
      node::simulate_node(*spec.environments[draw.env_index].trace, config);

  ASSERT_EQ(fleet.nodes_ok, 1u);
  EXPECT_EQ(fleet.nodes_failed, 0u);
  EXPECT_EQ(fleet.harvested_j, direct.harvested_energy);
  EXPECT_EQ(fleet.delivered_j, direct.delivered_energy);
  EXPECT_EQ(fleet.overhead_j, direct.overhead_energy);
  EXPECT_EQ(fleet.load_served_j, direct.load_energy_served);
  EXPECT_EQ(fleet.ideal_mpp_j, direct.ideal_mpp_energy);
  EXPECT_EQ(fleet.net_j, direct.net_energy());
  EXPECT_EQ(fleet.steps, direct.steps);
  EXPECT_EQ(fleet.efficiency_sum, direct.tracking_efficiency());
  EXPECT_EQ(fleet.efficiency_min, fleet.efficiency_max);
}

TEST(Fleet, MaterializeAppliesTheDraw) {
  const FleetSpec spec = small_spec(8);
  const NodeDraw draw = draw_node(spec, 3);
  const node::NodeConfig config = materialize_node(spec, draw);
  EXPECT_EQ(config.lux_scale, draw.attenuation * draw.cell_factor);
  EXPECT_EQ(config.load.report_period, draw.report_period);
  EXPECT_EQ(config.load.burst_phase, draw.burst_phase);
  EXPECT_FALSE(config.record_traces);
  ASSERT_NE(config.cell_model, nullptr);
  ASSERT_NE(config.controller_prototype, nullptr);
}

TEST(Fleet, DefaultMixtureKeepsItsHistoricalLabel) {
  // A spec with no add_policy call deploys "focv" everywhere under the
  // pre-registry label "focv_sample_hold" — part of the focv-fleet/v1
  // bytes, in the report and in every JSONL record, on both engines.
  const std::string label = "\"policy\": \"focv_sample_hold\"";
  for (const FleetEngine engine : {FleetEngine::kPerNode, FleetEngine::kSoa}) {
    FleetSpec spec = small_spec(10);
    spec.policies.clear();
    spec.engine = engine;
    FleetOptions opt = serial_options();
    opt.jsonl_path = ::testing::TempDir() + "/fleet_default_mixture.jsonl";
    const FleetReport report = run_fleet(spec, opt);
    const char* engine_name = engine == FleetEngine::kSoa ? "soa" : "per-node";

    ASSERT_EQ(report.policies.size(), 1u) << engine_name;
    EXPECT_EQ(report.policies[0].policy, "focv_sample_hold") << engine_name;
    EXPECT_NE(report.to_json().find(label), std::string::npos) << engine_name;

    std::istringstream lines(slurp(opt.jsonl_path));
    std::size_t records = 0;
    for (std::string line; std::getline(lines, line); ++records) {
      EXPECT_NE(line.find(label), std::string::npos) << engine_name << ": " << line;
    }
    EXPECT_EQ(records, spec.node_count) << engine_name;
  }
}

TEST(Fleet, SpecStringPolicyFailsFastOnBadSpec) {
  FleetSpec spec = small_spec(4);
  EXPECT_THROW(spec.add_policy("bogus"), mppt::SpecError);
  EXPECT_THROW(spec.add_policy("focv[stepp=1]"), mppt::SpecError);
  EXPECT_THROW(spec.add_policy("focv[k=2]"), mppt::SpecError);
}

TEST(Fleet, ByteIdenticalAcrossWorkerCounts) {
  const FleetSpec spec = small_spec(26);  // 7 chunks of 4: uneven tail

  const std::string dir = ::testing::TempDir();
  FleetOptions serial;
  serial.jobs = 1;
  serial.jsonl_path = dir + "/fleet_serial.jsonl";
  const FleetReport a = run_fleet(spec, serial);

  FleetOptions threaded;
  threaded.jobs = 8;
  threaded.jsonl_path = dir + "/fleet_threaded.jsonl";
  const FleetReport b = run_fleet(spec, threaded);

  EXPECT_EQ(a.to_json(), b.to_json());
  const std::string lines_a = slurp(serial.jsonl_path);
  const std::string lines_b = slurp(threaded.jsonl_path);
  EXPECT_FALSE(lines_a.empty());
  EXPECT_EQ(lines_a, lines_b);
  // Timing is machine-dependent and must stay out of the default export.
  EXPECT_EQ(a.to_json().find("wall_seconds"), std::string::npos);
  EXPECT_NE(a.to_json(true).find("wall_seconds"), std::string::npos);
}

TEST(Fleet, ChunkSharedCurveCacheDoesNotAlterResults) {
  // Same fleet, chunk_size 1 (every node gets a fresh cache) vs one big
  // chunk (every node shares one cache): bit-identical totals. Spreads
  // are zeroed so nodes in the same environment share identical grid
  // entries and the reuse is guaranteed, not probabilistic.
  FleetSpec fresh = small_spec(10);
  fresh.chunk_size = 1;
  fresh.heterogeneity.attenuation_min = 1.0;
  fresh.heterogeneity.attenuation_max = 1.0;
  fresh.heterogeneity.cell_tolerance_sigma = 0.0;
  FleetSpec shared = fresh;
  shared.chunk_size = 64;
  const FleetReport a = run_fleet(fresh, serial_options());
  const FleetReport b = run_fleet(shared, serial_options());
  EXPECT_EQ(a.harvested_j, b.harvested_j);
  EXPECT_EQ(a.net_j, b.net_j);
  EXPECT_EQ(a.efficiency_sum, b.efficiency_sum);
  EXPECT_EQ(a.steps, b.steps);
  // The shared cache solves each grid node once for the whole chunk.
  EXPECT_LT(b.model_evals, a.model_evals);
}

TEST(Fleet, AccountsEveryNodeExactlyOnce) {
  const FleetSpec spec = small_spec(26);
  const FleetReport r = run_fleet(spec, serial_options());
  EXPECT_EQ(r.nodes_ok + r.nodes_failed, 26u);
  std::uint64_t env_nodes = 0;
  for (const EnvironmentAggregate& e : r.environments) env_nodes += e.nodes;
  EXPECT_EQ(env_nodes, 26u);
  std::uint64_t policy_nodes = 0;
  for (const PolicyAggregate& p : r.policies) policy_nodes += p.nodes + p.failed;
  EXPECT_EQ(policy_nodes, 26u);
  EXPECT_EQ(r.efficiency_hist.total(), r.nodes_ok);
  EXPECT_EQ(r.net_energy_hist.total(), r.nodes_ok);
  EXPECT_EQ(r.downtime_hist.total(), r.nodes_ok);
}

TEST(Fleet, EnergyNeutralTracksStoreVoltage) {
  // Bright constant light: every store ends above its 1.8 V start.
  FleetSpec bright;
  bright.node_count = 6;
  bright.use_cell(pv::sanyo_am1815());
  bright.add_environment("bright", env::constant_light(2000.0, 0.0, 3600.0));
  bright.base.storage.initial_voltage = 1.9;
  bright.base.load.report_period = 120.0;
  const FleetReport sunny = run_fleet(bright, serial_options());
  EXPECT_EQ(sunny.energy_neutral_nodes, sunny.nodes_ok);
  EXPECT_EQ(sunny.energy_neutral_fraction(), 1.0);

  // Darkness: the load can only drain the store.
  FleetSpec dark = bright;
  dark.environments.clear();
  dark.add_environment("dark", env::constant_light(0.0, 0.0, 3600.0));
  const FleetReport night = run_fleet(dark, serial_options());
  EXPECT_EQ(night.energy_neutral_nodes, 0u);
}

TEST(Fleet, LoadConcurrencyPhaseJitterBreaksLockstep) {
  FleetSpec spec = small_spec(40);
  spec.heterogeneity.randomize_load_phase = false;
  spec.heterogeneity.load_period_jitter = 0.0;
  const LoadConcurrency lockstep = analyze_load_concurrency(spec);
  // Identical periods and zero phase: every node bursts at once.
  EXPECT_EQ(lockstep.peak_concurrent_tx, 40u);

  spec.heterogeneity.randomize_load_phase = true;
  const LoadConcurrency spread = analyze_load_concurrency(spec);
  EXPECT_GE(spread.peak_concurrent_tx, 1u);
  EXPECT_LT(spread.peak_concurrent_tx, 40u);
  EXPECT_LT(spread.peak_load_w, lockstep.peak_load_w);
  EXPECT_NEAR(spread.average_load_w, lockstep.average_load_w,
              1e-6 * lockstep.average_load_w);
}

/// Reference load-concurrency pass: every burst edge of every node in
/// one vector and one global sort in the (time, d_power, d_tx) order.
/// The slab-streamed analyze_load_concurrency must reproduce it field
/// for field.
LoadConcurrency load_concurrency_oracle(const FleetSpec& spec, double window_s) {
  const power::WsnLoad::Params& load = spec.base.load;
  const std::vector<PolicyAxis> policies = effective_policies(spec);
  LoadConcurrency out;
  double max_period = 0.0;
  std::vector<NodeDraw> draws;
  for (std::size_t i = 0; i < spec.node_count; ++i) {
    draws.push_back(detail::draw_node_prevalidated(spec, policies, i));
    max_period = std::max(max_period, draws.back().report_period);
    const double burst_energy =
        load.sense_power * load.sense_duration + load.tx_power * load.tx_duration;
    out.average_load_w += load.sleep_power + burst_energy / draws.back().report_period;
  }
  out.window_s = window_s > 0.0 ? window_s : 4.0 * max_period;
  struct Edge {
    double time;
    double d_power;
    int d_tx;
  };
  std::vector<Edge> edges;
  const auto add_interval = [&](double start, double end, double watts, bool is_tx) {
    const double a = std::max(0.0, start);
    const double b = std::min(out.window_s, end);
    if (a >= b) return;
    edges.push_back({a, watts, is_tx ? 1 : 0});
    edges.push_back({b, -watts, is_tx ? -1 : 0});
  };
  for (const NodeDraw& d : draws) {
    for (long k = -1; static_cast<double>(k) * d.report_period + d.burst_phase < out.window_s;
         ++k) {
      const double s = static_cast<double>(k) * d.report_period + d.burst_phase;
      add_interval(s, s + load.sense_duration, load.sense_power, false);
      add_interval(s + load.sense_duration, s + load.sense_duration + load.tx_duration,
                   load.tx_power, true);
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.d_power != b.d_power) return a.d_power < b.d_power;
    return a.d_tx < b.d_tx;
  });
  const double sleep_w = static_cast<double>(spec.node_count) * load.sleep_power;
  double burst_w = 0.0;
  long tx = 0;
  out.peak_load_w = sleep_w;
  for (const Edge& e : edges) {
    burst_w += e.d_power;
    tx += e.d_tx;
    out.peak_load_w = std::max(out.peak_load_w, sleep_w + burst_w);
    out.peak_concurrent_tx =
        std::max(out.peak_concurrent_tx, static_cast<std::uint64_t>(std::max(0l, tx)));
  }
  return out;
}

void expect_load_matches_oracle(const FleetSpec& spec, double window_s = 0.0) {
  const LoadConcurrency got = analyze_load_concurrency(spec, window_s);
  const LoadConcurrency want = load_concurrency_oracle(spec, window_s);
  EXPECT_EQ(got.window_s, want.window_s) << spec.node_count << " nodes";
  EXPECT_EQ(got.peak_concurrent_tx, want.peak_concurrent_tx) << spec.node_count << " nodes";
  EXPECT_EQ(got.peak_load_w, want.peak_load_w) << spec.node_count << " nodes";
  EXPECT_EQ(got.average_load_w, want.average_load_w) << spec.node_count << " nodes";
}

TEST(Fleet, LoadConcurrencyMatchesGlobalSortOracle) {
  FleetSpec spec = small_spec(40);
  spec.heterogeneity.randomize_load_phase = false;
  spec.heterogeneity.load_period_jitter = 0.0;
  expect_load_matches_oracle(spec);  // lockstep: every edge in one bucket
  spec = small_spec(300);
  expect_load_matches_oracle(spec, 1000.0);   // window shorter than a slab
  expect_load_matches_oracle(spec, 7200.0);   // many slabs
  expect_load_matches_oracle(spec, 30.0);     // window inside one burst period
  for (const std::size_t n : {1, 4095, 4096, 4097}) {
    expect_load_matches_oracle(small_spec(n));
  }
}

TEST(Fleet, LoadConcurrencyMatchesOracleAtFleetScale) {
  expect_load_matches_oracle(small_spec(100000));
  // Sense louder and longer than tx: at this scale edges of different
  // streams coincide, and merging them in stream order rather than the
  // (d_power, d_tx) rank order moves the peak's last bit.
  FleetSpec loud = small_spec(100000);
  loud.base.load.sense_power = 4.0 * loud.base.load.tx_power;
  loud.base.load.sense_duration = 0.05;
  expect_load_matches_oracle(loud);
}

TEST(Fleet, LoadConcurrencyMatchesOracleWhenSenseAndTxPowerTie) {
  // Equal sense and tx power: sense and tx edges share d_power, so
  // coincident ones are ordered by the d_tx tie-break alone.
  FleetSpec spec = small_spec(4097);
  spec.base.load.sense_power = spec.base.load.tx_power;
  expect_load_matches_oracle(spec);
  spec.heterogeneity.randomize_load_phase = false;
  spec.heterogeneity.load_period_jitter = 0.0;
  const LoadConcurrency lockstep = analyze_load_concurrency(spec);
  EXPECT_EQ(lockstep.peak_concurrent_tx, 4097u);
  expect_load_matches_oracle(spec);
}

TEST(Fleet, LoadConcurrencyMatchesOracleOnEdgeStreamCorners) {
  // The load pass derives four sorted edge streams (sense start/end, tx
  // start/end) from the sorted burst starts and merges them by rank;
  // these are the shapes that argument leans on.
  FleetSpec no_tx = small_spec(3000);
  no_tx.base.load.tx_duration = 0.0;  // tx intervals empty: two streams never fill
  expect_load_matches_oracle(no_tx);
  EXPECT_EQ(analyze_load_concurrency(no_tx).peak_concurrent_tx, 0u);

  FleetSpec no_sense = small_spec(3000);
  no_sense.base.load.sense_duration = 0.0;  // tx starts at the burst start
  expect_load_matches_oracle(no_sense);

  FleetSpec loud_sense = small_spec(3000);  // ends/starts swap rank order
  loud_sense.base.load.sense_power = 4.0 * loud_sense.base.load.tx_power;
  expect_load_matches_oracle(loud_sense);
  loud_sense.heterogeneity.randomize_load_phase = false;
  loud_sense.heterogeneity.load_period_jitter = 0.0;
  expect_load_matches_oracle(loud_sense);

  // Windows that end inside node 0's sense and inside its tx interval:
  // the clipped end edges sit at exactly W, coincident across streams.
  FleetSpec cut = small_spec(3000);
  const power::WsnLoad::Params& load = cut.base.load;
  const double s0 = draw_node(cut, 0).burst_phase;
  expect_load_matches_oracle(cut, s0 + 0.5 * load.sense_duration);
  expect_load_matches_oracle(cut, s0 + load.sense_duration + 0.5 * load.tx_duration);
  cut.heterogeneity.randomize_load_phase = false;
  cut.heterogeneity.load_period_jitter = 0.0;
  expect_load_matches_oracle(cut, 2.0 * load.report_period + 0.5 * load.sense_duration);
}

TEST(Fleet, RunFleetLoadPassMatchesTheStandaloneOne) {
  // run_fleet hands the load pass the periods and phases its chunks
  // drew; the result must be the one analyze_load_concurrency draws.
  FleetSpec spec = small_spec(26);
  const LoadConcurrency want = analyze_load_concurrency(spec);
  FleetOptions opt = serial_options();
  opt.jobs = 3;
  const FleetReport report = run_fleet(spec, opt);
  EXPECT_EQ(report.load.window_s, want.window_s);
  EXPECT_EQ(report.load.peak_concurrent_tx, want.peak_concurrent_tx);
  EXPECT_EQ(report.load.peak_load_w, want.peak_load_w);
  EXPECT_EQ(report.load.average_load_w, want.average_load_w);
}

TEST(Fleet, RejectsInvalidSpecs) {
  FleetSpec no_cell = small_spec(4);
  no_cell.cell = nullptr;
  EXPECT_THROW((void)run_fleet(no_cell, serial_options()), PreconditionError);

  FleetSpec no_env = small_spec(4);
  no_env.environments.clear();
  EXPECT_THROW((void)run_fleet(no_env, serial_options()), PreconditionError);

  FleetSpec bad_weight = small_spec(4);
  bad_weight.environments[0].weight = 0.0;
  EXPECT_THROW((void)run_fleet(bad_weight, serial_options()), PreconditionError);

  FleetSpec bad_att = small_spec(4);
  bad_att.heterogeneity.attenuation_min = 0.0;
  EXPECT_THROW((void)draw_node(bad_att, 0), PreconditionError);
}

TEST(FixedHistogram, ClampsOutOfRangeIntoEndBins) {
  FixedHistogram h({0.0, 1.0, 2.0});
  h.observe(-5.0);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.total(), 4u);

  FixedHistogram other({0.0, 1.0, 2.0});
  other.observe(0.1);
  h.merge(other);
  EXPECT_EQ(h.counts[0], 3u);
  EXPECT_EQ(h.total(), 5u);

  FixedHistogram mismatched({0.0, 1.0});
  EXPECT_THROW(h.merge(mismatched), PreconditionError);
  EXPECT_THROW(FixedHistogram({1.0, 1.0}), PreconditionError);
}

TEST(Fleet, ProgressCallbackCoversEveryChunk) {
  const FleetSpec spec = small_spec(10);  // 3 chunks of 4,4,2
  std::size_t calls = 0;
  std::size_t last_nodes = 0;
  FleetOptions opt;
  opt.jobs = 1;
  opt.on_progress = [&](const FleetProgress& p) {
    ++calls;
    last_nodes = p.nodes_done;
    EXPECT_EQ(p.nodes_total, 10u);
    EXPECT_EQ(p.chunks_total, 3u);
  };
  (void)run_fleet(spec, opt);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(last_nodes, 10u);
}

}  // namespace
}  // namespace focv::fleet
