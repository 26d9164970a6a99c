// focv::fleet — multi-node WSN fleet simulation engine.
//
// The paper targets MPPT for *wireless sensor nodes*; a deployment is
// never one node, it is hundreds to thousands of heterogeneous nodes
// sharing an environment and a radio schedule. This module simulates
// N = 10..10,000 harvester nodes over multi-day horizons with bounded
// memory and reports network-level energy statistics:
//
//   FleetSpec spec;
//   spec.node_count = 1000;
//   spec.use_cell(pv::sanyo_am1815());
//   spec.add_environment("office", env::office_desk_mixed(), 0.7);
//   spec.add_environment("outdoor", env::outdoor_day({}), 0.3);
//   spec.add_policy("focv", 0.8);
//   spec.add_policy("fixed[v=3.1]", 0.2);
//   FleetReport report = run_fleet(spec, {.jobs = 8});
//
// Heterogeneity: each node draws its environment, MPPT policy,
// placement attenuation, cell photocurrent tolerance, FOCV divider-k
// spread and load phase/period jitter from a private RNG stream derived
// from the root seed and the node index (common/rng.hpp
// make_stream_rng), so the expansion into per-node NodeConfigs is a
// pure function of (spec, node index).
//
// Execution: nodes are processed in fixed chunks fanned out on the
// focv::runtime::ThreadPool. Each chunk owns one CurveCache that is
// re-prepared across its nodes (nodes share the cell model, so in
// surrogate mode later nodes hit the grid entries earlier nodes built),
// and streams its results into a chunk-local FleetReport accumulator of
// fixed size — per-node waveforms are never retained. Chunk partials
// are merged in chunk-index order, so a FleetReport (and its JSON/JSONL
// exports) is bit-identical no matter how many worker threads ran it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/focv_system.hpp"
#include "env/light_trace.hpp"
#include "node/harvester_node.hpp"
#include "pv/diode_models.hpp"

namespace focv::fleet {

/// Per-node spread assumptions (drawn per node from its RNG stream).
struct HeterogeneitySpec {
  /// Placement-derived illuminance attenuation, uniform in [min, max]
  /// (a corridor desk sees a fraction of the reference desk's light).
  double attenuation_min = 0.35;
  double attenuation_max = 1.0;
  /// Cell photocurrent tolerance: log-normal factor exp(sigma * N(0,1)).
  /// Behaviourally equivalent to an illuminance scale for these models,
  /// which is what keeps the chunk-shared curve cache valid.
  double cell_tolerance_sigma = 0.03;
  /// Fractional 1-sigma spread of the FOCV divider ratio (untrimmed
  /// production units; only consumed by "focv" nodes).
  double divider_spread_sigma = 0.01;
  /// Load report period jitter: uniform fractional spread (+/-).
  double load_period_jitter = 0.05;
  /// Draw each node's sense+tx burst phase uniformly in [0, period)
  /// instead of transmitting in lockstep at the period start.
  bool randomize_load_phase = true;
};

/// Axis value: a named shared light environment with a mixture weight.
struct EnvironmentAxis {
  std::string name;
  std::shared_ptr<const env::LightTrace> trace;
  double weight = 1.0;
};

/// Axis value: one controller of the deployment mixture, described by a
/// resolved registry spec with a mixture weight.
struct PolicyAxis {
  /// Report / JSONL key of this axis: the canonical spec string (the
  /// default mixture keeps its historical label, see effective_policies).
  std::string label;
  /// Registry resolution backing the axis (name + final parameters).
  mppt::ResolvedSpec resolved;
  double weight = 1.0;
  /// Shared controller prototype, cloned per node. Null for "focv"
  /// axes: the paper controller is rebuilt per node so the divider-k
  /// tolerance draw folds into the axis parameters (materialize_node).
  std::shared_ptr<const mppt::MpptController> prototype;
};

/// Declarative fleet description. Expands deterministically into
/// node_count per-node NodeConfigs (see draw_node / materialize_node).
/// Which execution engine advances the fleet.
enum class FleetEngine {
  /// One stepper object per node (the reference path): kFixed or kEvent
  /// per FleetSpec::base.stepper. Bit-stable across releases.
  kPerNode,
  /// Batched struct-of-arrays chunks (fleet/soa.hpp): nodes advance in
  /// tight per-interval loops over a shared schedule and dense surrogate
  /// tables, within the event stepper's 0.1 % equivalence contract.
  /// Nodes the batch path cannot express (per-step-only or
  /// store-tracking controllers, batteries, cold-start supervisors,
  /// exact power model) transparently fall back to kPerNode semantics.
  kSoa,
};

struct FleetSpec {
  std::size_t node_count = 100;
  /// Root of the per-node RNG streams.
  std::uint64_t root_seed = 2024;
  /// Shared light environments; each node draws one by weight.
  std::vector<EnvironmentAxis> environments;
  /// Policy mixture; empty deploys every node with the paper's "focv".
  std::vector<PolicyAxis> policies;
  /// Cell model shared by all nodes (required; heterogeneity is applied
  /// as a per-node photocurrent factor so the chunk curve cache stays
  /// shareable). Set with use_cell().
  std::shared_ptr<const pv::SingleDiodeModel> cell;
  /// Component spec for "focv" nodes; divider_ratio is the pre-spread
  /// nominal.
  core::SystemSpec system;
  /// Template for every node's NodeConfig. The cell, controller,
  /// lux_scale and load phase/period slots are overwritten per node;
  /// record_traces is forced off (bounded memory).
  node::NodeConfig base;
  HeterogeneitySpec heterogeneity;
  /// Nodes per scheduling chunk. Part of the result's identity: chunks
  /// bound both the parallel grain and the curve-cache sharing scope.
  std::size_t chunk_size = 64;
  /// Execution engine. kSoa batches whole chunks through shared event
  /// schedules (million-node scale); kPerNode is the bit-stable
  /// reference. jobs=1 vs jobs=N byte-determinism holds on both.
  FleetEngine engine = FleetEngine::kPerNode;

  /// Borrow a long-lived cell (e.g. a pv::cell_library singleton).
  void use_cell(const pv::SingleDiodeModel& cell_ref);
  void use_cell(std::shared_ptr<const pv::SingleDiodeModel> cell_ptr);
  void add_environment(std::string name, env::LightTrace trace, double weight = 1.0);
  void add_environment(std::string name, std::shared_ptr<const env::LightTrace> trace,
                       double weight = 1.0);
  /// Add a mixture slot from a registry spec string, e.g.
  /// `add_policy("focv[k=0.55]", 0.6)` or `add_policy("graddesc", 0.4)`
  /// (grammar and catalog: mppt/registry.hpp). The report label is the
  /// canonical spec. Throws mppt::SpecError on a bad spec.
  void add_policy(const std::string& spec, double weight = 1.0);
  void add_policy(const char* spec, double weight = 1.0) {
    add_policy(std::string(spec), weight);
  }
};

/// The policy mixture actually deployed: FleetSpec::policies, or a
/// single default-weight "focv" axis labelled "focv_sample_hold" when
/// the spec lists none. materialize_node, the report skeleton and the
/// JSONL writer all label nodes through this.
[[nodiscard]] std::vector<PolicyAxis> effective_policies(const FleetSpec& spec);

/// The heterogeneity draw of one node: a pure function of
/// (spec, node index), independent of execution order.
struct NodeDraw {
  std::size_t node = 0;
  std::uint64_t seed = 0;         ///< this node's RNG stream seed
  std::size_t env_index = 0;
  std::size_t policy_index = 0;   ///< into the effective policy list
  double attenuation = 1.0;       ///< placement factor
  double cell_factor = 1.0;       ///< photocurrent tolerance factor
  double divider_ratio = 0.0;     ///< FOCV k*alpha after spread
  double report_period = 0.0;     ///< load period after jitter [s]
  double burst_phase = 0.0;       ///< load burst offset in [0, period) [s]
};

/// Draw node `index`'s heterogeneity. Deterministic for (spec, index).
[[nodiscard]] NodeDraw draw_node(const FleetSpec& spec, std::size_t index);

/// Expand a draw into the node's full NodeConfig (controller included).
[[nodiscard]] node::NodeConfig materialize_node(const FleetSpec& spec, const NodeDraw& draw);

/// Fixed-width histogram over schema-documented bin edges. Values below
/// the first / at-or-above the last edge land in the end bins, so the
/// counts always sum to the number of observations.
struct FixedHistogram {
  std::vector<double> edges;           ///< n+1 edges, bin i = [edges[i], edges[i+1])
  std::vector<std::uint64_t> counts;   ///< n bins

  explicit FixedHistogram(std::vector<double> bin_edges);
  FixedHistogram() = default;
  void observe(double value);
  void merge(const FixedHistogram& other);
  [[nodiscard]] std::uint64_t total() const;
};

/// Aggregate over the nodes deployed with one policy.
struct PolicyAggregate {
  std::string policy;
  std::uint64_t nodes = 0;            ///< successful runs
  std::uint64_t failed = 0;
  std::uint64_t energy_neutral = 0;
  double harvested_j = 0.0;
  double net_j = 0.0;
  double downtime_s = 0.0;
  double efficiency_sum = 0.0;        ///< over successful runs
  double efficiency_min = 0.0;        ///< 0 when nodes == 0
  double efficiency_max = 0.0;

  [[nodiscard]] double mean_efficiency() const {
    return nodes > 0 ? efficiency_sum / static_cast<double>(nodes) : 0.0;
  }
  [[nodiscard]] double energy_neutral_fraction() const {
    return nodes > 0 ? static_cast<double>(energy_neutral) / static_cast<double>(nodes) : 0.0;
  }
};

/// Node count per environment.
struct EnvironmentAggregate {
  std::string environment;
  std::uint64_t nodes = 0;
};

/// Network-level radio-load coincidence, computed analytically from the
/// per-node load phase/period draws (no simulation): how many nodes
/// burst at once, and the worst instantaneous aggregate load. With
/// randomize_load_phase off every node bursts in lockstep and the peak
/// equals the whole fleet — the overstatement the per-node phase offset
/// exists to remove.
struct LoadConcurrency {
  double window_s = 0.0;                ///< analysed window [0, window_s)
  std::uint64_t peak_concurrent_tx = 0; ///< max nodes in a tx burst at once
  double peak_load_w = 0.0;             ///< max aggregate instantaneous load [W]
  double average_load_w = 0.0;          ///< sum of per-node average power [W]
};

/// Analyse burst coincidence for the fleet's draws over [0, window_s);
/// window_s <= 0 selects 4x the longest drawn report period.
[[nodiscard]] LoadConcurrency analyze_load_concurrency(const FleetSpec& spec,
                                                       double window_s = 0.0);

/// Fixed-size network-level accumulator: everything is a sum, a count,
/// an extremum or a fixed-width histogram, so a 10,000-node fleet costs
/// the same report memory as a 10-node one. Deterministic for a given
/// spec (timing fields excluded from the default JSON export).
struct FleetReport {
  static constexpr const char* kSchema = "focv-fleet/v1";

  // Identity.
  std::size_t node_count = 0;
  std::uint64_t root_seed = 0;
  std::size_t chunk_size = 0;
  double duration_s = 0.0;             ///< longest environment horizon

  // Totals over successful nodes.
  std::uint64_t nodes_ok = 0;
  std::uint64_t nodes_failed = 0;
  std::uint64_t energy_neutral_nodes = 0;  ///< final store >= initial store
  double harvested_j = 0.0;
  double delivered_j = 0.0;
  double overhead_j = 0.0;
  double load_served_j = 0.0;
  double ideal_mpp_j = 0.0;
  double net_j = 0.0;
  double downtime_s = 0.0;             ///< summed brownout time
  std::uint64_t steps = 0;
  std::uint64_t model_evals = 0;
  std::uint64_t curve_entries = 0;
  /// Summed event-engine boundaries (NodeReport::events); 0 when the
  /// fleet runs the fixed stepper. Deterministic for a spec, so jobs=1
  /// and jobs=N runs must agree.
  std::uint64_t events = 0;

  // Distributions (fixed edges, documented in EXPERIMENTS.md).
  double efficiency_sum = 0.0;
  double efficiency_min = 0.0;
  double efficiency_max = 0.0;
  FixedHistogram efficiency_hist;
  FixedHistogram net_energy_hist;
  FixedHistogram downtime_hist;

  std::vector<PolicyAggregate> policies;
  std::vector<EnvironmentAggregate> environments;
  LoadConcurrency load;

  // Timing (depends on the machine and worker count; excluded from the
  // default export so jobs=1 and jobs=N runs compare byte-identical).
  double wall_seconds = 0.0;
  int jobs_used = 0;

  [[nodiscard]] double energy_neutral_fraction() const {
    return nodes_ok > 0 ? static_cast<double>(energy_neutral_nodes) /
                              static_cast<double>(nodes_ok)
                        : 0.0;
  }
  [[nodiscard]] double mean_tracking_efficiency() const {
    return nodes_ok > 0 ? efficiency_sum / static_cast<double>(nodes_ok) : 0.0;
  }

  /// One node's outcome into the accumulator (draw decides the policy /
  /// environment rows). Used by run_fleet; exposed for tests.
  void add_node(const NodeDraw& draw, const node::NodeReport& report, bool energy_neutral,
                double node_downtime_s);
  void add_failed_node(const NodeDraw& draw);
  /// Fold another partial (same spec shape) into this one. run_fleet
  /// merges chunk partials in chunk-index order.
  void merge(const FleetReport& other);

  /// Deterministic "focv-fleet/v1" JSON (byte-stable across runs and
  /// thread counts; include_timing adds the machine-dependent fields).
  [[nodiscard]] std::string to_json(bool include_timing = false) const;
  void write_json(const std::string& path, bool include_timing = false) const;
};

/// Live progress of a running fleet.
struct FleetProgress {
  std::size_t nodes_done = 0;
  std::size_t nodes_total = 0;
  std::size_t chunks_done = 0;
  std::size_t chunks_total = 0;
  std::size_t failed = 0;
};

struct FleetOptions {
  /// Worker threads; 0 selects ThreadPool::default_thread_count(),
  /// 1 runs every chunk inline on the calling thread.
  int jobs = 0;
  /// When set, one "focv-fleet-node/v1" JSONL record per node is
  /// written here, in node order (buffered per chunk; deterministic).
  std::string jsonl_path;
  /// Run the analytic load-concurrency pass (cheap; on by default).
  bool analyze_load = true;
  /// Invoked after each chunk completes; calls are serialized.
  std::function<void(const FleetProgress&)> on_progress;
};

/// Simulate the fleet. Throws PreconditionError on an invalid spec
/// (no cell, no environment, non-positive weights). A node whose
/// simulation throws marks only itself failed; the rest of the fleet
/// still runs.
[[nodiscard]] FleetReport run_fleet(const FleetSpec& spec, const FleetOptions& options);
[[nodiscard]] inline FleetReport run_fleet(const FleetSpec& spec) {
  return run_fleet(spec, FleetOptions{});
}

}  // namespace focv::fleet
