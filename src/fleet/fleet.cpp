#include "fleet/fleet.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "fleet/detail.hpp"
#include "fleet/hill.hpp"
#include "fleet/soa.hpp"
#include "mppt/baselines.hpp"
#include "node/curve_cache.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/prepared_trace.hpp"

namespace focv::fleet {

void FleetSpec::use_cell(const pv::SingleDiodeModel& cell_ref) {
  cell = std::shared_ptr<const pv::SingleDiodeModel>(
      std::shared_ptr<const pv::SingleDiodeModel>(), &cell_ref);
}

void FleetSpec::use_cell(std::shared_ptr<const pv::SingleDiodeModel> cell_ptr) {
  cell = std::move(cell_ptr);
}

void FleetSpec::add_environment(std::string name, env::LightTrace trace, double weight) {
  add_environment(std::move(name), std::make_shared<const env::LightTrace>(std::move(trace)),
                  weight);
}

void FleetSpec::add_environment(std::string name, std::shared_ptr<const env::LightTrace> trace,
                                double weight) {
  EnvironmentAxis axis;
  axis.name = std::move(name);
  axis.trace = std::move(trace);
  axis.weight = weight;
  environments.push_back(std::move(axis));
}

namespace {

PolicyAxis make_policy_axis(const std::string& spec, double weight) {
  core::register_paper_controller();  // independent of static pull-in order
  PolicyAxis axis;
  axis.resolved = mppt::Registry::instance().resolve(spec);
  axis.label = axis.resolved.spec();
  axis.weight = weight;
  // "focv" nodes are built per node (divider-k tolerance folds into the
  // axis parameters); every other controller is one shared prototype.
  if (axis.resolved.name != "focv") {
    axis.prototype = mppt::Registry::instance().make(axis.resolved);
  }
  return axis;
}

}  // namespace

void FleetSpec::add_policy(const std::string& spec, double weight) {
  policies.push_back(make_policy_axis(spec, weight));
}

namespace {

/// The axis a spec without policies deploys, built once per process.
const PolicyAxis& default_policy() {
  static const PolicyAxis axis = [] {
    PolicyAxis a = make_policy_axis("focv", 1.0);
    // The pre-registry name of the paper controller: keeps the default
    // mixture's focv-fleet/v1 report and JSONL bytes stable.
    a.label = "focv_sample_hold";
    return a;
  }();
  return axis;
}

/// effective_policies(spec)[index] without copying the mixture.
const PolicyAxis& effective_policy(const FleetSpec& spec, std::size_t index) {
  const std::size_t n = spec.policies.empty() ? 1 : spec.policies.size();
  require(index < n, "fleet: draw's policy index does not match this spec's mixture");
  return spec.policies.empty() ? default_policy() : spec.policies[index];
}

}  // namespace

std::vector<PolicyAxis> effective_policies(const FleetSpec& spec) {
  if (spec.policies.empty()) return {default_policy()};
  return spec.policies;
}

namespace {

/// Index of the weighted-mixture slot that `u` in [0, 1) falls into.
template <typename GetWeight>
std::size_t pick_weighted(double u, std::size_t n, const GetWeight& weight_of) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += weight_of(i);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += weight_of(i);
    if (u * total < acc) return i;
  }
  return n - 1;
}

void validate_draw_inputs(const FleetSpec& spec) {
  require(!spec.environments.empty(), "fleet: at least one environment is required");
  for (const EnvironmentAxis& e : spec.environments) {
    require(e.trace != nullptr, "fleet: null trace on environment '" + e.name + "'");
    require(e.weight > 0.0, "fleet: environment weight must be > 0 ('" + e.name + "')");
  }
  for (const PolicyAxis& p : spec.policies) {
    require(p.weight > 0.0, "fleet: policy weight must be > 0");
  }
  const HeterogeneitySpec& h = spec.heterogeneity;
  require(h.attenuation_min > 0.0 && h.attenuation_min <= h.attenuation_max,
          "fleet: attenuation range must satisfy 0 < min <= max");
  require(h.cell_tolerance_sigma >= 0.0 && h.divider_spread_sigma >= 0.0 &&
              h.load_period_jitter >= 0.0 && h.load_period_jitter < 1.0,
          "fleet: spread parameters must be >= 0 (period jitter < 1)");
}

}  // namespace

namespace detail {

double initial_store_voltage(const node::NodeConfig& config) {
  if (config.battery) {
    return config.battery->nominal_voltage +
           config.battery->voltage_swing * (config.battery->initial_soc - 0.5);
  }
  return config.storage.initial_voltage;
}

NodeDraw draw_node_prevalidated(const FleetSpec& spec, const std::vector<PolicyAxis>& policies,
                                std::size_t index) {
  const HeterogeneitySpec& h = spec.heterogeneity;

  NodeDraw d;
  d.node = index;
  d.seed = derive_stream_seed(spec.root_seed, index);
  Rng rng = make_stream_rng(spec.root_seed, index);

  // Fixed draw order, every value drawn unconditionally: the stream
  // layout (and therefore every node's draw) cannot shift when a spread
  // is zeroed or a policy mixture changes shape.
  const double u_env = rng.uniform();
  const double u_policy = rng.uniform();
  d.attenuation = rng.uniform(h.attenuation_min, h.attenuation_max);
  d.cell_factor = std::exp(h.cell_tolerance_sigma * rng.gaussian());
  const double g_divider = rng.gaussian();
  const double u_period = rng.uniform(-1.0, 1.0);
  const double u_phase = rng.uniform();

  d.env_index = pick_weighted(u_env, spec.environments.size(),
                              [&](std::size_t i) { return spec.environments[i].weight; });
  d.policy_index = pick_weighted(u_policy, policies.size(),
                                 [&](std::size_t i) { return policies[i].weight; });
  d.divider_ratio =
      std::max(1e-3, spec.system.divider_ratio * (1.0 + h.divider_spread_sigma * g_divider));
  const power::WsnLoad::Params& load = spec.base.load;
  d.report_period =
      std::max(1.25 * (load.sense_duration + load.tx_duration),
               load.report_period * (1.0 + h.load_period_jitter * u_period));
  d.burst_phase = h.randomize_load_phase ? u_phase * d.report_period : 0.0;
  return d;
}

}  // namespace detail

NodeDraw draw_node(const FleetSpec& spec, std::size_t index) {
  validate_draw_inputs(spec);
  return detail::draw_node_prevalidated(spec, effective_policies(spec), index);
}

node::NodeConfig materialize_node(const FleetSpec& spec, const NodeDraw& draw) {
  require(spec.cell != nullptr, "fleet: cell model is required (use_cell)");
  node::NodeConfig config = spec.base;
  config.cell_model = spec.cell;
  config.lux_scale = spec.base.lux_scale * draw.attenuation * draw.cell_factor;
  config.load.report_period = draw.report_period;
  config.load.burst_phase = draw.burst_phase;
  // Bounded memory at fleet scale: per-node waveforms are never kept.
  config.record_traces = false;
  const PolicyAxis& axis = effective_policy(spec, draw.policy_index);
  if (axis.prototype != nullptr) {
    config.controller_prototype = axis.prototype;  // shared; cloned per run
  } else {
    // "focv": rebuild per node so the production divider-k tolerance
    // draw folds in. When the axis does not set `k`, the draw's ratio
    // (spread around spec.system's nominal) is used verbatim — the
    // bit-exact legacy path; an explicit `k` re-centres the same
    // relative spread on the axis nominal.
    double divider = draw.divider_ratio;
    if (axis.resolved.is_set("k")) {
      const double relative_spread = draw.divider_ratio / spec.system.divider_ratio;
      divider = axis.resolved.value("k") * spec.system.alpha * relative_spread;
    }
    config.use_controller(std::make_unique<mppt::FocvSampleHoldController>(
        core::make_paper_controller_from_spec(axis.resolved, spec.system, divider)));
  }
  return config;
}

namespace detail {

LoadConcurrency load_concurrency(const FleetSpec& spec, const std::vector<BurstClock>& clocks,
                                 double window_s) {
  const power::WsnLoad::Params& load = spec.base.load;
  const double burst_energy =
      load.sense_power * load.sense_duration + load.tx_power * load.tx_duration;
  LoadConcurrency out;
  double max_period = 0.0;
  double burst_rate = 0.0;  // fleet bursts per second
  for (const BurstClock& c : clocks) {
    max_period = std::max(max_period, c.period);
    burst_rate += 1.0 / c.period;
    out.average_load_w += load.sleep_power + burst_energy / c.period;
  }
  out.window_s = window_s > 0.0 ? window_s : 4.0 * max_period;
  const double w = out.window_s;
  const double sd = load.sense_duration;
  const double td = load.tx_duration;
  constexpr double kNoEdge = std::numeric_limits<double>::infinity();

  // Event sweep over [0, window): +/- power and tx-count deltas at each
  // burst edge, in the total order (time, d_power, d_tx) — ends before
  // starts at equal timestamps. A burst starting at s = k * period +
  // phase contributes four edges, one per stream, each a constant
  // (d_power, d_tx) and a time that is monotone in s:
  //   sense start max(0, s)         sense end min(W, s + sd)
  //   tx start    max(0, s + sd)    tx end    min(W, (s + sd) + td)
  // (a burst whose sense or tx interval is empty inside the window
  // adds neither of that interval's edges). So sorting the starts
  // alone sorts every stream, and a 4-way merge that breaks equal
  // times by the streams' (d_power, d_tx) rank visits exactly the
  // globally sorted edge sequence; edges with equal time and rank are
  // equal, so their order cannot change a bit of the running sums.
  //
  // The window is cut into time slabs of about max(node_count,
  // kMinSlabBursts) expected starts each. A slab's starts are
  // counting-sorted into about one time bucket per start and each
  // bucket is sorted on its own; slab and bucket are monotone in s, so
  // the slabs concatenate into one sorted sequence. Every edge of a
  // later slab's burst lies at or after that burst's start, in a later
  // slab, so after slab j the merge emits every edge that falls in
  // slabs <= j and carries only the starts whose later edges are still
  // pending: memory stays at one slab of 8-byte keys.
  struct Stream {
    double d_power;
    int d_tx;
    bool is_tx;
    bool is_end;
  };
  const std::array<Stream, 4> streams{{{load.sense_power, 0, false, false},
                                       {-load.sense_power, 0, false, true},
                                       {load.tx_power, 1, true, false},
                                       {-load.tx_power, -1, true, true}}};
  std::array<int, 4> rank{0, 1, 2, 3};
  std::sort(rank.begin(), rank.end(), [&](int a, int b) {
    if (streams[a].d_power != streams[b].d_power) return streams[a].d_power < streams[b].d_power;
    return streams[a].d_tx < streams[b].d_tx;
  });

  constexpr double kMinSlabBursts = 4096.0;
  const double expected_bursts = w * burst_rate;
  const auto slabs = static_cast<std::size_t>(std::clamp(
      std::ceil(expected_bursts / std::max(static_cast<double>(clocks.size()), kMinSlabBursts)),
      1.0, 1e9));
  const double slab_scale = static_cast<double>(slabs) / w;
  const auto slab_of = [&](double t) {
    return std::min(slabs - 1, static_cast<std::size_t>(t * slab_scale));
  };

  std::vector<long> next(clocks.size(), -1);  // next burst; -1 catches one straddling t = 0
  std::vector<double> keys;                   // this slab's starts, unsorted
  std::vector<std::uint32_t> bucket_of;
  std::vector<std::size_t> bucket_end;
  std::vector<double> starts;  // sorted: carried starts, then this slab's
  std::array<std::size_t, 4> cursor{};  // per stream: the start of its head edge
  std::array<double, 4> head{kNoEdge, kNoEdge, kNoEdge, kNoEdge};  // +inf: drained
  // The stream's edge time for the burst starting at s, or +inf when
  // the burst has no such edge in the window (add_interval's a >= b).
  const auto edge_time = [&](const Stream& st, double s) {
    const double from = st.is_tx ? s + sd : s;
    const double a = std::max(0.0, from);
    const double b = std::min(w, from + (st.is_tx ? td : sd));
    if (a >= b) return kNoEdge;
    return st.is_end ? b : a;
  };
  const auto seek = [&](int q) {
    for (; cursor[q] < starts.size(); ++cursor[q]) {
      head[q] = edge_time(streams[q], starts[cursor[q]]);
      if (head[q] != kNoEdge) return;
    }
    head[q] = kNoEdge;
  };

  const double sleep_w = static_cast<double>(spec.node_count) * load.sleep_power;
  double burst_w = 0.0;
  long tx = 0;
  out.peak_load_w = sleep_w;
  for (std::size_t j = 0; j < slabs; ++j) {
    keys.clear();
    for (std::size_t i = 0; i < clocks.size(); ++i) {
      for (long& k = next[i];; ++k) {
        const double s = static_cast<double>(k) * clocks[i].period + clocks[i].phase;
        if (!(s < w) || slab_of(std::max(0.0, s)) > j) break;
        keys.push_back(s);
      }
    }

    const std::size_t n = keys.size();
    const std::size_t carried = starts.size();
    starts.resize(carried + n);
    if (n > 0) {
      const double slab_lo = static_cast<double>(j);
      const double buckets = static_cast<double>(n);
      bucket_of.resize(n);
      bucket_end.assign(n + 1, 0);
      for (std::size_t i = 0; i < n; ++i) {
        const double t = std::max(0.0, keys[i]);
        bucket_of[i] = static_cast<std::uint32_t>(
            std::min(n - 1, static_cast<std::size_t>((t * slab_scale - slab_lo) * buckets)));
        ++bucket_end[bucket_of[i] + 1];
      }
      for (std::size_t b = 1; b <= n; ++b) bucket_end[b] += bucket_end[b - 1];
      double* out_keys = starts.data() + carried;
      for (std::size_t i = 0; i < n; ++i) out_keys[bucket_end[bucket_of[i]]++] = keys[i];
      // bucket_end[b] now ends bucket b, which begins where b - 1 ends.
      for (std::size_t b = 0, lo = 0; b < n; lo = bucket_end[b++]) {
        if (bucket_end[b] - lo > 1) std::sort(out_keys + lo, out_keys + bucket_end[b]);
      }
    }
    for (int q = 0; q < 4; ++q) {
      if (head[q] == kNoEdge) seek(q);  // drained streams resume on the new starts
    }

    // Emit every edge of slabs <= j: t * slab_scale < j + 1, or all on
    // the last slab. A drained stream's +inf head never passes.
    const double cut = j + 1 < slabs ? static_cast<double>(j + 1) : kNoEdge;
    for (;;) {
      int q = rank[0];
      for (int r = 1; r < 4; ++r) {
        if (head[rank[r]] < head[q]) q = rank[r];
      }
      if (!(head[q] * slab_scale < cut)) break;
      burst_w += streams[q].d_power;
      tx += streams[q].d_tx;
      out.peak_load_w = std::max(out.peak_load_w, sleep_w + burst_w);
      out.peak_concurrent_tx =
          std::max(out.peak_concurrent_tx, static_cast<std::uint64_t>(std::max(0l, tx)));
      ++cursor[q];
      seek(q);
    }

    // Carry only the starts some stream still needs.
    const std::size_t done = *std::min_element(cursor.begin(), cursor.end());
    starts.erase(starts.begin(), starts.begin() + static_cast<std::ptrdiff_t>(done));
    for (std::size_t& c : cursor) c -= done;
  }
  return out;
}

}  // namespace detail

LoadConcurrency analyze_load_concurrency(const FleetSpec& spec, double window_s) {
  validate_draw_inputs(spec);
  require(spec.node_count > 0, "fleet: node_count must be > 0");
  const std::vector<PolicyAxis> policies = effective_policies(spec);
  // Only each node's load period and phase are kept.
  std::vector<detail::BurstClock> clocks(spec.node_count);
  for (std::size_t i = 0; i < spec.node_count; ++i) {
    const NodeDraw d = detail::draw_node_prevalidated(spec, policies, i);
    clocks[i] = {d.report_period, d.burst_phase};
  }
  return detail::load_concurrency(spec, clocks, window_s);
}

namespace {

/// Chunk layout: fixed-size contiguous node ranges. The chunking is part
/// of the result's identity (curve-cache sharing scope), never a
/// function of the worker count.
struct ChunkPlan {
  std::size_t count = 0;
  std::size_t size = 0;
  [[nodiscard]] std::size_t begin(std::size_t c) const { return c * size; }
  [[nodiscard]] std::size_t end(std::size_t c, std::size_t nodes) const {
    return std::min(nodes, (c + 1) * size);
  }
};

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  require(f.good(), "fleet export: cannot open " + path);
  f << text;
  require(f.good(), "fleet export: write failed for " + path);
}

}  // namespace

FleetReport run_fleet(const FleetSpec& spec, const FleetOptions& options) {
  validate_draw_inputs(spec);
  require(spec.node_count > 0, "run_fleet: node_count must be > 0");
  require(spec.cell != nullptr, "run_fleet: cell model is required (use_cell)");
  require(spec.chunk_size > 0, "run_fleet: chunk_size must be > 0");
  for (const EnvironmentAxis& e : spec.environments) {
    require(e.trace->size() >= 2,
            "run_fleet: environment '" + e.name + "' needs at least 2 samples");
  }

  const std::vector<PolicyAxis> policies = effective_policies(spec);
  ChunkPlan plan;
  plan.size = spec.chunk_size;
  plan.count = (spec.node_count + spec.chunk_size - 1) / spec.chunk_size;

  // Event stepping: the O(trace) preprocessing (equivalent-lux series,
  // prefix moments, segmentation) depends only on the trace and the
  // cell, so one immutable PreparedTrace per environment is shared
  // read-only by every node and every worker — per-node cost stays
  // O(events), not O(trace). Built here, before any chunk runs.
  std::vector<std::optional<sched::PreparedTrace>> prepared(spec.environments.size());
  std::optional<node::CurveCache> warm_cache;
  if ((spec.base.stepper == node::Stepper::kEvent || spec.engine == FleetEngine::kSoa) &&
      spec.base.power_model == node::PowerModel::kSurrogate) {
    const env::SegmentationOptions seg = sched::segmentation_for(spec.base.events);
    for (std::size_t e = 0; e < spec.environments.size(); ++e) {
      prepared[e].emplace(*spec.environments[e].trace, *spec.cell, seg);
    }
    // Warm one cache over the full illuminance span the heterogeneity
    // draws can reach, and seed every chunk's cache from it (see
    // run_chunk): surrogate entries depend only on their grid index, so
    // seeding changes no trajectory — it only stops each chunk from
    // re-solving the same few hundred grid nodes cold, which would
    // otherwise dominate an event-stepped fleet run. The 3-sigma bound
    // on the log-normal cell factor leaves a tail of nodes that touch
    // one or two unseeded edge entries; those build on demand as before.
    const HeterogeneitySpec& h = spec.heterogeneity;
    const double scale_lo =
        spec.base.lux_scale * h.attenuation_min * std::exp(-3.0 * h.cell_tolerance_sigma);
    const double scale_hi =
        spec.base.lux_scale * h.attenuation_max * std::exp(3.0 * h.cell_tolerance_sigma);
    warm_cache.emplace(
        *spec.cell, spec.base.temperature_k,
        node::CurveCache::Options{spec.base.power_model, spec.base.surrogate_points});
    for (std::size_t e = 0; e < spec.environments.size(); ++e) {
      double lo = 0.0;
      double hi = 0.0;
      for (const double v : prepared[e]->eq_lux()) {
        if (v < node::CurveCache::kDarkLux) continue;  // dark: never queried lit
        if (hi == 0.0) lo = v;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (hi > 0.0) warm_cache->warm_range(lo * scale_lo, hi * scale_hi);
    }
  }

  // SoA engine: one immutable plan (shared schedules, dense tables, edge
  // overlays) built before any chunk runs. Null when the spec as a whole
  // cannot batch — then every node takes the per-node path unchanged.
  std::unique_ptr<const soa::SoaPlan> soa_plan;
  if (spec.engine == FleetEngine::kSoa && warm_cache) {
    soa_plan = soa::build_plan(spec, policies, prepared, *warm_cache);
  }

  // Hill-climber nodes that can tick in lockstep lanes, collected from
  // the whole fleet (see fleet/hill.hpp). They run as tasks of their
  // own before the chunks, which then fold their outcomes in node order.
  std::optional<hill::Lanes> lanes;
  if (soa_plan) {
    lanes.emplace(spec, policies, prepared, *soa_plan, *warm_cache);
    if (lanes->empty()) lanes.reset();
  }

  // Each chunk records its nodes' load period and phase, so the load
  // pass does not draw every node a second time.
  std::vector<detail::BurstClock> clocks(options.analyze_load ? spec.node_count : 0);

  std::vector<FleetReport> partials(plan.count);
  for (FleetReport& p : partials) p = detail::make_skeleton(spec, policies);
  const bool want_jsonl = !options.jsonl_path.empty();
  std::vector<std::string> jsonl_chunks(want_jsonl ? plan.count : 0);

  std::mutex progress_mutex;
  FleetProgress progress;
  progress.nodes_total = spec.node_count;
  progress.chunks_total = plan.count;

  const bool obs_on = obs::enabled();
  const double submit_us = obs_on ? obs::tracer().now_us() : 0.0;
  static const obs::HistogramId node_eff_id = obs::metrics().histogram(
      "fleet.node.tracking_efficiency", {1e-3, 1.0 + 1e-9, 48});
  static const obs::HistogramId node_downtime_id =
      obs::metrics().histogram("fleet.node.downtime_s", {1.0, 1e6, 40});
  static const obs::HistogramId chunk_wall_id =
      obs::metrics().histogram("fleet.chunk.wall_us", {1.0, 1e9, 56});

  const auto run_chunk = [&](std::size_t c) {
    const std::size_t first = plan.begin(c);
    const std::size_t last = plan.end(c, spec.node_count);

    std::optional<obs::Tracer::Span> span;
    if (obs_on) {
      span.emplace(obs::tracer().span("fleet_chunk", "fleet"));
      span->arg("chunk", static_cast<double>(c));
      span->arg("first_node", static_cast<double>(first));
      span->arg("nodes", static_cast<double>(last - first));
      span->arg("queue_wait_us", obs::tracer().now_us() - submit_us);
    }
    const auto chunk_start = std::chrono::steady_clock::now();

    const std::size_t n = last - first;
    std::vector<NodeDraw> draws;
    draws.reserve(n);
    for (std::size_t node = first; node < last; ++node) {
      const NodeDraw& d = draws.emplace_back(detail::draw_node_prevalidated(spec, policies, node));
      if (options.analyze_load) clocks[node] = {d.report_period, d.burst_phase};
    }

    // Pass 1: simulate. Batchable nodes are collected and advanced in
    // one struct-of-arrays sweep; everything else runs the per-node
    // engine through the chunk's shared curve cache (created lazily so
    // fully-batched chunks never pay the warm-cache seed copy). Every
    // node shares the cell model, so in surrogate mode node k reuses the
    // log-lux grid entries nodes 0..k-1 already solved (trajectories are
    // unchanged; see CurveCache::prepare).
    std::vector<node::NodeReport> reports(n);
    std::vector<std::uint8_t> failed(n, 0);
    std::vector<std::uint8_t> batched(n, 0);
    std::vector<std::string> errors(n);
    std::vector<std::uint8_t> neutral(n, 0);
    std::vector<std::uint32_t> batch_members;
    std::optional<node::CurveCache> cache;
    for (std::size_t k = 0; k < n; ++k) {
      if (soa_plan && soa_plan->axes[draws[k].policy_index].batch) {
        batched[k] = 1;
        batch_members.push_back(static_cast<std::uint32_t>(k));
        continue;
      }
      if (hill::Outcome* lane = lanes ? lanes->outcome(first + k) : nullptr) {
        if (lane->failed) {
          failed[k] = 1;
          errors[k] = std::move(lane->error);
        } else {
          reports[k] = std::move(lane->report);
          // Lane nodes carry no battery: the supercap's initial voltage
          // is the neutrality reference.
          neutral[k] =
              reports[k].final_store_voltage >= spec.base.storage.initial_voltage ? 1 : 0;
        }
        continue;
      }
      try {
        const node::NodeConfig config = materialize_node(spec, draws[k]);
        const env::LightTrace& trace = *spec.environments[draws[k].env_index].trace;
        const sched::PreparedTrace* prep =
            prepared[draws[k].env_index] ? &*prepared[draws[k].env_index] : nullptr;
        if (!cache) {
          cache.emplace(
              *spec.cell, spec.base.temperature_k,
              node::CurveCache::Options{spec.base.power_model, spec.base.surrogate_points});
          if (warm_cache) cache->seed_entries(*warm_cache);
        }
        reports[k] = node::simulate_node(trace, config, &*cache, prep);
        neutral[k] =
            reports[k].final_store_voltage >= detail::initial_store_voltage(config) ? 1 : 0;
      } catch (const std::exception& e) {
        failed[k] = 1;
        errors[k] = e.what();
      } catch (...) {
        failed[k] = 1;
        errors[k] = "unknown exception";
      }
    }
    if (soa_plan) {
      soa::run_batch(*soa_plan, spec, draws, batch_members, reports);
      for (const std::uint32_t k : batch_members) {
        // Batched specs never carry batteries (build_plan rejects them),
        // so the neutrality reference is the supercap's initial voltage.
        neutral[k] =
            reports[k].final_store_voltage >= spec.base.storage.initial_voltage ? 1 : 0;
      }
    }

    // Pass 2: fold into the chunk partial in node order (the
    // accumulation order is part of the report's identity).
    FleetReport& acc = partials[c];
    std::size_t chunk_failed = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const bool energy_neutral = neutral[k] != 0;
      const double downtime_s = failed[k] != 0 ? 0.0 : reports[k].brownout_time;
      if (failed[k] != 0) {
        acc.add_failed_node(draws[k]);
        ++chunk_failed;
      } else {
        acc.add_node(draws[k], reports[k], energy_neutral, downtime_s);
        if (obs_on) {
          obs::metrics().observe(node_eff_id, reports[k].tracking_efficiency());
          obs::metrics().observe(node_downtime_id, downtime_s);
        }
      }
      if (want_jsonl) {
        jsonl_chunks[c] += detail::node_record_jsonl(spec, draws[k], reports[k],
                                                     failed[k] != 0, errors[k], energy_neutral,
                                                     downtime_s);
        jsonl_chunks[c] += '\n';
      }
    }

    const double chunk_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - chunk_start).count();
    if (span) {
      span->arg("failed", static_cast<double>(chunk_failed));
      span->arg("batched", static_cast<double>(batch_members.size()));
      span->finish();
      static const obs::CounterId chunks_id = obs::metrics().counter("fleet.chunks");
      static const obs::CounterId nodes_id = obs::metrics().counter("fleet.nodes");
      static const obs::CounterId failed_id = obs::metrics().counter("fleet.nodes_failed");
      static const obs::CounterId batched_id = obs::metrics().counter("fleet.soa.nodes_batched");
      static const obs::CounterId fallback_id =
          obs::metrics().counter("fleet.soa.nodes_fallback");
      obs::metrics().add(chunks_id);
      obs::metrics().add(nodes_id, static_cast<double>(last - first));
      if (chunk_failed > 0) obs::metrics().add(failed_id, static_cast<double>(chunk_failed));
      obs::metrics().add(batched_id, static_cast<double>(batch_members.size()));
      obs::metrics().add(fallback_id, static_cast<double>(n - batch_members.size()));
      obs::metrics().observe(chunk_wall_id, chunk_wall * 1e6);
    }

    std::lock_guard<std::mutex> lock(progress_mutex);
    ++progress.chunks_done;
    progress.nodes_done += last - first;
    progress.failed += chunk_failed;
    if (options.on_progress) options.on_progress(progress);
  };

  std::optional<obs::Tracer::Span> fleet_span;
  if (obs_on) {
    fleet_span.emplace(obs::tracer().span("fleet", "fleet"));
    fleet_span->arg("nodes", static_cast<double>(spec.node_count));
    fleet_span->arg("chunks", static_cast<double>(plan.count));
  }

  const auto start = std::chrono::steady_clock::now();
  int jobs_used = 1;
  if (options.jobs == 1) {
    // Inline serial path: the reference execution the determinism tests
    // compare threaded runs against.
    if (lanes) lanes->run_task(0, lanes->task_count(1));
    for (std::size_t c = 0; c < plan.count; ++c) run_chunk(c);
  } else {
    runtime::ThreadPool pool(options.jobs);
    jobs_used = pool.thread_count();
    if (lanes) {
      const std::size_t tasks = lanes->task_count(jobs_used);
      pool.parallel_for(tasks, [&](std::size_t t) { lanes->run_task(t, tasks); });
    }
    pool.parallel_for(plan.count, run_chunk);
  }

  // Ordered merge: chunk partials fold in chunk-index order, so the
  // floating-point accumulation order never depends on the schedule.
  FleetReport result = detail::make_skeleton(spec, policies);
  for (const FleetReport& p : partials) result.merge(p);
  if (options.analyze_load) result.load = detail::load_concurrency(spec, clocks, 0.0);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.jobs_used = jobs_used;

  if (want_jsonl) {
    std::string all;
    for (const std::string& chunk : jsonl_chunks) all += chunk;
    write_text_file(options.jsonl_path, all);
  }

  if (obs_on) {
    fleet_span->arg("jobs_used", static_cast<double>(jobs_used));
    fleet_span->arg("failed", static_cast<double>(result.nodes_failed));
    obs::events().emit("fleet_complete", result.duration_s,
                       {{"nodes", static_cast<double>(spec.node_count)},
                        {"chunks", static_cast<double>(plan.count)},
                        {"jobs_used", jobs_used},
                        {"failed", static_cast<double>(result.nodes_failed)},
                        {"energy_neutral_fraction", result.energy_neutral_fraction()},
                        {"wall_s", result.wall_seconds}});
  }
  return result;
}

}  // namespace focv::fleet
