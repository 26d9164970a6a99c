#include "serve/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/json.hpp"
#include "common/require.hpp"
#include "core/focv_system.hpp"
#include "env/profiles.hpp"
#include "env/segments.hpp"
#include "fleet/fleet.hpp"
#include "mppt/registry.hpp"
#include "node/harvester_node.hpp"
#include "obs/obs.hpp"
#include "pv/cell_library.hpp"
#include "sched/options.hpp"

namespace focv::serve {

namespace {

/// Non-owning shared_ptr onto a library singleton (the aliasing-ctor
/// idiom NodeConfig::use_cell uses).
std::shared_ptr<const pv::SingleDiodeModel> borrow_cell(const pv::SingleDiodeModel& cell) {
  return {std::shared_ptr<const pv::SingleDiodeModel>(), &cell};
}

ComputeResult bad_request(std::string message) {
  ComputeResult fail;
  fail.code = errc::kBadRequest;
  fail.message = std::move(message);
  return fail;
}

ComputeResult bad_spec(const mppt::SpecError& error) {
  ComputeResult fail;
  fail.code = errc::kBadSpec;
  fail.message = error.what();
  fail.token = offending_token(fail.message);
  fail.hint = spec_catalog_hint();
  return fail;
}

/// Every op the server answers, in catalog order.
constexpr const char* kOps[] = {"ping",  "catalog", "sim",   "sizing",
                                "sweep", "fleet",   "stats", "burn"};

ComputeResult unknown_op(const std::string& op) {
  ComputeResult fail;
  fail.code = errc::kUnknownOp;
  fail.message = "unknown op \"" + op + "\"";
  fail.token = op;
  fail.hint = "ops:";
  for (const char* name : kOps) {
    fail.hint += ' ';
    fail.hint += name;
  }
  return fail;
}

/// Fetch an optional finite number field; false (and a filled `fail`)
/// on a present-but-wrong-type or non-finite value.
bool read_number(const Json& body, const char* key, double& value, ComputeResult& fail) {
  const Json* member = body.find(key);
  if (member == nullptr) return true;
  if (!member->is_number() || !std::isfinite(member->as_number())) {
    fail = bad_request(std::string("\"") + key + "\" must be a finite number");
    fail.token = key;
    return false;
  }
  value = member->as_number();
  return true;
}

void append_number_field(std::string& key, const char* name, double value) {
  key += '|';
  key += name;
  key += '=';
  key += format_number(value);
}

}  // namespace

std::string ComputeResult::render(const std::string& id_json) const {
  if (ok) return ok_response(id_json, result_json);
  return error_response(id_json, code, message, token, hint);
}

// --- parsed parameter bags -------------------------------------------

struct SessionState::SimParams {
  EnvState* env = nullptr;
  std::string spec;  ///< canonical controller spec
};

struct SessionState::SizingParams {
  EnvState* env = nullptr;
  std::string spec;
  double report_period_s = 60.0;
  double min_factor = 0.1;
  double max_factor = 64.0;
};

struct SessionState::SweepParams {
  EnvState* env = nullptr;
  std::vector<std::string> specs;
  double report_period_s = 60.0;
  double min_factor = 0.1;
  double max_factor = 64.0;
};

struct SessionState::FleetParams {
  std::size_t nodes = 100;
  std::uint64_t seed = 2024;
  /// (environment, weight); defaults to every resident environment at
  /// weight 1 when the request lists none.
  std::vector<std::pair<EnvState*, double>> environments;
  /// (canonical spec, weight); defaults to the paper controller.
  std::vector<std::pair<std::string, double>> policies;
};

// --- construction ----------------------------------------------------

SessionState::SessionState(Options options)
    : options_(std::move(options)), cell_(borrow_cell(pv::sanyo_am1815())) {
  core::register_paper_controller();  // independent of static pull-in order
  const auto add_env = [this](std::string name, env::LightTrace trace) {
    auto state = std::make_unique<EnvState>();
    state->name = std::move(name);
    state->trace = std::make_shared<const env::LightTrace>(std::move(trace));
    environments_.push_back(std::move(state));
  };
  // The paper's measurement campaigns (env/profiles.hpp), built once:
  // every query refers to these by name instead of shipping a trace.
  add_env("office", env::office_desk_mixed());
  add_env("office_sunday", env::desk_sunday_blinds_closed());
  add_env("semi_mobile", env::semi_mobile_day());
  add_env("outdoor", env::outdoor_day({}));
}

std::vector<std::string> SessionState::environment_names() const {
  std::vector<std::string> names;
  names.reserve(environments_.size());
  for (const auto& env : environments_) names.push_back(env->name);
  return names;
}

SessionState::EnvState* SessionState::find_env(const std::string& name) const {
  for (const auto& env : environments_) {
    if (env->name == name) return env.get();
  }
  return nullptr;
}

// --- single-flight environment warm-up -------------------------------

void SessionState::warm(EnvState& env) {
  std::unique_lock lock(env.mutex);
  while (env.state == EnvState::Warm::kBuilding) env.warmed.wait(lock);
  if (env.state == EnvState::Warm::kReady) return;
  // This thread becomes the builder; concurrent arrivals wait above.
  env.state = EnvState::Warm::kBuilding;
  lock.unlock();
  try {
    // The segmentation of an event run under default EventOptions, which
    // simulate_node requires of a caller's prepared trace.
    auto prepared = std::make_unique<sched::PreparedTrace>(
        *env.trace, *cell_, sched::segmentation_for(sched::EventOptions{}));
    auto sizing = std::make_unique<node::SizingContext>(*env.trace, *cell_);

    node::CurveCache::Options cache_options;
    cache_options.surrogate_points = options_.surrogate_points;
    auto master =
        std::make_unique<node::CurveCache>(*cell_, options_.temperature_k, cache_options);
    double lux_lo = 0.0, lux_hi = 0.0;
    for (const double lux : prepared->eq_lux()) {
      if (lux < node::CurveCache::kDarkLux) continue;
      if (lux_hi == 0.0) lux_lo = lux_hi = lux;
      lux_lo = std::min(lux_lo, lux);
      lux_hi = std::max(lux_hi, lux);
    }
    // Warming only front-loads exact solves — entry values depend on
    // the grid index alone (node/curve_cache.hpp), never on who asked.
    if (lux_hi > 0.0) master->warm_range(lux_lo, lux_hi);

    lock.lock();
    env.prepared = std::move(prepared);
    env.sizing = std::move(sizing);
    env.master = std::move(master);
    env.state = EnvState::Warm::kReady;
    lock.unlock();
    warm_builds_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      static const obs::CounterId id = obs::metrics().counter("serve.env_warmups");
      obs::metrics().add(id, 1.0);
    }
  } catch (...) {
    lock.lock();
    env.state = EnvState::Warm::kCold;
    lock.unlock();
    env.warmed.notify_all();
    throw;
  }
  env.warmed.notify_all();
}

SessionState::CacheLease::CacheLease(SessionState& session, EnvState& env) : env_(env) {
  {
    std::lock_guard guard(env.pool_mutex);
    if (!env.cache_pool.empty()) {
      cache_ = std::move(env.cache_pool.back());
      env.cache_pool.pop_back();
    }
  }
  if (cache_ == nullptr) {
    node::CurveCache::Options cache_options;
    cache_options.surrogate_points = session.options_.surrogate_points;
    cache_ = std::make_unique<node::CurveCache>(*session.cell_, session.options_.temperature_k,
                                                cache_options);
    // `master` is read-only once the env is warm, so seeding needs no
    // lock. Seeded entries make a fresh lease as warm as the master.
    cache_->seed_entries(*env.master);
  }
}

SessionState::CacheLease::~CacheLease() {
  std::lock_guard guard(env_.pool_mutex);
  env_.cache_pool.push_back(std::move(cache_));
}

// --- parse helpers ---------------------------------------------------

bool SessionState::parse_sim(const Request& request, SimParams& out, ComputeResult& fail) const {
  const std::string env_name = request.body.string_or("env", "");
  out.env = find_env(env_name);
  if (out.env == nullptr) {
    fail = bad_request("unknown environment \"" + env_name + "\"");
    fail.code = errc::kUnknownEnv;
    fail.token = env_name;
    fail.hint = "environments:";
    for (const auto& env : environments_) {
      fail.hint += ' ';
      fail.hint += env->name;
    }
    return false;
  }
  try {
    out.spec = mppt::Registry::instance().canonical(request.body.string_or("spec", "focv"));
  } catch (const mppt::SpecError& error) {
    fail = bad_spec(error);
    return false;
  }
  return true;
}

bool SessionState::parse_sizing(const Request& request, SizingParams& out,
                                ComputeResult& fail) const {
  SimParams sim;
  if (!parse_sim(request, sim, fail)) return false;
  out.env = sim.env;
  out.spec = std::move(sim.spec);
  if (!read_number(request.body, "report_period_s", out.report_period_s, fail) ||
      !read_number(request.body, "min_factor", out.min_factor, fail) ||
      !read_number(request.body, "max_factor", out.max_factor, fail)) {
    return false;
  }
  if (out.report_period_s < 1.0 || out.report_period_s > 86400.0) {
    fail = bad_request("\"report_period_s\" must be in [1, 86400]");
    return false;
  }
  if (out.min_factor <= 0.0 || out.max_factor <= out.min_factor) {
    fail = bad_request("factor range needs 0 < min_factor < max_factor");
    return false;
  }
  return true;
}

bool SessionState::parse_sweep(const Request& request, SweepParams& out,
                               ComputeResult& fail) const {
  SizingParams sizing;
  if (!parse_sizing(request, sizing, fail)) return false;
  out.env = sizing.env;
  out.report_period_s = sizing.report_period_s;
  out.min_factor = sizing.min_factor;
  out.max_factor = sizing.max_factor;
  const Json* specs = request.body.find("specs");
  if (specs == nullptr || !specs->is_array() || specs->items().empty()) {
    fail = bad_request("\"specs\" must be a non-empty array of controller spec strings");
    return false;
  }
  if (specs->items().size() > 32) {
    fail = bad_request("\"specs\" is limited to 32 controllers per sweep");
    return false;
  }
  for (const Json& item : specs->items()) {
    if (!item.is_string()) {
      fail = bad_request("\"specs\" must contain only strings");
      return false;
    }
    try {
      out.specs.push_back(mppt::Registry::instance().canonical(item.as_string()));
    } catch (const mppt::SpecError& error) {
      fail = bad_spec(error);
      return false;
    }
  }
  return true;
}

bool SessionState::parse_fleet(const Request& request, FleetParams& out,
                               ComputeResult& fail) const {
  double nodes = 100.0;
  double seed = 2024.0;
  if (!read_number(request.body, "nodes", nodes, fail) ||
      !read_number(request.body, "seed", seed, fail)) {
    return false;
  }
  if (nodes < 1.0 || nodes > static_cast<double>(options_.max_fleet_nodes) ||
      nodes != std::floor(nodes)) {
    fail = bad_request("\"nodes\" must be an integer in [1, " +
                       std::to_string(options_.max_fleet_nodes) + "]");
    return false;
  }
  if (seed < 0.0 || seed != std::floor(seed)) {
    fail = bad_request("\"seed\" must be a non-negative integer");
    return false;
  }
  out.nodes = static_cast<std::size_t>(nodes);
  out.seed = static_cast<std::uint64_t>(seed);

  if (const Json* envs = request.body.find("environments")) {
    if (!envs->is_array() || envs->items().empty()) {
      fail = bad_request("\"environments\" must be a non-empty array of {name, weight}");
      return false;
    }
    for (const Json& item : envs->items()) {
      const std::string name = item.string_or("name", "");
      EnvState* env = item.is_object() ? find_env(name) : nullptr;
      if (env == nullptr) {
        fail = bad_request("unknown environment \"" + name + "\" in \"environments\"");
        fail.code = errc::kUnknownEnv;
        fail.token = name;
        return false;
      }
      const double weight = item.number_or("weight", 1.0);
      if (!(weight > 0.0) || !std::isfinite(weight)) {
        fail = bad_request("environment weights must be finite and > 0");
        return false;
      }
      out.environments.emplace_back(env, weight);
    }
  } else {
    for (const auto& env : environments_) out.environments.emplace_back(env.get(), 1.0);
  }

  if (const Json* policies = request.body.find("policies")) {
    if (!policies->is_array() || policies->items().empty()) {
      fail = bad_request("\"policies\" must be a non-empty array of {spec, weight}");
      return false;
    }
    for (const Json& item : policies->items()) {
      if (!item.is_object()) {
        fail = bad_request("\"policies\" entries must be {spec, weight} objects");
        return false;
      }
      const double weight = item.number_or("weight", 1.0);
      if (!(weight > 0.0) || !std::isfinite(weight)) {
        fail = bad_request("policy weights must be finite and > 0");
        return false;
      }
      try {
        out.policies.emplace_back(
            mppt::Registry::instance().canonical(item.string_or("spec", "")), weight);
      } catch (const mppt::SpecError& error) {
        fail = bad_spec(error);
        return false;
      }
    }
  } else {
    out.policies.emplace_back("focv", 1.0);
  }
  return true;
}

bool SessionState::parse_burn(const Request& request, double& ms, ComputeResult& fail) const {
  if (!options_.enable_test_ops) {
    fail = bad_request("the burn op is disabled (start the server with --enable-test-ops)");
    return false;
  }
  ms = 1.0;
  if (!read_number(request.body, "ms", ms, fail)) return false;
  if (ms < 0.0 || ms > 10000.0) {
    fail = bad_request("\"ms\" must be in [0, 10000]");
    return false;
  }
  return true;
}

// --- canonical identity ----------------------------------------------

bool SessionState::canonicalize(const Request& request, CanonicalRequest& out,
                                std::string& error) const {
  out = CanonicalRequest{};
  ComputeResult fail;
  if (request.op == "ping" || request.op == "catalog") {
    out.key = request.op;
    return true;
  }
  if (request.op == "stats") return true;  // uncacheable, always executes
  if (request.op == "burn") {
    double ms = 0.0;
    if (!parse_burn(request, ms, fail)) {
      error = fail.render(request.id_json);
      return false;
    }
    return true;  // uncacheable by design (it exists to generate load)
  }
  if (request.op == "sim") {
    SimParams params;
    if (!parse_sim(request, params, fail)) {
      error = fail.render(request.id_json);
      return false;
    }
    out.key = "sim|env=" + params.env->name + "|ctl=" + params.spec;
    out.batch_group = "sim|" + params.env->name;
    return true;
  }
  if (request.op == "sizing") {
    SizingParams params;
    if (!parse_sizing(request, params, fail)) {
      error = fail.render(request.id_json);
      return false;
    }
    out.key = "sizing|env=" + params.env->name + "|ctl=" + params.spec;
    append_number_field(out.key, "period", params.report_period_s);
    append_number_field(out.key, "min", params.min_factor);
    append_number_field(out.key, "max", params.max_factor);
    out.batch_group = "sizing|" + params.env->name;
    return true;
  }
  if (request.op == "sweep") {
    SweepParams params;
    if (!parse_sweep(request, params, fail)) {
      error = fail.render(request.id_json);
      return false;
    }
    out.key = "sweep|env=" + params.env->name;
    append_number_field(out.key, "period", params.report_period_s);
    append_number_field(out.key, "min", params.min_factor);
    append_number_field(out.key, "max", params.max_factor);
    out.key += "|ctl=";
    for (std::size_t i = 0; i < params.specs.size(); ++i) {
      if (i > 0) out.key += ';';
      out.key += params.specs[i];
    }
    out.batch_group = "sweep|" + params.env->name;
    return true;
  }
  if (request.op == "fleet") {
    FleetParams params;
    if (!parse_fleet(request, params, fail)) {
      error = fail.render(request.id_json);
      return false;
    }
    out.key = "fleet|nodes=" + std::to_string(params.nodes) +
              "|seed=" + std::to_string(params.seed) + "|envs=";
    for (std::size_t i = 0; i < params.environments.size(); ++i) {
      if (i > 0) out.key += ',';
      out.key += params.environments[i].first->name;
      out.key += ':';
      out.key += format_number(params.environments[i].second);
    }
    out.key += "|policies=";
    for (std::size_t i = 0; i < params.policies.size(); ++i) {
      if (i > 0) out.key += ',';
      out.key += params.policies[i].first;
      out.key += ':';
      out.key += format_number(params.policies[i].second);
    }
    out.batch_group = "fleet";
    return true;
  }
  error = unknown_op(request.op).render(request.id_json);
  return false;
}

// --- response cache --------------------------------------------------

bool SessionState::cache_lookup(const std::string& key, std::string& result_json) {
  std::lock_guard guard(cache_mutex_);
  const auto it = response_cache_.find(key);
  if (it == response_cache_.end()) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  result_json = it->second;
  return true;
}

void SessionState::cache_insert(const std::string& key, const std::string& result_json) {
  std::lock_guard guard(cache_mutex_);
  if (response_cache_.size() >= options_.response_cache_capacity) return;
  response_cache_.emplace(key, result_json);
}

// --- op execution ----------------------------------------------------

ComputeResult SessionState::compute(const Request& request) {
  try {
    if (request.op == "ping") return compute_ping();
    if (request.op == "catalog") return compute_catalog();
    if (request.op == "sim") return compute_sim(request);
    if (request.op == "sizing") return compute_sizing(request);
    if (request.op == "sweep") return compute_sweep(request);
    if (request.op == "fleet") return compute_fleet(request);
    if (request.op == "stats") return compute_stats();
    if (request.op == "burn") return compute_burn(request);
    return unknown_op(request.op);
  } catch (const mppt::SpecError& error) {
    return bad_spec(error);
  } catch (const PreconditionError& error) {
    return bad_request(error.what());
  } catch (const std::exception& error) {
    ComputeResult fail;
    fail.code = errc::kInternal;
    fail.message = error.what();
    return fail;
  }
}

ComputeResult SessionState::compute_ping() const {
  ComputeResult result;
  result.ok = true;
  result.result_json = "{\"pong\":true}";
  return result;
}

ComputeResult SessionState::compute_catalog() const {
  Json environments = Json::array();
  for (const auto& env : environments_) {
    Json entry = Json::object();
    entry.set("name", Json::string(env->name));
    entry.set("samples", Json::number(static_cast<double>(env->trace->size())));
    entry.set("duration_s", Json::number(env->trace->duration()));
    environments.push_back(std::move(entry));
  }
  Json controllers = Json::array();
  const mppt::Registry& registry = mppt::Registry::instance();
  for (const std::string& name : registry.names()) {
    const mppt::Registry::Entry& entry = registry.entry(name);
    Json controller = Json::object();
    controller.set("name", Json::string(entry.name));
    controller.set("summary", Json::string(entry.summary));
    Json params = Json::array();
    for (const mppt::ParamDesc& param : entry.params) {
      Json desc = Json::object();
      desc.set("key", Json::string(param.key));
      desc.set("default", Json::number(param.default_value));
      desc.set("min", Json::number(param.min_value));
      desc.set("max", Json::number(param.max_value));
      desc.set("help", Json::string(param.help));
      params.push_back(std::move(desc));
    }
    controller.set("params", std::move(params));
    controllers.push_back(std::move(controller));
  }
  Json ops = Json::array();
  for (const char* op : kOps) ops.push_back(Json::string(op));
  Json body = Json::object();
  body.set("environments", std::move(environments));
  body.set("controllers", std::move(controllers));
  body.set("ops", std::move(ops));

  ComputeResult result;
  result.ok = true;
  result.result_json = body.dump();
  return result;
}

ComputeResult SessionState::compute_sim(const Request& request) {
  SimParams params;
  ComputeResult fail;
  if (!parse_sim(request, params, fail)) return fail;
  EnvState& env = *params.env;
  warm(env);

  node::NodeConfig config;
  config.use_cell(cell_);
  config.use_controller(params.spec);
  config.stepper = node::Stepper::kEvent;
  config.surrogate_points = options_.surrogate_points;
  config.temperature_k = options_.temperature_k;

  const CacheLease lease(*this, env);
  const node::NodeReport report =
      node::simulate_node(*env.trace, config, lease.get(), env.prepared.get());

  // NOTE: model_evals / curve_entries are cache-state dependent (a warm
  // lease skips solves a cold one pays) and are deliberately excluded —
  // everything below is deterministic for (env, spec).
  Json body = Json::object();
  body.set("env", Json::string(env.name));
  body.set("spec", Json::string(params.spec));
  body.set("duration_s", Json::number(report.duration));
  body.set("harvested_j", Json::number(report.harvested_energy));
  body.set("delivered_j", Json::number(report.delivered_energy));
  body.set("overhead_j", Json::number(report.overhead_energy));
  body.set("load_served_j", Json::number(report.load_energy_served));
  body.set("ideal_mpp_j", Json::number(report.ideal_mpp_energy));
  body.set("net_j", Json::number(report.net_energy()));
  body.set("tracking_efficiency", Json::number(report.tracking_efficiency()));
  body.set("coldstart_time_s", Json::number(report.coldstart_time));
  body.set("brownout_time_s", Json::number(report.brownout_time));
  body.set("brownout_steps", Json::number(static_cast<double>(report.brownout_steps)));
  body.set("final_store_voltage", Json::number(report.final_store_voltage));
  body.set("steps", Json::number(static_cast<double>(report.steps)));
  body.set("events", Json::number(static_cast<double>(report.events)));

  ComputeResult result;
  result.ok = true;
  result.result_json = body.dump();
  return result;
}

namespace {

Json sizing_result_json(const node::SizingResult& sizing, double cell_area_cm2) {
  Json body = Json::object();
  body.set("feasible", Json::boolean(sizing.feasible));
  body.set("area_factor", Json::number(sizing.area_factor));
  body.set("cell_area_cm2", Json::number(sizing.area_factor * cell_area_cm2));
  body.set("daily_harvest_j", Json::number(sizing.daily_harvest_j));
  body.set("daily_load_j", Json::number(sizing.daily_load_j));
  body.set("storage_j", Json::number(sizing.storage_j));
  body.set("storage_f_at_3v", Json::number(sizing.storage_f_at_3v));
  return body;
}

}  // namespace

ComputeResult SessionState::compute_sizing(const Request& request) {
  SizingParams params;
  ComputeResult fail;
  if (!parse_sizing(request, params, fail)) return fail;
  EnvState& env = *params.env;
  warm(env);

  node::SizingQuery query;
  query.cell_model = cell_;
  query.scenario_trace = env.trace;
  query.use_controller(params.spec);
  query.load.report_period = params.report_period_s;
  query.temperature_k = options_.temperature_k;
  const node::SizingResult sizing = node::size_for_energy_neutrality(
      query, *env.sizing, params.min_factor, params.max_factor);

  Json body = sizing_result_json(sizing, cell_->area_cm2());
  body.set("env", Json::string(env.name));
  body.set("spec", Json::string(params.spec));

  ComputeResult result;
  result.ok = true;
  result.result_json = body.dump();
  return result;
}

ComputeResult SessionState::compute_sweep(const Request& request) {
  SweepParams params;
  ComputeResult fail;
  if (!parse_sweep(request, params, fail)) return fail;
  EnvState& env = *params.env;
  warm(env);

  // Items run sequentially inside this one computation: a compute() is
  // already a pool task, and waiting on nested pool work from inside a
  // task would deadlock a jobs=1 server. Cross-request parallelism
  // comes from the dispatcher, not from within one sweep.
  Json items = Json::array();
  for (const std::string& spec : params.specs) {
    node::SizingQuery query;
    query.cell_model = cell_;
    query.scenario_trace = env.trace;
    query.use_controller(spec);
    query.load.report_period = params.report_period_s;
    query.temperature_k = options_.temperature_k;
    const node::SizingResult sizing = node::size_for_energy_neutrality(
        query, *env.sizing, params.min_factor, params.max_factor);
    Json item = Json::object();
    item.set("spec", Json::string(spec));
    item.set("sizing", sizing_result_json(sizing, cell_->area_cm2()));
    items.push_back(std::move(item));
  }

  Json body = Json::object();
  body.set("env", Json::string(env.name));
  body.set("items", std::move(items));

  ComputeResult result;
  result.ok = true;
  result.result_json = body.dump();
  return result;
}

ComputeResult SessionState::compute_fleet(const Request& request) {
  FleetParams params;
  ComputeResult fail;
  if (!parse_fleet(request, params, fail)) return fail;

  fleet::FleetSpec spec;
  spec.node_count = params.nodes;
  spec.root_seed = params.seed;
  spec.use_cell(cell_);
  for (const auto& [env, weight] : params.environments) {
    spec.add_environment(env->name, env->trace, weight);
  }
  for (const auto& [policy, weight] : params.policies) spec.add_policy(policy, weight);
  spec.base.stepper = node::Stepper::kEvent;
  spec.base.surrogate_points = options_.surrogate_points;
  spec.base.temperature_k = options_.temperature_k;
  spec.engine = fleet::FleetEngine::kSoa;

  fleet::FleetOptions run_options;
  run_options.jobs = options_.fleet_jobs;
  const fleet::FleetReport report = fleet::run_fleet(spec, run_options);

  ComputeResult result;
  result.ok = true;
  // to_json(false) is byte-stable across runs and worker counts, so the
  // report embeds verbatim without a parse/re-print trip.
  result.result_json = report.to_json(false);
  return result;
}

ComputeResult SessionState::compute_stats() const {
  Json environments = Json::array();
  for (const auto& env : environments_) {
    Json entry = Json::object();
    entry.set("name", Json::string(env->name));
    bool ready = false;
    std::size_t pooled = 0;
    {
      std::lock_guard guard(env->mutex);
      ready = env->state == EnvState::Warm::kReady;
    }
    {
      std::lock_guard guard(env->pool_mutex);
      pooled = env->cache_pool.size();
    }
    entry.set("warm", Json::boolean(ready));
    entry.set("pooled_caches", Json::number(static_cast<double>(pooled)));
    environments.push_back(std::move(entry));
  }
  std::size_t cached = 0;
  {
    std::lock_guard guard(cache_mutex_);
    cached = response_cache_.size();
  }
  Json body = Json::object();
  body.set("cache_hits", Json::number(static_cast<double>(cache_hits_.load())));
  body.set("cache_misses", Json::number(static_cast<double>(cache_misses_.load())));
  body.set("cached_responses", Json::number(static_cast<double>(cached)));
  body.set("warm_builds", Json::number(static_cast<double>(warm_builds_.load())));
  body.set("obs_enabled", Json::boolean(obs::enabled()));
  body.set("environments", std::move(environments));

  ComputeResult result;
  result.ok = true;
  result.result_json = body.dump();
  return result;
}

ComputeResult SessionState::compute_burn(const Request& request) const {
  double ms = 0.0;
  ComputeResult fail;
  if (!parse_burn(request, ms, fail)) return fail;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::duration<double, std::milli>(ms);
  volatile double sink = 0.0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 1024; ++i) sink = sink + 1.0;
  }
  Json body = Json::object();
  body.set("burned_ms", Json::number(ms));
  ComputeResult result;
  result.ok = true;
  result.result_json = body.dump();
  return result;
}

}  // namespace focv::serve
