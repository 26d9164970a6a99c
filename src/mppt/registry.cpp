#include "mppt/registry.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "mppt/baselines.hpp"
#include "mppt/gradient_descent.hpp"
#include "obs/obs.hpp"

namespace focv::mppt {

namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

[[noreturn]] void fail_spec(const std::string& spec, const std::string& what) {
  if (obs::enabled()) {
    static const obs::CounterId errors_id = obs::metrics().counter("mppt.spec.errors");
    obs::metrics().add(errors_id);
  }
  throw SpecError("mppt spec \"" + spec + "\": " + what);
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

std::string param_keys(const Registry::Entry& entry) {
  std::string out;
  for (const ParamDesc& p : entry.params) {
    if (!out.empty()) out += ", ";
    out += p.key;
  }
  return out;
}

void register_builtins(Registry& registry);

}  // namespace

double ResolvedSpec::value(const std::string& key) const {
  for (const Value& v : params) {
    if (v.key == key) return v.value;
  }
  throw SpecError("ResolvedSpec \"" + name + "\": unknown parameter \"" + key + "\"");
}

bool ResolvedSpec::is_set(const std::string& key) const {
  for (const Value& v : params) {
    if (v.key == key) return v.is_set;
  }
  throw SpecError("ResolvedSpec \"" + name + "\": unknown parameter \"" + key + "\"");
}

Registry& Registry::instance() {
  static Registry* registry = [] {
    auto* r = new Registry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void Registry::add(Entry entry) {
  require(!entry.name.empty() && entry.factory != nullptr,
          "mppt::Registry::add: entry needs a name and a factory");
  for (const ParamDesc& p : entry.params) {
    require(!p.key.empty() && p.min_value <= p.max_value &&
                p.default_value >= p.min_value && p.default_value <= p.max_value,
            "mppt::Registry::add(" + entry.name + "): bad descriptor for \"" + p.key + "\"");
  }
  if (!entry.period_key.empty()) {
    bool found = false;
    for (const ParamDesc& p : entry.params) found = found || p.key == entry.period_key;
    require(found, "mppt::Registry::add(" + entry.name + "): period_key \"" +
                       entry.period_key + "\" is not a parameter");
  }
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const Entry& e : entries_) {
    require(e.name != entry.name,
            "mppt::Registry::add: \"" + entry.name + "\" is already registered");
  }
  entries_.push_back(std::move(entry));
}

bool Registry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

const Registry::Entry& Registry::entry(const std::string& name) const {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const Entry& e : entries_) {
    if (e.name == name) return e;
  }
  throw SpecError("mppt registry: unknown controller \"" + name +
                  "\"; registered: " + joined(names_unlocked()));
}

std::vector<std::string> Registry::names() const {
  std::lock_guard<std::mutex> lock(registry_mutex());
  return names_unlocked();
}

std::vector<std::string> Registry::names_unlocked() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  std::sort(out.begin(), out.end());
  return out;
}

ResolvedSpec Registry::resolve(const std::string& spec) const {
  if (obs::enabled()) {
    static const obs::CounterId parses_id = obs::metrics().counter("mppt.spec.parses");
    obs::metrics().add(parses_id);
  }
  const ParsedSpec parsed = parse_spec_string(spec);
  if (!contains(parsed.name)) {
    fail_spec(spec, "unknown controller \"" + parsed.name +
                        "\"; registered: " + joined(names()));
  }
  const Entry& e = entry(parsed.name);

  ResolvedSpec out;
  out.name = e.name;
  out.params.reserve(e.params.size());
  for (const ParamDesc& p : e.params) {
    out.params.push_back({p.key, p.default_value, false});
  }

  for (const auto& [key, raw] : parsed.params) {
    const ParamDesc* desc = nullptr;
    ResolvedSpec::Value* slot = nullptr;
    for (std::size_t i = 0; i < e.params.size(); ++i) {
      if (e.params[i].key == key) {
        desc = &e.params[i];
        slot = &out.params[i];
        break;
      }
    }
    if (desc == nullptr) {
      fail_spec(spec, "unknown parameter \"" + key + "\" for \"" + e.name +
                          "\"; valid: " + param_keys(e));
    }
    double value = 0.0;
    try {
      value = parse_value(raw, desc->unit);
    } catch (const SpecError& err) {
      fail_spec(spec, std::string("parameter \"") + key + "\": " + err.what());
    }
    if (value < desc->min_value || value > desc->max_value) {
      fail_spec(spec, "parameter \"" + key + "=" + raw + "\" out of range [" +
                          format_value(desc->min_value, desc->unit) + ", " +
                          format_value(desc->max_value, desc->unit) + "]");
    }
    slot->value = value;
    slot->is_set = true;
  }

  // Canonical print: explicitly set, non-default values in catalog order.
  std::string args;
  for (std::size_t i = 0; i < e.params.size(); ++i) {
    const ResolvedSpec::Value& v = out.params[i];
    if (!v.is_set || v.value == e.params[i].default_value) continue;
    if (!args.empty()) args += ",";
    args += v.key + "=" + format_value(v.value, e.params[i].unit);
  }
  out.canonical = args.empty() ? e.name : e.name + "[" + args + "]";
  return out;
}

std::string Registry::canonical(const std::string& spec) const {
  return resolve(spec).canonical;
}

std::unique_ptr<MpptController> Registry::make(const std::string& spec) const {
  return make(resolve(spec));
}

std::unique_ptr<MpptController> Registry::make(const ResolvedSpec& resolved) const {
  const Entry& e = entry(resolved.name);
  try {
    auto controller = e.factory(resolved);
    if (controller == nullptr) {
      throw InvariantError("mppt registry: factory for \"" + e.name + "\" returned null");
    }
    return controller;
  } catch (const SpecError&) {
    throw;
  } catch (const PreconditionError& err) {
    // Cross-parameter constraints enforced by the controller ctor.
    throw SpecError("mppt spec \"" + resolved.spec() + "\": " + err.what());
  }
}

std::string Registry::catalog() const {
  std::string out;
  for (const std::string& name : names()) {
    const Entry& e = entry(name);
    out += "  " + e.name;
    if (!e.params.empty()) out += "[" + param_keys(e) + "]";
    out += "\n      " + e.summary + "\n";
    for (const ParamDesc& p : e.params) {
      out += "      " + p.key + " = " + format_value(p.default_value, p.unit) +
             "  (range " + format_value(p.min_value, p.unit) + " .. " +
             format_value(p.max_value, p.unit) + ")  " + p.help + "\n";
    }
  }
  return out;
}

namespace {

// ------------------------------------------------------------------
// Builtin entries: the paper's baselines (Section IV-B hardware
// classes) plus the adaptive gradient-descent tracker. Defaults match
// each controller's Params{} defaults exactly, so a registry-built
// controller is indistinguishable from a default-constructed one (the
// byte-determinism contract of the legacy enum shim). "focv" itself is
// registered by focv::core (component-level SystemSpec lives there).

void register_builtins(Registry& r) {
  const double kLuxMax = 200e3;

  {
    Registry::Entry e;
    e.name = "pando";
    e.summary = "perturb & observe hill climbing [2]: uC + ADC, fixed voltage step";
    e.params = {
        {"step", Unit::kVoltage, 0.05, 1e-4, 1.0, "perturbation step"},
        {"period", Unit::kTime, 1.0, 0.01, 3600.0, "decision cadence"},
        {"start", Unit::kVoltage, 2.0, 0.0, 12.0, "initial operating point"},
        {"vmax", Unit::kVoltage, 8.0, 0.1, 24.0, "slew limit"},
        {"overhead", Unit::kPower, 1.0e-3, 0.0, 1.0, "uC + ADC draw"},
        {"min_lux", Unit::kLux, 1500.0, 0.0, kLuxMax, "supply floor"},
    };
    e.ops_per_decision = 6.0;  // ADC read, subtract, compare, add, clamp
    e.period_key = "period";
    e.factory = [](const ResolvedSpec& s) -> std::unique_ptr<MpptController> {
      HillClimbingController::Params p;
      p.voltage_step = s.value("step");
      p.update_period = s.value("period");
      p.start_voltage = s.value("start");
      p.max_voltage = s.value("vmax");
      p.overhead = s.value("overhead");
      p.min_lux = s.value("min_lux");
      return std::make_unique<HillClimbingController>(p);
    };
    r.add(std::move(e));
  }

  {
    Registry::Entry e;
    e.name = "inccond";
    e.summary = "incremental conductance [2]: dI/dV vs -I/V on the same uC hardware";
    e.params = {
        {"step", Unit::kVoltage, 0.05, 1e-4, 1.0, "voltage step"},
        {"period", Unit::kTime, 1.0, 0.01, 3600.0, "decision cadence"},
        {"start", Unit::kVoltage, 2.0, 0.0, 12.0, "initial operating point"},
        {"vmax", Unit::kVoltage, 8.0, 0.1, 24.0, "slew limit"},
        {"tol", Unit::kNone, 1e-7, 0.0, 1.0, "conductance match tolerance [A/V]"},
        {"overhead", Unit::kPower, 1.0e-3, 0.0, 1.0, "uC + ADC draw"},
        {"min_lux", Unit::kLux, 1500.0, 0.0, kLuxMax, "supply floor"},
    };
    e.ops_per_decision = 10.0;  // two ADC reads, divide, compare chain
    e.period_key = "period";
    e.factory = [](const ResolvedSpec& s) -> std::unique_ptr<MpptController> {
      IncrementalConductanceController::Params p;
      p.voltage_step = s.value("step");
      p.update_period = s.value("period");
      p.start_voltage = s.value("start");
      p.max_voltage = s.value("vmax");
      p.tolerance = s.value("tol");
      p.overhead = s.value("overhead");
      p.min_lux = s.value("min_lux");
      return std::make_unique<IncrementalConductanceController>(p);
    };
    r.add(std::move(e));
  }

  {
    Registry::Entry e;
    e.name = "graddesc";
    e.summary =
        "adaptive gradient-descent tracker (arXiv 2511.20895): lr anneals on overshoot";
    e.params = {
        {"lr", Unit::kNone, 0.05, 1e-5, 100.0, "initial learning rate [V^2/W]"},
        {"decay", Unit::kNone, 0.9, 0.1, 1.0, "lr multiplier on sign reversal"},
        {"lr_min", Unit::kNone, 1e-3, 0.0, 10.0, "learning-rate floor"},
        {"period", Unit::kTime, 1.0, 0.01, 3600.0, "decision cadence"},
        {"start", Unit::kVoltage, 2.0, 0.0, 12.0, "initial operating point"},
        {"vmax", Unit::kVoltage, 8.0, 0.1, 24.0, "slew limit"},
        {"max_step", Unit::kVoltage, 0.2, 1e-3, 5.0, "per-decision voltage bound"},
        {"probe", Unit::kVoltage, 0.02, 1e-4, 1.0, "bootstrap perturbation"},
        {"overhead", Unit::kPower, 120e-6, 0.0, 1.0, "low-duty MCU + ADC draw"},
        {"min_lux", Unit::kLux, 400.0, 0.0, kLuxMax, "supply floor"},
    };
    e.ops_per_decision = 14.0;  // gradient divide, lr multiply, clamps, history
    e.period_key = "period";
    e.factory = [](const ResolvedSpec& s) -> std::unique_ptr<MpptController> {
      GradientDescentController::Params p;
      p.learning_rate = s.value("lr");
      p.decay = s.value("decay");
      p.lr_min = s.value("lr_min");
      p.update_period = s.value("period");
      p.start_voltage = s.value("start");
      p.max_voltage = s.value("vmax");
      p.max_step = s.value("max_step");
      p.probe_step = s.value("probe");
      p.overhead = s.value("overhead");
      p.min_lux = s.value("min_lux");
      return std::make_unique<GradientDescentController>(p);
    };
    r.add(std::move(e));
  }

  {
    Registry::Entry e;
    e.name = "pilot";
    e.summary = "pilot-cell FOCV [5]: matched open-circuit cell, ~300 uW support";
    e.params = {
        {"k", Unit::kNone, 0.60, 0.05, 0.95, "FOCV fraction"},
        {"scale", Unit::kNone, 1.0, 0.01, 100.0, "main Voc / pilot Voc ratio"},
        {"mismatch", Unit::kNone, 0.97, 0.5, 1.5, "systematic pilot error"},
        {"overhead", Unit::kPower, 300e-6, 0.0, 1.0, "support circuitry"},
        {"min_lux", Unit::kLux, 500.0, 0.0, kLuxMax, "supply floor"},
    };
    e.factory = [](const ResolvedSpec& s) -> std::unique_ptr<MpptController> {
      PilotCellFocvController::Params p;
      p.k = s.value("k");
      p.pilot_scale = s.value("scale");
      p.mismatch = s.value("mismatch");
      p.overhead = s.value("overhead");
      p.min_lux = s.value("min_lux");
      return std::make_unique<PilotCellFocvController>(p);
    };
    r.add(std::move(e));
  }

  {
    Registry::Entry e;
    e.name = "photo";
    e.summary = "photodetector proxy (AmbiMax [6]): Vset = a + b ln(lux), two-point cal";
    e.params = {
        {"lux1", Unit::kLux, 500.0, 1.0, kLuxMax, "calibration point 1 illuminance"},
        {"v1", Unit::kVoltage, 3.18, 0.0, 24.0, "calibration point 1 Vmpp"},
        {"lux2", Unit::kLux, 5000.0, 1.0, kLuxMax, "calibration point 2 illuminance"},
        {"v2", Unit::kVoltage, 3.22, 0.0, 24.0, "calibration point 2 Vmpp"},
        {"gain_err", Unit::kNone, 1.05, 0.5, 2.0, "photodiode calibration error"},
        {"overhead", Unit::kPower, 1.65e-3, 0.0, 1.0, "500 uA at 3.3 V"},
        {"min_lux", Unit::kLux, 2500.0, 0.0, kLuxMax, "supply floor"},
    };
    e.factory = [](const ResolvedSpec& s) -> std::unique_ptr<MpptController> {
      PhotodetectorController::Params base;
      base.sensor_gain_error = s.value("gain_err");
      base.overhead = s.value("overhead");
      base.min_lux = s.value("min_lux");
      return std::make_unique<PhotodetectorController>(PhotodetectorController::calibrate(
          s.value("lux1"), s.value("v1"), s.value("lux2"), s.value("v2"), base));
    };
    r.add(std::move(e));
  }

  {
    Registry::Entry e;
    e.name = "periodic";
    e.summary = "100 ms periodic-disconnect FOCV [4]: frequent sampling, ~2 mW";
    e.params = {
        {"k", Unit::kNone, 0.60, 0.05, 0.95, "FOCV fraction"},
        {"period", Unit::kTime, 100e-3, 1e-3, 3600.0, "disconnect period"},
        {"sample", Unit::kTime, 5e-3, 1e-4, 10.0, "open-circuit dwell"},
        {"overhead", Unit::kPower, 2.0e-3, 0.0, 1.0, "controller draw"},
        {"min_lux", Unit::kLux, 3000.0, 0.0, kLuxMax, "supply floor"},
    };
    e.ops_per_decision = 4.0;  // timer, S&H trigger, compare
    e.period_key = "period";
    e.factory = [](const ResolvedSpec& s) -> std::unique_ptr<MpptController> {
      PeriodicDisconnectFocvController::Params p;
      p.k = s.value("k");
      p.period = s.value("period");
      p.sample_duration = s.value("sample");
      p.overhead = s.value("overhead");
      p.min_lux = s.value("min_lux");
      return std::make_unique<PeriodicDisconnectFocvController>(p);
    };
    r.add(std::move(e));
  }

  {
    Registry::Entry e;
    e.name = "fixed";
    e.summary = "fixed-voltage operation [8]: reference IC, correct only near design lux";
    e.params = {
        {"v", Unit::kVoltage, 3.0, 0.0, 24.0, "design operating point"},
        {"overhead", Unit::kPower, 36.3e-6, 0.0, 1.0, "reference IC draw"},
        {"min_lux", Unit::kLux, 150.0, 0.0, kLuxMax, "supply floor"},
    };
    e.factory = [](const ResolvedSpec& s) -> std::unique_ptr<MpptController> {
      FixedVoltageController::Params p;
      p.voltage = s.value("v");
      p.overhead = s.value("overhead");
      p.min_lux = s.value("min_lux");
      return std::make_unique<FixedVoltageController>(p);
    };
    r.add(std::move(e));
  }

  {
    Registry::Entry e;
    e.name = "direct";
    e.summary = "no MPPT [7]: diode-coupled to the store, operates at store voltage";
    e.params = {
        {"drop", Unit::kVoltage, 0.25, 0.0, 1.0, "Schottky diode drop"},
        {"overhead", Unit::kPower, 0.0, 0.0, 1.0, "none"},
    };
    e.factory = [](const ResolvedSpec& s) -> std::unique_ptr<MpptController> {
      DirectConnectionController::Params p;
      p.diode_drop = s.value("drop");
      p.overhead = s.value("overhead");
      return std::make_unique<DirectConnectionController>(p);
    };
    r.add(std::move(e));
  }
}

}  // namespace

}  // namespace focv::mppt
