#include "circuit/ac_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "circuit/devices_sources.hpp"
#include "common/require.hpp"

namespace focv::circuit {

// ----------------------------------------------------------------- AcSweep

void AcSweep::append(double frequency_hz, std::vector<std::complex<double>> values) {
  require(values.size() == names_.size(), "AcSweep::append: sample width mismatch");
  frequency_.push_back(frequency_hz);
  values_.push_back(std::move(values));
}

std::size_t AcSweep::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  throw PreconditionError("AcSweep: unknown signal '" + name + "'");
}

std::vector<std::complex<double>> AcSweep::response(const std::string& name) const {
  const std::size_t idx = index_of(name);
  std::vector<std::complex<double>> out;
  out.reserve(values_.size());
  for (const auto& row : values_) out.push_back(row[idx]);
  return out;
}

std::vector<double> AcSweep::magnitude_db(const std::string& name) const {
  std::vector<double> out;
  for (const auto& v : response(name)) {
    out.push_back(20.0 * std::log10(std::max(std::abs(v), 1e-30)));
  }
  return out;
}

std::vector<double> AcSweep::phase_deg(const std::string& name) const {
  std::vector<double> out;
  for (const auto& v : response(name)) {
    out.push_back(std::arg(v) * 180.0 / std::numbers::pi);
  }
  return out;
}

double AcSweep::corner_frequency(const std::string& name) const {
  const std::vector<double> mag = magnitude_db(name);
  if (mag.empty()) return -1.0;
  const double reference = mag.front();
  for (std::size_t i = 1; i < mag.size(); ++i) {
    if (mag[i] <= reference - 3.0) {
      // Interpolate in log frequency between i-1 and i.
      const double f0 = std::log10(frequency_[i - 1]);
      const double f1 = std::log10(frequency_[i]);
      const double m0 = mag[i - 1];
      const double m1 = mag[i];
      const double t = (reference - 3.0 - m0) / (m1 - m0);
      return std::pow(10.0, f0 + t * (f1 - f0));
    }
  }
  return -1.0;
}

// ------------------------------------------------------------- complex LU

namespace {

using Complex = std::complex<double>;

std::vector<Complex> complex_lu_solve(std::vector<Complex> a, std::vector<Complex> b,
                                      std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(a[k * n + k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(a[r * n + k]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) throw ConvergenceError("ac_analyze: singular complex matrix");
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[k * n + c], a[pivot_row * n + c]);
      std::swap(b[k], b[pivot_row]);
    }
    const Complex pivot = a[k * n + k];
    for (std::size_t r = k + 1; r < n; ++r) {
      const Complex factor = a[r * n + k] / pivot;
      if (factor == Complex{}) continue;
      a[r * n + k] = Complex{};
      for (std::size_t c = k + 1; c < n; ++c) a[r * n + c] -= factor * a[k * n + c];
      b[r] -= factor * b[k];
    }
  }
  std::vector<Complex> x(n);
  for (std::size_t ri = n; ri-- > 0;) {
    Complex sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a[ri * n + c] * x[c];
    x[ri] = sum / a[ri * n + ri];
  }
  return x;
}

}  // namespace

AcSweep ac_analyze(Circuit& circuit, const AcOptions& options) {
  require(options.f_start > 0.0 && options.f_stop > options.f_start,
          "ac_analyze: bad frequency range");
  require(options.points_per_decade >= 1, "ac_analyze: points_per_decade must be >= 1");

  // 1. Operating point; devices linearise around it.
  const Vector x_op = dc_operating_point(circuit, options.dc, options.initial_guess);
  const Solution op(x_op, circuit.node_count(), 0.0);

  const int n = circuit.unknown_count();
  const int node_vars = circuit.node_count() - 1;
  const auto un = static_cast<std::size_t>(n);

  // 2. Small-signal stamps, frequency-independent: G (conductances at the
  //    operating point) and C (coefficients of jw); A = G + jwC. The rhs
  //    the stamps produce is discarded.
  Matrix g_real(un, un);
  Matrix c_imag(un, un);
  {
    Vector scratch_rhs(un, 0.0);
    StampContext g_ctx(g_real, scratch_rhs, x_op, circuit.node_count());
    StampContext c_ctx(c_imag, scratch_rhs, x_op, circuit.node_count());
    g_ctx.gmin = options.dc.newton.gmin;
    for (const auto& device : circuit.devices()) device->stamp_ac(op, g_ctx, c_ctx);
    for (int r = 0; r < node_vars; ++r) {
      g_real.at(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) +=
          options.dc.newton.gmin;
    }
  }

  // 3. The stimulus, unit magnitude.
  VoltageSource* v_stim = nullptr;
  CurrentSource* i_stim = nullptr;
  for (const auto& device : circuit.devices()) {
    if (device->name() != options.stimulus) continue;
    v_stim = dynamic_cast<VoltageSource*>(device.get());
    i_stim = dynamic_cast<CurrentSource*>(device.get());
  }
  require(v_stim != nullptr || i_stim != nullptr,
          "ac_analyze: stimulus '" + options.stimulus + "' is not an independent source");
  std::vector<Complex> b(un);
  if (v_stim != nullptr) {
    b[static_cast<std::size_t>(circuit.node_count() - 1 + v_stim->branch_index())] =
        Complex{1.0, 0.0};
  }
  if (i_stim != nullptr) {
    // CurrentSource lacks node accessors; its DC stamp writes -I0 at node
    // a and +I0 at node b into the rhs, normalised here to a unit injection.
    Matrix dummy(un, un);
    Vector rhs(un, 0.0);
    StampContext ictx(dummy, rhs, x_op, circuit.node_count());
    i_stim->stamp(ictx);
    double scale = 0.0;
    for (const double v : rhs) scale = std::max(scale, std::abs(v));
    require(scale > 0.0, "ac_analyze: current-source stimulus has zero DC value; "
                         "give it a nonzero waveform to define the injection nodes");
    for (std::size_t r = 0; r < un; ++r) b[r] = rhs[r] / scale;
  }

  AcSweep sweep(circuit.unknown_names());

  const double decades = std::log10(options.f_stop / options.f_start);
  const int points = std::max(2, static_cast<int>(decades * options.points_per_decade) + 1);

  for (int p = 0; p < points; ++p) {
    const double f = options.f_start * std::pow(10.0, decades * p / (points - 1));
    const double w = 2.0 * std::numbers::pi * f;
    std::vector<Complex> a(un * un);
    for (std::size_t r = 0; r < un; ++r) {
      for (std::size_t c = 0; c < un; ++c) {
        a[r * un + c] = Complex{g_real.at(r, c), w * c_imag.at(r, c)};
      }
    }
    sweep.append(f, complex_lu_solve(std::move(a), b, un));
  }
  return sweep;
}

}  // namespace focv::circuit
