// AC small-signal analysis against closed-form frequency responses.
#include <cmath>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/ac_analysis.hpp"
#include "circuit/devices_active.hpp"
#include "circuit/devices_passive.hpp"
#include "circuit/devices_sources.hpp"
#include "circuit/transient.hpp"
#include "common/require.hpp"

namespace focv::circuit {
namespace {

TEST(AcAnalysis, RcLowPassCornerAndRolloff) {
  // R = 1 kOhm, C = 1 uF: corner at 1/(2 pi R C) ~ 159.2 Hz.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("Vs", in, kGround, Waveform::dc(0.0));
  ckt.add<Resistor>("R", in, out, 1e3);
  ckt.add<Capacitor>("C", out, kGround, 1e-6);
  AcOptions opt;
  opt.f_start = 1.0;
  opt.f_stop = 1e5;
  opt.points_per_decade = 20;
  opt.stimulus = "Vs";
  const AcSweep sweep = ac_analyze(ckt, opt);
  EXPECT_NEAR(sweep.corner_frequency("out"), 159.15, 159.15 * 0.05);
  // One decade above the corner: -20 dB/decade slope.
  const auto mag = sweep.magnitude_db("out");
  const auto& f = sweep.frequency();
  double m_1k = 0.0, m_10k = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (std::abs(f[i] - 1e3) / 1e3 < 0.1) m_1k = mag[i];
    if (std::abs(f[i] - 1e4) / 1e4 < 0.1) m_10k = mag[i];
  }
  EXPECT_NEAR(m_1k - m_10k, 20.0, 1.5);
  // Phase heads to -90 degrees.
  EXPECT_NEAR(sweep.phase_deg("out").back(), -90.0, 3.0);
}

TEST(AcAnalysis, ResistiveDividerIsFlat) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId mid = ckt.node("mid");
  ckt.add<VoltageSource>("Vs", in, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R1", in, mid, 2e3);
  ckt.add<Resistor>("R2", mid, kGround, 2e3);
  AcOptions opt;
  opt.stimulus = "Vs";
  const AcSweep sweep = ac_analyze(ckt, opt);
  for (const double m : sweep.magnitude_db("mid")) EXPECT_NEAR(m, -6.02, 0.1);
  EXPECT_DOUBLE_EQ(sweep.corner_frequency("mid"), -1.0);
}

TEST(AcAnalysis, SeriesRlcResonance) {
  // R = 10, L = 1 mH, C = 1 uF: f0 = 1/(2 pi sqrt(LC)) ~ 5.03 kHz.
  // At resonance the capacitor voltage peaks at Q = sqrt(L/C)/R ~ 3.16x.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId a = ckt.node("a");
  const NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("Vs", in, kGround, Waveform::dc(0.0));
  ckt.add<Resistor>("R", in, a, 10.0);
  ckt.add<Inductor>("L", a, out, 1e-3);
  ckt.add<Capacitor>("C", out, kGround, 1e-6);
  AcOptions opt;
  opt.f_start = 100.0;
  opt.f_stop = 1e6;
  opt.points_per_decade = 60;
  opt.stimulus = "Vs";
  const AcSweep sweep = ac_analyze(ckt, opt);
  const auto mag = sweep.magnitude_db("out");
  const auto& f = sweep.frequency();
  std::size_t peak = 0;
  for (std::size_t i = 1; i < mag.size(); ++i) {
    if (mag[i] > mag[peak]) peak = i;
  }
  const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-3 * 1e-6));
  EXPECT_NEAR(f[peak], f0, f0 * 0.05);
  const double q_db = 20.0 * std::log10(std::sqrt(1e-3 / 1e-6) / 10.0);
  EXPECT_NEAR(mag[peak], q_db, 0.5);
}

TEST(AcAnalysis, LinearisesNonlinearDeviceAtOperatingPoint) {
  // Diode biased at 1 mA has small-signal resistance n*Vt/I ~ 25.85 Ohm;
  // with a series 1 kOhm the AC division follows that resistance.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId d = ckt.node("d");
  ckt.add<VoltageSource>("Vs", in, kGround, Waveform::dc(5.0));
  ckt.add<Resistor>("R", in, d, 1e3);
  Diode::Params dp;
  dp.saturation_current = 1e-14;
  ckt.add<Diode>("D", d, kGround, dp);
  AcOptions opt;
  opt.stimulus = "Vs";
  opt.f_stop = 10.0;
  opt.points_per_decade = 2;
  const AcSweep sweep = ac_analyze(ckt, opt);
  // DC current ~ (5 - 0.72) / 1k ~ 4.28 mA -> rd ~ 6.0 Ohm.
  const double mag = std::abs(sweep.response("d").front());
  EXPECT_GT(mag, 0.002);
  EXPECT_LT(mag, 0.02);
}

TEST(AcAnalysis, CurrentSourceStimulusMeasuresImpedance) {
  // 1 A AC into R || C: |Z| at DC-ish is R, rolls off past the corner.
  Circuit ckt;
  const NodeId n1 = ckt.node("n1");
  ckt.add<CurrentSource>("Is", kGround, n1, Waveform::dc(1e-3));
  ckt.add<Resistor>("R", n1, kGround, 5e3);
  ckt.add<Capacitor>("C", n1, kGround, 1e-7);
  AcOptions opt;
  opt.stimulus = "Is";
  opt.f_start = 1.0;
  opt.f_stop = 1e6;
  const AcSweep sweep = ac_analyze(ckt, opt);
  EXPECT_NEAR(std::abs(sweep.response("n1").front()), 5e3, 50.0);
  const double fc = 1.0 / (2.0 * std::numbers::pi * 5e3 * 1e-7);
  EXPECT_NEAR(sweep.corner_frequency("n1"), fc, fc * 0.06);
}

// ac_analyze only reads the reactive state: a transient that starts from
// the devices' own initial conditions (a charged capacitor, an inductor
// carrying current) gives the same bytes after a sweep as without one.
TEST(AcAnalysis, TransientAfterSweepIsByteIdentical) {
  const auto build = [](Circuit& ckt) {
    const NodeId in = ckt.node("in");
    const NodeId a = ckt.node("a");
    const NodeId out = ckt.node("out");
    ckt.add<VoltageSource>("Vs", in, kGround, Waveform::dc(1.0));
    ckt.add<Resistor>("R", in, a, 10.0);
    ckt.add<Inductor>("L", a, out, 1e-3, /*initial_current=*/2e-3);
    ckt.add<Capacitor>("C", out, kGround, 1e-6, /*initial_voltage=*/0.4);
  };
  TransientOptions topt;
  topt.t_stop = 5e-4;
  topt.start_from_dc = false;  // start from the devices' initial conditions
  Circuit fresh;
  build(fresh);
  const Trace expected = transient_analyze(fresh, topt);

  Circuit swept;
  build(swept);
  AcOptions aopt;
  aopt.stimulus = "Vs";
  aopt.f_start = 100.0;
  aopt.f_stop = 1e6;
  (void)ac_analyze(swept, aopt);
  const Trace got = transient_analyze(swept, topt);

  ASSERT_EQ(got.time(), expected.time());
  ASSERT_EQ(got.signal_names(), expected.signal_names());
  for (const std::string& name : expected.signal_names()) {
    const std::vector<double>& want = expected.signal(name);
    const std::vector<double>& have = got.signal(name);
    ASSERT_EQ(have.size(), want.size()) << name;
    EXPECT_EQ(std::memcmp(have.data(), want.data(), want.size() * sizeof(double)), 0) << name;
  }
}

TEST(AcAnalysis, RejectsUnknownStimulus) {
  Circuit ckt;
  ckt.add<Resistor>("R", ckt.node("a"), kGround, 1.0);
  AcOptions opt;
  opt.stimulus = "nope";
  EXPECT_THROW(ac_analyze(ckt, opt), PreconditionError);
}

TEST(AcAnalysis, RejectsBadRange) {
  Circuit ckt;
  ckt.add<VoltageSource>("Vs", ckt.node("a"), kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R", ckt.node("a"), kGround, 1.0);
  AcOptions opt;
  opt.stimulus = "Vs";
  opt.f_start = 10.0;
  opt.f_stop = 1.0;
  EXPECT_THROW(ac_analyze(ckt, opt), PreconditionError);
}

}  // namespace
}  // namespace focv::circuit
