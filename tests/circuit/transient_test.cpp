// Transient analysis against closed-form circuit responses.
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "circuit/devices_active.hpp"
#include "circuit/devices_passive.hpp"
#include "circuit/devices_sources.hpp"
#include "circuit/transient.hpp"
#include "common/require.hpp"

namespace focv::circuit {
namespace {

TEST(Transient, RcChargeMatchesAnalytic) {
  // 5 V step into R = 1k, C = 1uF: v(t) = 5 (1 - exp(-t/tau)), tau = 1 ms.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("V", in, kGround, Waveform::dc(5.0));
  ckt.add<Resistor>("R", in, out, 1e3);
  ckt.add<Capacitor>("C", out, kGround, 1e-6);
  TransientOptions opt;
  opt.t_stop = 5e-3;
  opt.start_from_dc = false;  // cap starts discharged
  opt.dt_initial = 1e-7;
  opt.dv_step_max = 0.05;
  const Trace tr = transient_analyze(ckt, opt);
  for (const double t : {0.5e-3, 1e-3, 2e-3, 4e-3}) {
    const double expected = 5.0 * (1.0 - std::exp(-t / 1e-3));
    EXPECT_NEAR(tr.at("out", t), expected, 0.02) << "t=" << t;
  }
}

TEST(Transient, RcDischargeFromInitialCondition) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add<Capacitor>("C", a, kGround, 1e-6, 3.0);  // IC: 3 V
  ckt.add<Resistor>("R", a, kGround, 1e3);
  TransientOptions opt;
  opt.t_stop = 3e-3;
  opt.start_from_dc = false;
  opt.dt_initial = 1e-7;
  opt.dv_step_max = 0.05;
  const Trace tr = transient_analyze(ckt, opt);
  EXPECT_NEAR(tr.at("a", 1e-3), 3.0 * std::exp(-1.0), 0.02);
  EXPECT_NEAR(tr.at("a", 2e-3), 3.0 * std::exp(-2.0), 0.02);
}

TEST(Transient, LcOscillatorFrequencyAndAmplitude) {
  // L = 1 mH, C = 1 uF, cap IC 1 V: f = 1/(2*pi*sqrt(LC)) ~ 5.03 kHz.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add<Capacitor>("C", a, kGround, 1e-6, 1.0);
  ckt.add<Inductor>("L", a, kGround, 1e-3);
  TransientOptions opt;
  opt.t_stop = 1e-3;
  opt.start_from_dc = false;
  opt.dt_initial = 1e-8;
  opt.dt_max = 2e-6;
  opt.dv_step_max = 0.05;
  const Trace tr = transient_analyze(ckt, opt);
  const auto zeros = tr.crossing_times("a", 0.0, false);
  ASSERT_GE(zeros.size(), 2u);
  const double period_half = zeros[1] - zeros[0];
  const double f = 1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-3 * 1e-6));
  EXPECT_NEAR(1.0 / period_half, f, f * 0.02);
  // Trapezoidal integration preserves the oscillation amplitude well.
  EXPECT_GT(tr.maximum("a", 0.8e-3, 1e-3), 0.9);
}

TEST(Transient, PulseDrivesRcAndBreakpointsAreHit) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("V", in, kGround,
                         Waveform::pulse(0.0, 2.0, 1e-3, 1e-5, 1e-5, 2e-3, 0.0));
  ckt.add<Resistor>("R", in, out, 1e3);
  ckt.add<Capacitor>("C", out, kGround, 1e-7);
  TransientOptions opt;
  opt.t_stop = 6e-3;
  opt.dt_initial = 1e-6;
  const Trace tr = transient_analyze(ckt, opt);
  EXPECT_NEAR(tr.at("out", 0.9e-3), 0.0, 1e-3);
  EXPECT_NEAR(tr.at("out", 2.9e-3), 2.0, 0.02);   // fully charged
  EXPECT_NEAR(tr.at("out", 5.9e-3), 0.0, 0.02);   // discharged after pulse
}

TEST(Transient, StartFromDcUsesOperatingPoint) {
  // Divider with a cap: from DC there must be no initial transient.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId mid = ckt.node("mid");
  ckt.add<VoltageSource>("V", in, kGround, Waveform::dc(4.0));
  ckt.add<Resistor>("R1", in, mid, 1e3);
  ckt.add<Resistor>("R2", mid, kGround, 1e3);
  ckt.add<Capacitor>("C", mid, kGround, 1e-6);
  TransientOptions opt;
  opt.t_stop = 1e-3;
  const Trace tr = transient_analyze(ckt, opt);
  EXPECT_NEAR(tr.minimum("mid", 0.0, 1e-3), 2.0, 1e-5);
  EXPECT_NEAR(tr.maximum("mid", 0.0, 1e-3), 2.0, 1e-5);
}

TEST(Transient, EnergyConservationRcDischarge) {
  // Energy dumped in the resistor equals the capacitor's initial energy.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add<Capacitor>("C", a, kGround, 1e-6, 2.0);
  ckt.add<Resistor>("R", a, kGround, 1e3);
  TransientOptions opt;
  opt.t_stop = 10e-3;  // 10 tau
  opt.start_from_dc = false;
  opt.dt_initial = 1e-7;
  opt.dv_step_max = 0.02;
  const Trace tr = transient_analyze(ckt, opt);
  // Integrate v^2/R over the trace.
  const auto& t = tr.time();
  const auto& v = tr.signal("a");
  double energy = 0.0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const double vm = 0.5 * (v[i] + v[i - 1]);
    energy += vm * vm / 1e3 * (t[i] - t[i - 1]);
  }
  EXPECT_NEAR(energy, 0.5 * 1e-6 * 4.0, 0.5 * 1e-6 * 4.0 * 0.02);
}

TEST(Transient, RecordStrideThinsOutput) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V", a, kGround, Waveform::sine(0.0, 1.0, 1e3));
  ckt.add<Resistor>("R", a, kGround, 1e3);
  TransientOptions opt;
  opt.t_stop = 2e-3;
  opt.record_stride = 1;
  const std::size_t full = transient_analyze(ckt, opt).size();
  opt.record_stride = 5;
  const std::size_t thin = transient_analyze(ckt, opt).size();
  EXPECT_LT(thin, full / 3);
}

TEST(TraceApi, AveragesCrossingsAndExtremes) {
  Trace tr({"sig"});
  for (int i = 0; i <= 10; ++i) {
    tr.append(i * 0.1, {static_cast<double>(i % 2)});  // 0/1 square-ish
  }
  EXPECT_EQ(tr.crossing_times("sig", 0.5, true).size(), 5u);
  EXPECT_EQ(tr.crossing_times("sig", 0.5, false).size(), 5u);
  EXPECT_DOUBLE_EQ(tr.maximum("sig", 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(tr.minimum("sig", 0.0, 1.0), 0.0);
  EXPECT_NEAR(tr.time_average("sig", 0.0, 1.0), 0.5, 0.01);
  EXPECT_THROW((void)tr.signal("nope"), PreconditionError);
}

TEST(Transient, RejectsBadOptions) {
  Circuit ckt;
  ckt.add<Resistor>("R", ckt.node("a"), kGround, 1.0);
  TransientOptions opt;
  opt.t_stop = -1.0;
  EXPECT_THROW(transient_analyze(ckt, opt), PreconditionError);
}

}  // namespace
}  // namespace focv::circuit
