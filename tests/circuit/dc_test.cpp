// DC operating-point analysis: convergence strategies and correctness.
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/dc_analysis.hpp"
#include "common/require.hpp"
#include "circuit/devices_active.hpp"
#include "circuit/devices_passive.hpp"
#include "circuit/devices_sources.hpp"

namespace focv::circuit {
namespace {

double node_v(const Circuit& ckt, const Vector& x, const std::string& name) {
  return x[static_cast<std::size_t>(ckt.find_node(name) - 1)];
}

TEST(DcAnalysis, LinearLadder) {
  // Five equal resistors across 5 V: taps at 4, 3, 2, 1 V.
  Circuit ckt;
  NodeId prev = ckt.node("n0");
  ckt.add<VoltageSource>("V", prev, kGround, Waveform::dc(5.0));
  for (int i = 1; i <= 5; ++i) {
    const NodeId next = (i == 5) ? kGround : ckt.node(std::string("n").append(std::to_string(i)));
    ckt.add<Resistor>(std::string("R").append(std::to_string(i)), prev, next, 1e3);
    prev = next;
  }
  const Vector x = dc_operating_point(ckt);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_NEAR(node_v(ckt, x, std::string("n").append(std::to_string(i))), 5.0 - i, 1e-6);
  }
}

TEST(DcAnalysis, DiodeResistorSeries) {
  // 5 V -> 1 kOhm -> diode: I ~= (5 - 0.6)/1k, V_diode ~= 0.6.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add<VoltageSource>("V", a, kGround, Waveform::dc(5.0));
  ckt.add<Resistor>("R", a, b, 1e3);
  ckt.add<Diode>("D", b, kGround);
  const Vector x = dc_operating_point(ckt);
  const double vd = node_v(ckt, x, "b");
  EXPECT_GT(vd, 0.5);
  EXPECT_LT(vd, 0.75);
  // KCL consistency: resistor current equals diode current.
  Circuit check;
  auto& d = check.add<Diode>("D", check.node("x"), kGround);
  EXPECT_NEAR((5.0 - vd) / 1e3, d.current_at(vd), 1e-6);
}

TEST(DcAnalysis, FloatingNodeHandledByGmin) {
  // A node connected only through a capacitor (open at DC) must still
  // solve (to ~0 V via gmin), not blow up.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId f = ckt.node("float");
  ckt.add<VoltageSource>("V", a, kGround, Waveform::dc(5.0));
  ckt.add<Resistor>("R", a, kGround, 1e3);
  ckt.add<Capacitor>("C", a, f, 1e-9);
  const Vector x = dc_operating_point(ckt);
  EXPECT_NEAR(node_v(ckt, x, "a"), 5.0, 1e-6);
  EXPECT_TRUE(std::isfinite(node_v(ckt, x, "float")));
}

TEST(DcAnalysis, InductorIsShortAtDc) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add<VoltageSource>("V", a, kGround, Waveform::dc(2.0));
  ckt.add<Inductor>("L", a, b, 1e-3);
  ckt.add<Resistor>("R", b, kGround, 100.0);
  const Vector x = dc_operating_point(ckt);
  EXPECT_NEAR(node_v(ckt, x, "b"), 2.0, 1e-9);
}

TEST(DcAnalysis, StiffDiodeChainNeedsContinuation) {
  // Two stacked diodes fed from a high voltage through a small resistor:
  // a hard start for plain Newton from x = 0.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  const NodeId c = ckt.node("c");
  ckt.add<VoltageSource>("V", a, kGround, Waveform::dc(50.0));
  ckt.add<Resistor>("R", a, b, 10.0);
  Diode::Params dp;
  dp.saturation_current = 1e-15;
  ckt.add<Diode>("D1", b, c, dp);
  ckt.add<Diode>("D2", c, kGround, dp);
  const Vector x = dc_operating_point(ckt);
  const double vb = node_v(ckt, x, "b");
  // ~ (50 - 2*0.75)/10 A through, so vb ~ 1.5-1.8 V.
  EXPECT_GT(vb, 1.2);
  EXPECT_LT(vb, 2.2);
}

TEST(DcAnalysis, InitialGuessIsUsed) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("V", a, kGround, Waveform::dc(1.0));
  ckt.add<Resistor>("R", a, kGround, 1.0);
  ckt.finalize();
  Vector guess(static_cast<std::size_t>(ckt.unknown_count()), 0.5);
  const Vector x = dc_operating_point(ckt, {}, &guess);
  EXPECT_NEAR(node_v(ckt, x, "a"), 1.0, 1e-9);
}

TEST(DcAnalysis, BadGuessSizeThrows) {
  Circuit ckt;
  ckt.add<VoltageSource>("V", ckt.node("a"), kGround, Waveform::dc(1.0));
  ckt.finalize();
  Vector guess(99, 0.0);
  EXPECT_THROW((dc_operating_point(ckt, DcOptions{}, &guess)), PreconditionError);
}

}  // namespace
}  // namespace focv::circuit
