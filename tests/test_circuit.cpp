// Circuit representation and device models: KCL conservation, analytic
// Jacobians versus finite differences (property test over every device),
// waveforms, and noise-source metadata.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <random>

#include "circuit/devices.hpp"
#include "circuit/mna_workspace.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"

namespace rfic::circuit {
namespace {

using numeric::RVec;

TEST(Circuit, NodeManagement) {
  Circuit c;
  EXPECT_EQ(c.node("0"), -1);
  EXPECT_EQ(c.node("gnd"), -1);
  const int a = c.node("a");
  EXPECT_EQ(c.node("a"), a);  // idempotent
  const int b = c.node("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(c.numUnknowns(), 2u);
  const int br = c.allocBranch("L1");
  EXPECT_EQ(br, 2);
  EXPECT_EQ(c.findNode("a"), a);
  EXPECT_THROW(c.findNode("zzz"), InvalidArgument);
  EXPECT_EQ(c.unknownName(static_cast<std::size_t>(br)), "I(L1)");
}

// Build-a-device harness: constructs a circuit with the device under test
// plus enough nodes, evaluates at a given state, and checks the analytic
// G = ∂f/∂x and C = ∂q/∂x against central finite differences.
void checkJacobians(Circuit& c, const RVec& x, Real tol = 1e-5) {
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  ws.setBatchedEval(false);  // the scalar stamps are the batch's oracle
  ws.eval(x, 0.123e-6, true);
  const std::size_t n = sys.dim();
  numeric::RMat g(n, n), cq(n, n);
  scatterDense(ws.pattern(), ws.gValues(), g);
  scatterDense(ws.pattern(), ws.cValues(), cq);
  const Real h = 1e-7;
  for (std::size_t j = 0; j < n; ++j) {
    RVec xp = x, xm = x;
    xp[j] += h;
    xm[j] -= h;
    ws.eval(xp, 0.123e-6, false);
    const RVec fp = ws.f(), qp = ws.q();
    ws.eval(xm, 0.123e-6, false);
    for (std::size_t i = 0; i < n; ++i) {
      const Real gfd = (fp[i] - ws.f()[i]) / (2 * h);
      const Real cfd = (qp[i] - ws.q()[i]) / (2 * h);
      const Real gscale = 1.0 + std::abs(g(i, j));
      const Real cscale = 1.0 + std::abs(cq(i, j));
      EXPECT_NEAR(g(i, j), gfd, tol * gscale) << "G(" << i << "," << j << ")";
      EXPECT_NEAR(cq(i, j), cfd, tol * cscale) << "C(" << i << "," << j << ")";
    }
  }
}

// KCL: the sum of f over all node rows (not branch rows) must vanish for
// any device network with no external sources, at any state.
void checkChargeCurrentConservation(Circuit& c, const RVec& x,
                                    std::size_t numNodes) {
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  ws.eval(x, 0.0, false);
  Real fsum = 0, qsum = 0;
  for (std::size_t i = 0; i < numNodes; ++i) {
    fsum += ws.f()[i];
    qsum += ws.q()[i];
  }
  EXPECT_NEAR(fsum, 0.0, 1e-12 * (1.0 + numeric::normInf(ws.f())));
  EXPECT_NEAR(qsum, 0.0, 1e-12 * (1.0 + numeric::normInf(ws.q())));
}

TEST(Devices, ResistorJacobianAndConservation) {
  Circuit c;
  const int a = c.node("a"), b = c.node("b");
  c.add<Resistor>("R1", a, b, 2200.0);
  RVec x{1.7, -0.4};
  checkJacobians(c, x);
  checkChargeCurrentConservation(c, x, 2);
}

TEST(Devices, ResistorRejectsNonPositive) {
  Circuit c;
  const int a = c.node("a");
  EXPECT_THROW(c.add<Resistor>("R1", a, -1, 0.0), InvalidArgument);
  EXPECT_THROW(c.add<Resistor>("R2", a, -1, -10.0), InvalidArgument);
}

TEST(Devices, CapacitorChargeIsLinear) {
  Circuit c;
  const int a = c.node("a");
  c.add<Capacitor>("C1", a, -1, 1e-9);
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  RVec x{2.5};
  ws.eval(x, 0.0, false);
  EXPECT_DOUBLE_EQ(ws.q()[0], 2.5e-9);
  checkJacobians(c, x);
}

TEST(Devices, InductorBranchEquations) {
  Circuit c;
  const int a = c.node("a"), b = c.node("b");
  const int br = c.allocBranch("L1");
  c.add<Inductor>("L1", a, b, br, 1e-6);
  RVec x{1.0, 0.25, 0.003};  // va, vb, iL
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  ws.eval(x, 0.0, false);
  EXPECT_DOUBLE_EQ(ws.f()[0], 0.003);       // current leaves a
  EXPECT_DOUBLE_EQ(ws.f()[1], -0.003);
  EXPECT_DOUBLE_EQ(ws.q()[2], 1e-6 * 0.003);  // flux
  EXPECT_DOUBLE_EQ(ws.f()[2], -(1.0 - 0.25)); // branch voltage equation
  checkJacobians(c, x);
}

TEST(Devices, MutualInductanceCouplesFluxes) {
  Circuit c;
  const int a = c.node("a"), b = c.node("b");
  const int br1 = c.allocBranch("L1"), br2 = c.allocBranch("L2");
  auto& l1 = c.add<Inductor>("L1", a, -1, br1, 4e-6);
  auto& l2 = c.add<Inductor>("L2", b, -1, br2, 1e-6);
  c.add<MutualInductance>("K1", l1, l2, 0.5);  // M = 0.5*sqrt(4e-6*1e-6) = 1e-6
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  RVec x{0, 0, 2.0, 3.0};  // iL1=2, iL2=3
  ws.eval(x, 0.0, false);
  EXPECT_NEAR(ws.q()[2], 4e-6 * 2.0 + 1e-6 * 3.0, 1e-18);
  EXPECT_NEAR(ws.q()[3], 1e-6 * 3.0 + 1e-6 * 2.0, 1e-18);
  checkJacobians(c, x);
}

TEST(Devices, MutualInductanceRejectsOverCoupling) {
  Circuit c;
  const int a = c.node("a");
  const int br1 = c.allocBranch("L1"), br2 = c.allocBranch("L2");
  auto& l1 = c.add<Inductor>("L1", a, -1, br1, 1e-6);
  auto& l2 = c.add<Inductor>("L2", a, -1, br2, 1e-6);
  EXPECT_THROW(c.add<MutualInductance>("K1", l1, l2, 1.0), InvalidArgument);
}

TEST(Devices, ControlledSourcesJacobians) {
  Circuit c;
  const int o1 = c.node("o1"), o2 = c.node("o2");
  const int c1 = c.node("c1"), c2 = c.node("c2");
  c.add<VCCS>("G1", o1, o2, c1, c2, 0.02);
  const int br = c.allocBranch("E1");
  c.add<VCVS>("E1", o2, -1, c1, c2, br, 4.0);
  c.add<Resistor>("Rl", o1, -1, 1000.0);  // keep the system grounded
  c.add<Resistor>("Rc", c1, c2, 500.0);
  RVec x{0.3, -0.2, 0.9, 0.1, 0.004};
  checkJacobians(c, x);
}

TEST(Devices, CurrentControlledSources) {
  // CCCS mirrors a V-source branch current; CCVS converts it to a voltage.
  Circuit c;
  const int in = c.node("in"), o1 = c.node("o1"), o2 = c.node("o2");
  const int brv = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, brv, std::make_shared<DCWave>(1.0));
  c.add<Resistor>("Rin", in, -1, 100.0);  // sets iV = -10 mA
  c.add<CCCS>("F1", o1, -1, brv, 2.0);
  c.add<Resistor>("Ro1", o1, -1, 50.0);
  const int brh = c.allocBranch("H1");
  c.add<CCVS>("H1", o2, -1, brv, brh, 500.0);
  c.add<Resistor>("Ro2", o2, -1, 1000.0);
  MnaSystem sys(c);
  RVec x(sys.dim(), 0.25);
  checkJacobians(c, x);
}

TEST(Devices, CubicConductanceCurrentAndDerivative) {
  Circuit c;
  const int a = c.node("a");
  c.add<CubicConductance>("GN", a, -1, 1e-3, 2e-3);
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  RVec x{0.5};
  ws.eval(x, 0.0, false);
  EXPECT_NEAR(ws.f()[0], 1e-3 * 0.5 + 2e-3 * 0.125, 1e-15);
  checkJacobians(c, x);
}

class DiodeBias : public ::testing::TestWithParam<Real> {};

TEST_P(DiodeBias, JacobianMatchesFD) {
  Circuit c;
  const int a = c.node("a"), b = c.node("b");
  Diode::Params p;
  p.cj0 = 2e-12;
  p.tt = 5e-9;
  c.add<Diode>("D1", a, b, p);
  RVec x{GetParam(), 0.0};
  checkJacobians(c, x, 1e-4);
  checkChargeCurrentConservation(c, x, 2);
}

INSTANTIATE_TEST_SUITE_P(Bias, DiodeBias,
                         ::testing::Values(-5.0, -0.5, 0.0, 0.3, 0.55, 0.7));

TEST(Devices, DiodeCurrentMatchesShockley) {
  Diode d("D", 0, 1, Diode::Params{});
  const Real is = 1e-14, vt = kVt300;
  for (Real v : {0.2, 0.4, 0.6}) {
    EXPECT_NEAR(d.current(v), is * (std::exp(v / vt) - 1.0) + 1e-12 * v,
                1e-6 * d.current(v));
  }
  // Reverse: saturates at −Is (plus gmin leakage).
  EXPECT_NEAR(d.current(-1.0), -is - 1e-12, 1e-14);
}

TEST(Devices, DiodeExponentialOverflowIsLinearized) {
  Diode d("D", 0, 1, Diode::Params{});
  const Real i5 = d.current(5.0);
  const Real i6 = d.current(6.0);
  EXPECT_TRUE(std::isfinite(i5));
  EXPECT_TRUE(std::isfinite(i6));
  EXPECT_GT(i6, i5);
}

class BJTBias
    : public ::testing::TestWithParam<std::tuple<Real, Real, BJT::Type>> {};

TEST_P(BJTBias, JacobianMatchesFD) {
  const auto [vb, vc, type] = GetParam();
  Circuit c;
  const int nc = c.node("c"), nb = c.node("b"), ne = c.node("e");
  BJT::Params p;
  p.vaf = 50.0;
  p.cje = 1e-12;
  p.cjc = 0.5e-12;
  p.tf = 10e-12;
  c.add<BJT>("Q1", nc, nb, ne, p, type);
  RVec x{vc, vb, 0.0};
  checkJacobians(c, x, 1e-4);
  checkChargeCurrentConservation(c, x, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Bias, BJTBias,
    ::testing::Values(std::tuple<Real, Real, BJT::Type>{0.65, 3.0, BJT::Type::npn},
                      std::tuple<Real, Real, BJT::Type>{0.3, 1.0, BJT::Type::npn},
                      std::tuple<Real, Real, BJT::Type>{0.7, 0.2, BJT::Type::npn},  // saturation
                      std::tuple<Real, Real, BJT::Type>{-0.65, -3.0, BJT::Type::pnp},
                      std::tuple<Real, Real, BJT::Type>{0.0, 0.0, BJT::Type::npn}));

TEST(Devices, BJTForwardActiveGain) {
  // NPN with Vbe = 0.65, collector well above saturation: Ic/Ib ≈ beta.
  Circuit c;
  const int nc = c.node("c"), nb = c.node("b"), ne = c.node("e");
  BJT::Params p;
  p.bf = 120.0;
  c.add<BJT>("Q1", nc, nb, ne, p);
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  RVec x{3.0, 0.65, 0.0};
  ws.eval(x, 0.0, false);
  const Real ic = ws.f()[0], ib = ws.f()[1];
  EXPECT_GT(ic, 0.0);
  EXPECT_NEAR(ic / ib, 120.0, 1.0);
}

class MOSBias
    : public ::testing::TestWithParam<std::tuple<Real, Real, MOSFET::Type>> {};

TEST_P(MOSBias, JacobianMatchesFD) {
  const auto [vg, vd, type] = GetParam();
  Circuit c;
  const int nd = c.node("d"), ng = c.node("g"), ns = c.node("s");
  MOSFET::Params p;
  p.cgs = 1e-13;
  p.cgd = 0.5e-13;
  c.add<MOSFET>("M1", nd, ng, ns, p, type);
  RVec x{vd, vg, 0.0};
  checkJacobians(c, x, 1e-4);
  checkChargeCurrentConservation(c, x, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Bias, MOSBias,
    ::testing::Values(
        std::tuple<Real, Real, MOSFET::Type>{1.5, 3.0, MOSFET::Type::nmos},  // saturation
        std::tuple<Real, Real, MOSFET::Type>{1.5, 0.3, MOSFET::Type::nmos},  // triode
        std::tuple<Real, Real, MOSFET::Type>{0.3, 2.0, MOSFET::Type::nmos},  // cutoff
        std::tuple<Real, Real, MOSFET::Type>{1.5, -0.5, MOSFET::Type::nmos},  // swapped
        std::tuple<Real, Real, MOSFET::Type>{-1.5, -3.0, MOSFET::Type::pmos}));

TEST(Devices, MOSFETSquareLawSaturation) {
  Circuit c;
  const int nd = c.node("d"), ng = c.node("g"), ns = c.node("s");
  MOSFET::Params p;
  p.vt0 = 0.7;
  p.kp = 2e-3;
  p.lambda = 0.0;
  c.add<MOSFET>("M1", nd, ng, ns, p);
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  RVec x{3.0, 1.7, 0.0};  // vgs = 1.7, vov = 1.0, saturation
  ws.eval(x, 0.0, false);
  EXPECT_NEAR(ws.f()[0], 0.5 * 2e-3 * 1.0, 1e-11);  // gmin leakage included
}

TEST(Waveforms, SineAndMultiTone) {
  SineWave s(2.0, 1000.0, kPi / 2, 0.5);
  EXPECT_NEAR(s.value(0.0), 2.5, 1e-12);  // offset + amp*sin(pi/2)
  MultiToneWave mt({{1.0, 100.0, 0.0}, {0.5, 300.0, 0.0}});
  EXPECT_NEAR(mt.value(0.0), 0.0, 1e-12);
  EXPECT_NEAR(mt.value(1.0 / 400.0),
              std::sin(kTwoPi * 100.0 / 400.0) +
                  0.5 * std::sin(kTwoPi * 300.0 / 400.0),
              1e-12);
}

TEST(Waveforms, SquareWaveLevelsAndPeriodicity) {
  SquareWave sq(-1.0, 1.0, 1e6, 0.05);
  EXPECT_NEAR(sq.value(0.25e-6), 1.0, 1e-12);   // mid-high
  EXPECT_NEAR(sq.value(0.75e-6), -1.0, 1e-12);  // mid-low
  EXPECT_NEAR(sq.value(0.0), 0.0, 1e-12);       // edge center
  EXPECT_NEAR(sq.value(3.25e-6), sq.value(0.25e-6), 1e-12);
  EXPECT_THROW(SquareWave(-1, 1, 1e6, 0.5), InvalidArgument);
}

TEST(Waveforms, PulseShape) {
  PulseWave p(0.0, 1.0, 1e-9, 1e-10, 1e-10, 4e-10, 1e-9);
  EXPECT_NEAR(p.value(0.0), 0.0, 1e-12);            // before delay
  EXPECT_NEAR(p.value(1e-9 + 0.5e-10), 0.5, 1e-9);  // mid-rise
  EXPECT_NEAR(p.value(1e-9 + 3e-10), 1.0, 1e-12);   // top
  EXPECT_NEAR(p.value(1e-9 + 8e-10), 0.0, 1e-12);   // after fall
}

TEST(Sources, VSourcePinsVoltageThroughBranch) {
  Circuit c;
  const int a = c.node("a");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", a, -1, br, std::make_shared<DCWave>(3.3));
  c.add<Resistor>("R1", a, -1, 330.0);
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  RVec x{3.3, -0.01};  // at the solution: iR = 10 mA through source
  ws.eval(x, 0.0, false);
  EXPECT_NEAR(ws.f()[0] - ws.b()[0], 3.3 / 330.0 + x[1], 1e-15);
  EXPECT_NEAR(ws.f()[1] - ws.b()[1], 3.3 - 3.3, 1e-15);
}

TEST(Sources, BivariateAxisSelection) {
  Circuit c;
  const int a = c.node("a"), b = c.node("b");
  c.add<ISource>("Islow", -1, a, std::make_shared<SineWave>(1.0, 1.0),
                 TimeAxis::slow);
  c.add<ISource>("Ifast", -1, b, std::make_shared<SineWave>(1.0, 100.0),
                 TimeAxis::fast);
  c.add<Resistor>("Ra", a, -1, 1.0);
  c.add<Resistor>("Rb", b, -1, 1.0);
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  RVec x(2, 0.0);
  // t1 = quarter period of the slow tone, t2 = 0: only the slow source on.
  ws.evalBivariate(x, 0.25, 0.0, false);
  EXPECT_NEAR(ws.b()[0], 1.0, 1e-12);
  EXPECT_NEAR(ws.b()[1], 0.0, 1e-12);
  // And the other way around.
  ws.evalBivariate(x, 0.0, 0.25 / 100.0, false);
  EXPECT_NEAR(ws.b()[0], 0.0, 1e-12);
  EXPECT_NEAR(ws.b()[1], 1.0, 1e-12);
}

TEST(Noise, ResistorThermalPSD) {
  Circuit c;
  const int a = c.node("a");
  c.add<Resistor>("R1", a, -1, 1000.0);
  MnaSystem sys(c);
  const auto sources = sys.noiseSources(RVec(1, 0.0));
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_NEAR(sources[0].white, 4.0 * 1.380649e-23 * 300.0 / 1000.0, 1e-28);
  EXPECT_EQ(sources[0].flicker, 0.0);
}

TEST(Noise, DiodeShotAndFlicker) {
  Circuit c;
  const int a = c.node("a");
  Diode::Params p;
  p.kf = 1e-16;
  p.af = 1.0;
  c.add<Diode>("D1", a, -1, p);
  MnaSystem sys(c);
  const auto at06 = sys.noiseSources(RVec(1, 0.6));
  ASSERT_EQ(at06.size(), 1u);
  const Real id = Diode("tmp", 0, 1, p).current(0.6) - 1e-12 * 0.6;
  EXPECT_NEAR(at06[0].white, 2.0 * kQElectron * id, 1e-6 * at06[0].white);
  EXPECT_GT(at06[0].flicker, 0.0);
}

TEST(Noise, BJTReportsCollectorAndBaseShot) {
  Circuit c;
  const int nc = c.node("c"), nb = c.node("b"), ne = c.node("e");
  c.add<BJT>("Q1", nc, nb, ne, BJT::Params{});
  MnaSystem sys(c);
  RVec x{3.0, 0.65, 0.0};
  const auto sources = sys.noiseSources(x);
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_GT(sources[0].white, sources[1].white);  // Ic shot > Ib shot
}

}  // namespace
}  // namespace rfic::circuit
