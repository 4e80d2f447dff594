// Cross-method integration and property tests: different engines of the
// suite answering the same physical question must agree, and key numerical
// knobs must converge monotonically.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>

#include "analysis/ac.hpp"
#include "analysis/dc.hpp"
#include "analysis/shooting.hpp"
#include "analysis/sparams.hpp"
#include "analysis/transient.hpp"
#include "circuit/devices.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "extraction/ies3.hpp"
#include "extraction/mom.hpp"
#include "extraction/peec.hpp"
#include "hb/harmonic_balance.hpp"
#include "hb/spectrum.hpp"
#include "mpde/envelope.hpp"
#include "rom/pvl.hpp"

namespace rfic {
namespace {

using namespace rfic::circuit;
using numeric::RVec;

// ---------- HB / AC / transient triple agreement on a linear RLC --------

TEST(CrossMethod, HBAndACAndPSSAgreeOnLinearRLC) {
  auto build = [](Circuit& c) {
    const int in = c.node("in"), m = c.node("m"), out = c.node("out");
    const int brv = c.allocBranch("V1"), brl = c.allocBranch("L1");
    c.add<VSource>("V1", in, -1, brv, std::make_shared<SineWave>(0.5, 4e6));
    c.add<Resistor>("R1", in, m, 25.0);
    c.add<Inductor>("L1", m, out, brl, 1e-6);
    c.add<Capacitor>("C1", out, -1, 1e-9);
  };
  Circuit c;
  build(c);
  analysis::MnaSystem sys(c);
  const auto out = static_cast<std::size_t>(c.findNode("out"));
  const auto dc = analysis::dcOperatingPoint(sys);

  // AC reference.
  const auto* vs = dynamic_cast<const VSource*>(c.devices().front().get());
  const auto y = analysis::acSweep(sys, dc.x, {4e6},
                                   analysis::acStimulusVSource(sys, *vs))
                     .x.front();
  const Real ampAC = 0.5 * std::abs(y[out]);

  // HB.
  const auto sol = hb::HarmonicBalance(sys, {{4e6, 4}}).solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const Real ampHB = hb::lineAmplitude(sol, out, 1);

  // Shooting PSS.
  analysis::ShootingOptions so;
  so.stepsPerPeriod = 2000;
  const auto pss = analysis::shootingPSS(sys, 1.0 / 4e6,
                                         RVec(sys.dim(), 0.0), so);
  ASSERT_TRUE(pss.converged);
  Real ampPSS = 0;
  for (const auto& x : pss.trajectory)
    ampPSS = std::max(ampPSS, std::abs(x[out]));

  EXPECT_NEAR(ampHB, ampAC, 1e-6 * ampAC);
  EXPECT_NEAR(ampPSS, ampAC, 5e-3 * ampAC);
}

// ---------- HB harmonic-count convergence (property sweep) ---------------

class HBHarmonics : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HBHarmonics, RectifierDCConvergesMonotonically) {
  // With more harmonics the rectifier's DC estimate approaches the
  // shooting reference; error at H must not be worse than at H/2.
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e5));
  c.add<Diode>("D1", in, out, Diode::Params{});
  c.add<Resistor>("RL", out, -1, 1e4);
  c.add<Capacitor>("CL", out, -1, 1e-8);
  analysis::MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);

  analysis::ShootingOptions so;
  so.stepsPerPeriod = 4000;
  const auto pss = analysis::shootingPSS(sys, 1e-5, RVec(sys.dim(), 0.0), so);
  ASSERT_TRUE(pss.converged);
  Real ref = 0;
  for (std::size_t k = 0; k + 1 < pss.trajectory.size(); ++k)
    ref += pss.trajectory[k][static_cast<std::size_t>(out)];
  ref /= static_cast<Real>(pss.trajectory.size() - 1);

  hb::HBOptions ho;
  ho.continuationSteps = 3;
  const std::size_t h = GetParam();
  auto errAt = [&](std::size_t hh) {
    const auto sol = hb::HarmonicBalance(sys, {{1e5, hh}}, ho).solve(dc.x);
    EXPECT_TRUE(sol.converged) << "H=" << hh;
    return std::abs(sol.at(static_cast<std::size_t>(out), 0).real() - ref);
  };
  EXPECT_LE(errAt(h), errAt(h / 2) * 1.2 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HBHarmonics, ::testing::Values(8, 12, 16));

// ---------- transient↔envelope consistency on an AM signal ---------------

TEST(CrossMethod, EnvelopeTracksTransientAMDetector) {
  // AM source (carrier × (1+m·cos)) into an RC: the envelope method's
  // fundamental-harmonic magnitude must match a windowed estimate from a
  // brute-force transient.
  const Real fc = 20e6, fm = 100e3;
  auto build = [&](Circuit& c) {
    const int in = c.node("in"), out = c.node("out");
    const int b1 = c.allocBranch("Vc");
    const int mixn = c.node("mixn");
    // carrier on fast axis, modulation on slow axis, multiplied up.
    c.add<VSource>("Vc", in, -1, b1, std::make_shared<SineWave>(1.0, fc),
                   TimeAxis::fast);
    const int b2 = c.allocBranch("Vm");
    c.add<VSource>("Vm", mixn, -1, b2,
                   std::make_shared<SineWave>(0.5, fm, 0, 1.0),
                   TimeAxis::slow);
    c.add<Multiplier>("MX", out, -1, in, -1, mixn, -1, 1e-3);
    c.add<Resistor>("Rl", out, -1, 1000.0);
    c.add<Capacitor>("Cl", out, -1, 1e-12);
  };
  Circuit c;
  build(c);
  analysis::MnaSystem sys(c);
  const auto out = static_cast<std::size_t>(c.findNode("out"));
  const auto dc = analysis::dcOperatingPoint(sys);

  mpde::EnvelopeOptions eo;
  eo.slowSpan = 1.0 / fm;
  eo.slowSteps = 24;
  eo.fastSteps = 120;
  const auto env = mpde::runEnvelope(sys, fc, dc.x, eo);
  ASSERT_TRUE(env.converged);
  const auto h1 = env.harmonicEnvelope(out, 1);
  // Carrier-harmonic magnitude tracks 1 + 0.5·cos(2π·fm·t1) scaled by the
  // multiplier gain and load: peak/trough ratio = 1.5/0.5 = 3.
  Real hi = 0, lo = 1e30;
  for (const auto& v : h1) {
    hi = std::max(hi, std::abs(v));
    lo = std::min(lo, std::abs(v));
  }
  EXPECT_NEAR(hi / lo, 3.0, 0.1);
}

// ---------- S-parameters of a random passive ladder are passive ----------

class RandomLadder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLadder, SParamsPassiveAndReciprocal) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<Real> ur(10.0, 500.0);
  std::uniform_real_distribution<Real> uc(1e-12, 50e-12);
  Circuit c;
  const int p1 = c.node("p1"), p2 = c.node("p2");
  int prev = p1;
  for (int k = 0; k < 4; ++k) {
    const int nxt = (k == 3) ? p2 : c.node("n" + std::to_string(k));
    c.add<Resistor>("R" + std::to_string(k), prev, nxt, ur(rng));
    c.add<Capacitor>("C" + std::to_string(k), nxt, -1, uc(rng));
    prev = nxt;
  }
  analysis::MnaSystem sys(c);
  const std::vector<analysis::Port> ports{{p1, -1, "p1"}, {p2, -1, "p2"}};
  for (const Real f : {1e6, 1e8, 3e9}) {
    const auto sp = analysis::sParameters(sys, RVec(sys.dim(), 0.0), ports, f);
    EXPECT_TRUE(analysis::isPassiveSample(sp)) << "f=" << f;
    EXPECT_NEAR(std::abs(sp.s(0, 1) - sp.s(1, 0)), 0.0, 1e-9) << "f=" << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLadder,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------- IES3 tolerance knob: tighter tolerance → smaller error -------

TEST(Knobs, IES3ToleranceControlsAccuracy) {
  const auto mesh = extraction::makeBusCrossing(4, 1.0, 3.0, 12.0, 1.0, 24);
  const auto dense = extraction::extractCapacitanceDense(mesh);
  Real prevErr = 1e300;
  for (const Real tol : {1e-2, 1e-4, 1e-6}) {
    extraction::IES3Options opts;
    opts.tolerance = tol;
    const auto comp = extraction::extractCapacitanceIES3(mesh, opts);
    Real err = 0;
    for (std::size_t i = 0; i < dense.matrix.rows(); ++i)
      for (std::size_t j = 0; j < dense.matrix.cols(); ++j)
        err = std::max(err, std::abs(comp.matrix(i, j) - dense.matrix(i, j)) /
                                std::abs(dense.matrix(i, i)));
    EXPECT_LE(err, prevErr * 1.5 + 1e-14) << "tol=" << tol;
    prevErr = err;
  }
  EXPECT_LT(prevErr, 1e-5);
}

// ---------- PEEC quadrature order converges -------------------------------

TEST(Knobs, PEECQuadratureConverges) {
  extraction::Segment a;
  a.start = {0, 0, 0};
  a.end = {1e-3, 0, 0};
  a.width = 10e-6;
  a.thickness = 1e-6;
  extraction::Segment b = a;
  b.start = {0.2e-3, 40e-6, 0};
  b.end = {1.2e-3, 40e-6, 0};
  const Real m24 = extraction::partialMutualInductance(a, b, 24);
  const Real m12 = extraction::partialMutualInductance(a, b, 12);
  const Real m6 = extraction::partialMutualInductance(a, b, 6);
  EXPECT_LT(std::abs(m12 - m24), std::abs(m6 - m24) + 1e-18);
  // The integrand is near-singular for closely spaced parallel segments
  // (d/l = 1/25); percent-level agreement at n = 12 is the expectation.
  EXPECT_NEAR(m12, m24, 2e-2 * std::abs(m24));
}

// ---------- ROM expansion point invariance -------------------------------

TEST(Knobs, PVLDifferentExpansionPointsAgreeInOverlap) {
  const auto sys = rom::makeRCLine(400, 1000.0, 1e-9);
  const auto romA = rom::pvl(sys, 0.0, 10).rom;
  const auto romB = rom::pvl(sys, kTwoPi * 2e6, 10).rom;
  const Complex s(0.0, kTwoPi * 1e6);
  const Complex ref = sys.transferFunction(s);
  EXPECT_LT(std::abs(romA.transfer(s) - ref), 1e-5 * std::abs(ref));
  EXPECT_LT(std::abs(romB.transfer(s) - ref), 1e-5 * std::abs(ref));
}

// ---------- BJT Gilbert cell under two-tone HB ----------------------------

TEST(CrossMethod, BJTGilbertCellMixesUnderHB) {
  // A real (transistor-level) Gilbert mixer: differential RF pair under a
  // switching quad, resistive loads. Checks that the strongly nonlinear
  // BJT models converge in two-tone HB and produce the expected
  // downconverted product with suppressed RF/LO feedthrough (the virtue of
  // double balance).
  const Real fRF = 11e6, fLO = 10e6;
  Circuit c;
  const int vcc = c.node("vcc");
  const int lop = c.node("lop"), lom = c.node("lom");
  const int rfp = c.node("rfp"), rfm = c.node("rfm");
  const int outp = c.node("outp"), outm = c.node("outm");
  const int ep = c.node("ep"), em = c.node("em"), tail = c.node("tail");

  const int b0 = c.allocBranch("VCC");
  c.add<VSource>("VCC", vcc, -1, b0, std::make_shared<DCWave>(5.0));
  // LO: differential around a 2.5 V common mode (fast axis).
  const int b1 = c.allocBranch("Vlop");
  const int b2 = c.allocBranch("Vlom");
  c.add<VSource>("Vlop", lop, -1, b1,
                 std::make_shared<SineWave>(0.15, fLO, 0.0, 2.5),
                 TimeAxis::fast);
  c.add<VSource>("Vlom", lom, -1, b2,
                 std::make_shared<SineWave>(0.15, fLO, kPi, 2.5),
                 TimeAxis::fast);
  // RF: small differential drive around 1.2 V (slow axis).
  const int b3 = c.allocBranch("Vrfp");
  const int b4 = c.allocBranch("Vrfm");
  c.add<VSource>("Vrfp", rfp, -1, b3,
                 std::make_shared<SineWave>(0.01, fRF, 0.0, 1.2),
                 TimeAxis::slow);
  c.add<VSource>("Vrfm", rfm, -1, b4,
                 std::make_shared<SineWave>(0.01, fRF, kPi, 1.2),
                 TimeAxis::slow);

  BJT::Params q;
  q.is = 1e-16;
  q.bf = 100.0;
  // Switching quad.
  c.add<BJT>("Q1", outp, lop, ep, q);
  c.add<BJT>("Q2", outm, lom, ep, q);
  c.add<BJT>("Q3", outm, lop, em, q);
  c.add<BJT>("Q4", outp, lom, em, q);
  // RF pair with resistive tail.
  c.add<BJT>("Q5", ep, rfp, tail, q);
  c.add<BJT>("Q6", em, rfm, tail, q);
  c.add<Resistor>("Rtail", tail, -1, 500.0);
  c.add<Resistor>("Rlp", vcc, outp, 1000.0);
  c.add<Resistor>("Rlm", vcc, outm, 1000.0);
  c.add<Capacitor>("Clp", outp, -1, 1e-12);
  c.add<Capacitor>("Clm", outm, -1, 1e-12);

  analysis::MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  ASSERT_TRUE(dc.converged);

  hb::HBOptions ho;
  ho.continuationSteps = 4;
  hb::HarmonicBalance eng(sys, {{fRF, 2}, {fLO, 4}}, ho);
  const auto sol = eng.solve(dc.x);
  ASSERT_TRUE(sol.converged);

  const auto up = static_cast<std::size_t>(outp);
  const auto um = static_cast<std::size_t>(outm);
  auto diff = [&](int k1, int k2) {
    return 2.0 * std::abs(sol.at(up, k1, k2) - sol.at(um, k1, k2));
  };
  const Real ifProd = diff(1, -1);   // 1 MHz downconversion
  const Real rfLeak = diff(1, 0);    // RF feedthrough
  const Real loLeak = diff(0, 1);    // LO feedthrough
  EXPECT_GT(ifProd, 1e-3);           // real conversion happens
  EXPECT_LT(rfLeak, 0.2 * ifProd);   // double balance suppresses RF
  EXPECT_LT(loLeak, 0.2 * ifProd);   // ... and LO
}

// ---------- Multiplier device: FD Jacobian + mixing identity --------------

TEST(Devices, MultiplierJacobianAndMixing) {
  Circuit c;
  const int a = c.node("a"), b = c.node("b"), o = c.node("o");
  c.add<Multiplier>("MX", o, -1, a, -1, b, -1, 2e-3);
  c.add<Resistor>("Ra", a, -1, 100.0);
  c.add<Resistor>("Rb", b, -1, 100.0);
  c.add<Resistor>("Ro", o, -1, 1000.0);
  analysis::MnaSystem sys(c);
  // FD check of the bilinear Jacobian at a generic point.
  RVec x{0.3, -0.7, 0.1};
  circuit::MnaWorkspace ws(sys);
  ws.eval(x, 0.0, true);
  numeric::RMat g(3, 3);
  circuit::scatterDense(ws.pattern(), ws.gValues(), g);
  const Real h = 1e-7;
  for (std::size_t j = 0; j < 3; ++j) {
    RVec xp = x, xm = x;
    xp[j] += h;
    xm[j] -= h;
    ws.eval(xp, 0.0, false);
    const RVec fp = ws.f();
    ws.eval(xm, 0.0, false);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_NEAR(g(i, j), (fp[i] - ws.f()[i]) / (2 * h), 1e-6);
  }
}

}  // namespace
}  // namespace rfic
