// RF performance measures (Section 1's spec list: intercept point, 1 dB
// compression, noise figure) and S-parameters (Section 4's output format).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "analysis/dc.hpp"
#include "analysis/noise.hpp"
#include "analysis/sparams.hpp"
#include "circuit/devices.hpp"
#include "circuit/sources.hpp"
#include "hb/rf_measures.hpp"
#include "hb/spectrum.hpp"

namespace rfic {
namespace {

using namespace rfic::circuit;
using numeric::RVec;

// Two-tone testbench: Rs into g1 + g3·v³ — every measure has a closed form.
struct CubicBench {
  Circuit c;
  int b = 0;
  Real g1 = 1e-3, g3 = 2e-2, rs = 1000.0;
  std::unique_ptr<analysis::MnaSystem> sys;

  explicit CubicBench(Real driveAmp, Real f1 = 1e6, Real f2 = 1.3e6) {
    const int a = c.node("a"), s2 = c.node("s2");
    b = c.node("b");
    const int br1 = c.allocBranch("V1"), br2 = c.allocBranch("V2");
    c.add<VSource>("V1", a, -1, br1,
                   std::make_shared<SineWave>(driveAmp, f1), TimeAxis::slow);
    c.add<VSource>("V2", s2, a, br2,
                   std::make_shared<SineWave>(driveAmp, f2), TimeAxis::fast);
    c.add<Resistor>("Rs", s2, b, rs);
    c.add<CubicConductance>("GN", b, -1, g1, g3);
    sys = std::make_unique<analysis::MnaSystem>(c);
  }
};

TEST(RFMeasures, IP3MatchesPerturbationTheory) {
  const Real drive = 0.02;
  CubicBench tb(drive);
  const auto dc = analysis::dcOperatingPoint(*tb.sys);
  hb::HarmonicBalance eng(*tb.sys, {{1e6, 3}, {1.3e6, 3}});
  const auto sol = eng.solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const auto ip3 = hb::intercept3(sol, static_cast<std::size_t>(tb.b), drive);

  // Analytic: per-tone node amplitude A = drive·gs/(gs+g1); IM3 node
  // voltage = (3/4)·g3·A³/(gs+g1). A_IP3,in = drive·sqrt(A1/A3).
  const Real gs = 1.0 / tb.rs;
  const Real a1 = drive * gs / (gs + tb.g1);
  const Real a3 = 0.75 * tb.g3 * a1 * a1 * a1 / (gs + tb.g1);
  const Real ip3Ref = drive * std::sqrt(a1 / a3);
  EXPECT_NEAR(ip3.inputIP3, ip3Ref, 0.05 * ip3Ref);
  EXPECT_LT(ip3.im3Dbc, -20.0);
}

TEST(RFMeasures, IP3IndependentOfDriveInWeakRegime) {
  // The defining property of an intercept point: the extrapolation is
  // drive-independent while the device is weakly nonlinear.
  Real prev = 0;
  for (const Real drive : {0.01, 0.02, 0.04}) {
    CubicBench tb(drive);
    const auto dc = analysis::dcOperatingPoint(*tb.sys);
    hb::HarmonicBalance eng(*tb.sys, {{1e6, 3}, {1.3e6, 3}});
    const auto sol = eng.solve(dc.x);
    ASSERT_TRUE(sol.converged);
    const auto ip3 =
        hb::intercept3(sol, static_cast<std::size_t>(tb.b), drive);
    if (prev > 0) {
      EXPECT_NEAR(ip3.inputIP3, prev, 0.1 * prev);
    }
    prev = ip3.inputIP3;
  }
}

TEST(RFMeasures, CompressionPointOfCubicSoftLimiter) {
  // For y = g1·v + g3·v³ with g3 < 0 (compressive), the gain is
  // g1·(1 + (3g3/4g1)·A²); 1 dB compression at A² = (1 − 10^{−1/20})·(4/3)·
  // |g1/g3| ≈ 0.145·|g1/g3|.
  const Real g1 = 1.0, g3 = -0.1;
  auto fundamental = [&](Real a) {
    // Output fundamental of the cubic: g1·a + (3/4)·g3·a³.
    return g1 * a + 0.75 * g3 * a * a * a;
  };
  const auto res = hb::compressionPoint(fundamental, 0.01, 3.0, 60);
  ASSERT_TRUE(res.found);
  const Real ref = std::sqrt((1.0 - std::pow(10.0, -0.05)) * 4.0 / 3.0 *
                              std::abs(g1 / g3));
  EXPECT_NEAR(res.inputP1dB, ref, 0.03 * ref);
  EXPECT_NEAR(res.smallSignalGain, g1, 1e-3);
}

TEST(RFMeasures, CompressionPointViaRealHBSweep) {
  // Drive the cubic bench harder and harder through single-tone HB and
  // find P1dB from actual solutions; compare against the closed form for
  // the node voltage v solving gs·(a−v) = g1·v + g3·v³.
  const Real g1 = 1e-3, g3 = 5e-3, rs = 1000.0;
  auto fundamentalOut = [&](Real amp) {
    Circuit c;
    const int a = c.node("a"), b = c.node("b");
    const int br = c.allocBranch("V1");
    c.add<VSource>("V1", a, -1, br, std::make_shared<SineWave>(amp, 1e6));
    c.add<Resistor>("Rs", a, b, rs);
    c.add<CubicConductance>("GN", b, -1, g1, g3);
    analysis::MnaSystem sys(c);
    const auto dc = analysis::dcOperatingPoint(sys);
    hb::HBOptions ho;
    ho.continuationSteps = 3;
    const auto sol = hb::HarmonicBalance(sys, {{1e6, 5}}, ho).solve(dc.x);
    EXPECT_TRUE(sol.converged) << "amp=" << amp;
    return hb::lineAmplitude(sol, static_cast<std::size_t>(b), 1);
  };
  const auto res = hb::compressionPoint(fundamentalOut, 0.05, 4.0, 16);
  ASSERT_TRUE(res.found);
  // Small-signal gain is the divider gs/(gs+g1) = 0.5.
  EXPECT_NEAR(res.smallSignalGain, 0.5, 0.02);
  // Sanity bracket for the compression point from the describing function
  // (v_1dB² ≈ 0.145·(4/3)·(gs+g1)/g3 ⇒ a_1dB = v/0.445): ~1 V drive scale.
  EXPECT_GT(res.inputP1dB, 0.3);
  EXPECT_LT(res.inputP1dB, 3.0);
}

TEST(RFMeasures, CompressionNotFoundForLinearSystem) {
  const auto res = hb::compressionPoint([](Real a) { return 2.0 * a; }, 0.01,
                                        1.0, 20);
  EXPECT_FALSE(res.found);
}

TEST(RFMeasures, NoiseFigureOfResistiveAttenuator) {
  // Matched resistive divider: an attenuator's NF equals its attenuation.
  // Rs = R2 = 1k: output sees Rs and R2 equally → F = 2 (3 dB).
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("Rs", in, out, 1000.0);
  c.add<Resistor>("R2", out, -1, 1000.0);
  analysis::MnaSystem sys(c);
  const auto noise =
      analysis::noiseAnalysis(sys, RVec(sys.dim(), 0.0), out, {1e6});
  const auto nf = hb::noiseFigureDb(noise, "Rs");
  ASSERT_EQ(nf.size(), 1u);
  EXPECT_NEAR(nf[0], 3.0103, 1e-3);
}

TEST(RFMeasures, NoiseFigureRejectsWrongLabel) {
  Circuit c;
  const int out = c.node("out");
  c.add<Resistor>("R2", out, -1, 1000.0);
  analysis::MnaSystem sys(c);
  const auto noise =
      analysis::noiseAnalysis(sys, RVec(sys.dim(), 0.0), out, {1e6});
  EXPECT_THROW(hb::noiseFigureDb(noise, "Rsrc"), InvalidArgument);
}

// ------------------------------------------------------- S-parameters

TEST(SParams, MatchedLoadIsReflectionless) {
  Circuit c;
  const int p = c.node("p");
  c.add<Resistor>("R1", p, -1, 50.0);
  analysis::MnaSystem sys(c);
  const auto sp = analysis::sParameters(sys, RVec(sys.dim(), 0.0),
                                        {{p, -1, "p1"}}, 1e9, 50.0);
  EXPECT_NEAR(std::abs(sp.s(0, 0)), 0.0, 1e-9);  // port gmin regularization
}

TEST(SParams, OutOfRangePortNodeRejected) {
  Circuit c;
  const int p = c.node("p");
  c.add<Resistor>("R1", p, -1, 50.0);
  analysis::MnaSystem sys(c);
  // The diagnostic names the entry point and the port, not an internal
  // container the bad index happens to reach first.
  for (const analysis::Port& bad :
       {analysis::Port{p, 3, "p1"}, analysis::Port{1, -1, "p1"}}) {
    try {
      analysis::sParameters(sys, RVec(1, 0.0), {bad}, 1e9);
      ADD_FAILURE() << "out-of-range port node accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("sParameters: port node"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(analysis::sParameters(sys, RVec(2, 0.0), {{p, -1, "p1"}}, 1e9),
               InvalidArgument);
}

TEST(SParams, OpenAndShortReflections) {
  {
    Circuit c;
    const int p = c.node("p");
    c.add<Resistor>("Ropen", p, -1, 50e9);  // ~open
    analysis::MnaSystem sys(c);
    const auto sp = analysis::sParameters(sys, RVec(sys.dim(), 0.0),
                                          {{p, -1, "p1"}}, 1e6, 50.0);
    EXPECT_NEAR(sp.s(0, 0).real(), 1.0, 1e-6);
  }
  {
    Circuit c;
    const int p = c.node("p");
    c.add<Resistor>("Rshort", p, -1, 1e-6);
    analysis::MnaSystem sys(c);
    const auto sp = analysis::sParameters(sys, RVec(sys.dim(), 0.0),
                                          {{p, -1, "p1"}}, 1e6, 50.0);
    EXPECT_NEAR(sp.s(0, 0).real(), -1.0, 1e-6);
  }
}

TEST(SParams, SeriesResistorTwoPort) {
  // Series R between two 50 Ω ports: S21 = 2Z0/(2Z0 + R).
  Circuit c;
  const int p1 = c.node("p1"), p2 = c.node("p2");
  c.add<Resistor>("R1", p1, p2, 100.0);
  analysis::MnaSystem sys(c);
  const auto sp = analysis::sParameters(
      sys, RVec(sys.dim(), 0.0), {{p1, -1, "p1"}, {p2, -1, "p2"}}, 1e8, 50.0);
  const Real s21Ref = 2.0 * 50.0 / (2.0 * 50.0 + 100.0);
  EXPECT_NEAR(std::abs(sp.s(1, 0)), s21Ref, 1e-9);
  EXPECT_NEAR(std::abs(sp.s(0, 1)), s21Ref, 1e-9);  // reciprocity
  EXPECT_NEAR(std::abs(sp.s(0, 0)), 0.5, 1e-9);     // R/(R+2Z0)
  EXPECT_TRUE(analysis::isPassiveSample(sp));
}

TEST(SParams, RCLowpassRollsOffS21) {
  Circuit c;
  const int p1 = c.node("p1"), p2 = c.node("p2");
  c.add<Resistor>("R1", p1, p2, 50.0);
  c.add<Capacitor>("C1", p2, -1, 10e-12);
  analysis::MnaSystem sys(c);
  const std::vector<analysis::Port> ports{{p1, -1, "p1"}, {p2, -1, "p2"}};
  const auto lo = analysis::sParameters(sys, RVec(sys.dim(), 0.0), ports, 1e6);
  const auto hi = analysis::sParameters(sys, RVec(sys.dim(), 0.0), ports, 1e10);
  EXPECT_GT(std::abs(lo.s(1, 0)), std::abs(hi.s(1, 0)) * 10.0);
  EXPECT_TRUE(analysis::isPassiveSample(lo));
  EXPECT_TRUE(analysis::isPassiveSample(hi));
}

TEST(SParams, ActiveNetworkFailsPassivityCheck) {
  // A VCCS-boosted network can have |S21| > 1.
  Circuit c;
  const int p1 = c.node("p1"), p2 = c.node("p2");
  c.add<Resistor>("Rin", p1, -1, 50.0);
  c.add<VCCS>("Gm", -1, p2, p1, -1, 0.2);  // transconductance into port 2
  c.add<Resistor>("Rout", p2, -1, 50.0);
  analysis::MnaSystem sys(c);
  const auto sp = analysis::sParameters(
      sys, RVec(sys.dim(), 0.0), {{p1, -1, "p1"}, {p2, -1, "p2"}}, 1e8, 50.0);
  EXPECT_GT(std::abs(sp.s(1, 0)), 1.0);
  EXPECT_FALSE(analysis::isPassiveSample(sp));
}

TEST(SParams, SweepShapes) {
  Circuit c;
  const int p = c.node("p");
  c.add<Resistor>("R1", p, -1, 75.0);
  analysis::MnaSystem sys(c);
  const auto freqs = analysis::logspace(1e6, 1e9, 4);
  const auto sweep = analysis::sParameterSweep(sys, RVec(sys.dim(), 0.0),
                                               {{p, -1, "p1"}}, freqs);
  ASSERT_EQ(sweep.size(), 4u);
  for (const auto& sp : sweep)
    EXPECT_NEAR(sp.s(0, 0).real(), 0.2, 1e-9);  // (75-50)/(75+50)
}

}  // namespace
}  // namespace rfic
