// Oscillator phase noise (Section 3): Floquet structure, PPV quality, the
// diffusion constant c and its scaling laws, Lorentzian spectrum
// properties, the LTV comparison, and a Monte-Carlo jitter check.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/shooting.hpp"
#include "analysis/transient.hpp"
#include "circuit/devices.hpp"
#include "circuit/sources.hpp"
#include "phasenoise/jitter_mc.hpp"
#include "phasenoise/phase_noise.hpp"

namespace rfic::phasenoise {
namespace {

using namespace rfic::circuit;
using analysis::IntegrationMethod;
using analysis::runTransient;
using analysis::ShootingOptions;
using analysis::shootingOscillatorPSS;
using analysis::TransientOptions;
using numeric::RVec;

// Shared van der Pol fixture; the PSS is computed once (expensive).
class VdpPhaseNoise : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    circuitPtr = std::make_unique<Circuit>();
    Circuit& c = *circuitPtr;
    const int v = c.node("v");
    const int br = c.allocBranch("L1");
    c.add<Capacitor>("C1", v, -1, 1e-9);
    c.add<Inductor>("L1", v, -1, br, 1e-6);
    c.add<Resistor>("Rl", v, -1, 2000.0);
    c.add<CubicConductance>("GN", v, -1, -2e-3, 1e-3);
    sysPtr = std::make_unique<MnaSystem>(c);

    TransientOptions to;
    to.tstop = 40e-6;
    to.dt = 2e-9;
    to.method = IntegrationMethod::trapezoidal;
    RVec x0(sysPtr->dim(), 0.0);
    x0[0] = 0.2;
    const auto tr = runTransient(*sysPtr, x0, to);
    const Real tEst = analysis::estimatePeriod(tr, 0, 0.0);
    ShootingOptions so;
    so.stepsPerPeriod = 800;
    pssPtr = std::make_unique<analysis::PSSResult>(
        shootingOscillatorPSS(*sysPtr, tEst, tr.x.back(), 0, 0.0, so));
    pnPtr = std::make_unique<PhaseNoiseResult>(
        analyzeOscillatorPhaseNoise(*sysPtr, *pssPtr));
  }
  static void TearDownTestSuite() {
    pnPtr.reset();
    pssPtr.reset();
    sysPtr.reset();
    circuitPtr.reset();
  }

  static std::unique_ptr<Circuit> circuitPtr;
  static std::unique_ptr<MnaSystem> sysPtr;
  static std::unique_ptr<analysis::PSSResult> pssPtr;
  static std::unique_ptr<PhaseNoiseResult> pnPtr;
};

std::unique_ptr<Circuit> VdpPhaseNoise::circuitPtr;
std::unique_ptr<MnaSystem> VdpPhaseNoise::sysPtr;
std::unique_ptr<analysis::PSSResult> VdpPhaseNoise::pssPtr;
std::unique_ptr<PhaseNoiseResult> VdpPhaseNoise::pnPtr;

TEST_F(VdpPhaseNoise, FloquetStructure) {
  ASSERT_TRUE(pssPtr->converged);
  const auto& fl = pnPtr->floquet;
  // One multiplier at 1 (the oscillatory mode), the rest strictly inside.
  const Complex osc = fl.multipliers[fl.oscillatoryIndex];
  EXPECT_NEAR(std::abs(osc - Complex(1.0, 0.0)), 0.0, 5e-3);
  for (std::size_t i = 0; i < fl.multipliers.size(); ++i) {
    if (i == fl.oscillatoryIndex) continue;
    EXPECT_LT(std::abs(fl.multipliers[i]), 0.95);
  }
}

TEST_F(VdpPhaseNoise, PPVBiorthonormalization) {
  EXPECT_LT(pnPtr->floquet.normalizationDefect, 1e-3);
  // PPV is periodic by construction.
  const auto& ppv = pnPtr->floquet.ppv;
  RVec d = ppv.back();
  d -= ppv.front();
  EXPECT_NEAR(numeric::norm2(d), 0.0, 1e-12);
}

TEST_F(VdpPhaseNoise, DiffusionConstantPositiveAndAttributed) {
  EXPECT_GT(pnPtr->c, 0.0);
  // The only white source is the resistor: per-source sum equals c.
  Real sum = 0;
  for (const auto& [label, cc] : pnPtr->perSource) {
    EXPECT_GE(cc, 0.0);
    sum += cc;
  }
  EXPECT_NEAR(sum, pnPtr->c, 1e-12 * pnPtr->c);
  ASSERT_EQ(pnPtr->perSource.size(), 1u);
  EXPECT_NE(pnPtr->perSource[0].first.find("Rl"), std::string::npos);
}

TEST_F(VdpPhaseNoise, JitterGrowsLinearlyWithoutBound) {
  const Real s1 = pnPtr->jitterVariance(1e-6);
  const Real s2 = pnPtr->jitterVariance(2e-6);
  const Real s10 = pnPtr->jitterVariance(10e-6);
  EXPECT_NEAR(s2 / s1, 2.0, 1e-12);
  EXPECT_NEAR(s10 / s1, 10.0, 1e-12);
}

TEST_F(VdpPhaseNoise, LorentzianFiniteAtCarrierAndPowerPreserved) {
  // Finite at zero offset...
  const Real peak = pnPtr->lorentzian(1, 0.0);
  EXPECT_TRUE(std::isfinite(peak));
  EXPECT_GT(peak, 0.0);
  // ...and the normalized Lorentzian integrates to 1 (total carrier power
  // preserved despite the spreading). Integrate numerically.
  const Real halfWidth = pnPtr->linewidthHz();
  Real integral = 0;
  const Real span = 4000.0 * halfWidth;
  const std::size_t steps = 40000;
  const Real df = 2 * span / static_cast<Real>(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const Real f = -span + (static_cast<Real>(i) + 0.5) * df;
    integral += pnPtr->lorentzian(1, f) * df;
  }
  EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST_F(VdpPhaseNoise, LTVMatchesFarFromCarrierDivergesAtCarrier) {
  const Real farOffset = 1e6;
  EXPECT_NEAR(pnPtr->ssbPhaseNoiseDbc(farOffset),
              pnPtr->ltvPhaseNoiseDbc(farOffset), 0.1);
  // Close to the carrier the LTV result blows up; the Lorentzian saturates.
  const Real tiny = pnPtr->linewidthHz() * 1e-3;
  EXPECT_GT(pnPtr->ltvPhaseNoiseDbc(tiny), pnPtr->ssbPhaseNoiseDbc(tiny) + 50);
  EXPECT_THROW(pnPtr->ltvPhaseNoiseDbc(0.0), InvalidArgument);
}

TEST_F(VdpPhaseNoise, PhaseNoiseFallsTwentyDbPerDecade) {
  const Real l1 = pnPtr->ssbPhaseNoiseDbc(1e4);
  const Real l2 = pnPtr->ssbPhaseNoiseDbc(1e5);
  EXPECT_NEAR(l1 - l2, 20.0, 0.5);
}

TEST_F(VdpPhaseNoise, DiffusionScalesLinearlyWithNoisePower) {
  // Doubling the resistor noise (halving R would change the oscillator;
  // instead rerun the analysis with two identical oscillators differing
  // only in noise scale via the MC options is not possible for c itself, so
  // verify the underlying quadrature: c is a linear functional of the PSD).
  // Here: rebuild the same oscillator with R split into two parallel 4 kΩ
  // resistors — identical dynamics, identical total PSD ⇒ identical c.
  Circuit c2;
  const int v = c2.node("v");
  const int br = c2.allocBranch("L1");
  c2.add<Capacitor>("C1", v, -1, 1e-9);
  c2.add<Inductor>("L1", v, -1, br, 1e-6);
  c2.add<Resistor>("Rl1", v, -1, 4000.0);
  c2.add<Resistor>("Rl2", v, -1, 4000.0);
  c2.add<CubicConductance>("GN", v, -1, -2e-3, 1e-3);
  MnaSystem sys2(c2);
  ShootingOptions so;
  so.stepsPerPeriod = 800;
  const auto pss2 =
      shootingOscillatorPSS(sys2, pssPtr->period, pssPtr->x0, 0, 0.0, so);
  ASSERT_TRUE(pss2.converged);
  const auto pn2 = analyzeOscillatorPhaseNoise(sys2, pss2);
  EXPECT_EQ(pn2.perSource.size(), 2u);
  EXPECT_NEAR(pn2.c, pnPtr->c, 0.01 * pnPtr->c);
}

TEST_F(VdpPhaseNoise, MonteCarloJitterMatchesTheory) {
  JitterMCOptions jo;
  jo.paths = 24;
  jo.cycles = 25;
  jo.stepsPerCycle = 250;
  jo.noiseScale = 1e6;  // lift thermal noise to a measurable level
  jo.seed = 777;
  const auto mc = monteCarloJitter(*sysPtr, *pssPtr, 0, 0.0, pnPtr->c, jo);
  ASSERT_GE(mc.usedPaths, 8u);
  EXPECT_GT(mc.slopePerCycle, 0.0);
  // 24 paths → ~30% statistical uncertainty; accept a factor of 2 window.
  EXPECT_GT(mc.slopePerCycle / mc.theoreticalSlope, 0.5);
  EXPECT_LT(mc.slopePerCycle / mc.theoreticalSlope, 2.0);
  // Variance grows with cycle index (bound drift, not flat).
  EXPECT_GT(mc.crossingVar.back(), mc.crossingVar[1]);
}

TEST_F(VdpPhaseNoise, NodeSensitivityConsistentWithPerSource) {
  // A white source of PSD S at node i contributes (S/2)·nodeSensitivity[i]²
  // to c (up to waveform-correlation detail: for a node-to-ground source it
  // is exact). The tank resistor sits at unknown 0.
  const auto& pn = *pnPtr;
  ASSERT_EQ(pn.nodeSensitivity.size(), 2u);
  const Real s = 4.0 * 1.380649e-23 * 300.0 / 2000.0;  // Rl thermal PSD
  const Real predicted =
      0.5 * s * pn.nodeSensitivity[0] * pn.nodeSensitivity[0];
  Real cRl = 0;
  for (const auto& [label, cc] : pn.perSource)
    if (label.rfind("Rl.", 0) == 0) cRl = cc;
  EXPECT_NEAR(predicted, cRl, 1e-3 * cRl);
}

TEST(PhaseNoiseGuards, UnconvergedPSSRejected) {
  Circuit c;
  const int v = c.node("v");
  c.add<Resistor>("R", v, -1, 100.0);
  MnaSystem sys(c);
  analysis::PSSResult bogus;  // converged = false
  EXPECT_THROW(floquetDecompose(sys, bogus), InvalidArgument);
}

}  // namespace
}  // namespace rfic::phasenoise
