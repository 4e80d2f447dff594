// Harmonic balance: exact linear answers, cross-validation against
// shooting, two-tone intermodulation against perturbation theory, solver
// ablation (direct vs matrix-implicit GMRES), and spectrum utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "analysis/dc.hpp"
#include "analysis/shooting.hpp"
#include "circuit/devices.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "fft/plan.hpp"
#include "hb/harmonic_balance.hpp"
#include "hb/spectrum.hpp"
#include "perf/perf.hpp"

namespace rfic::hb {
namespace {

using namespace rfic::circuit;
using analysis::dcOperatingPoint;
using numeric::RVec;

TEST(HB, LinearRCMatchesAnalytic) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1000.0));
  c.add<Resistor>("R1", in, out, 1000.0);
  c.add<Capacitor>("C1", out, -1, 1e-6);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HarmonicBalance hb(sys, {{1000.0, 4}});
  const auto sol = hb.solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const Complex h = 1.0 / Complex(1.0, kTwoPi * 1000.0 * 1e-3);
  EXPECT_NEAR(lineAmplitude(sol, static_cast<std::size_t>(out), 1),
              std::abs(h), 1e-8);
  // No spurious harmonics in a linear circuit.
  for (int k = 2; k <= 4; ++k)
    EXPECT_LT(lineAmplitude(sol, static_cast<std::size_t>(out), k), 1e-10);
}

TEST(HB, SingleToneMatchesShootingOnRectifier) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e4));
  Diode::Params dp;
  c.add<Diode>("D1", in, out, dp);
  c.add<Resistor>("RL", out, -1, 1e4);
  c.add<Capacitor>("CL", out, -1, 1e-8);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HBOptions ho;
  ho.continuationSteps = 4;
  HarmonicBalance hb(sys, {{1e4, 12}}, ho);
  const auto sol = hb.solve(dc.x);
  ASSERT_TRUE(sol.converged);

  analysis::ShootingOptions so;
  so.stepsPerPeriod = 3000;
  const auto pss = analysis::shootingPSS(sys, 1e-4, RVec(sys.dim(), 0.0), so);
  ASSERT_TRUE(pss.converged);
  Real avg = 0;
  for (std::size_t k = 0; k + 1 < pss.trajectory.size(); ++k)
    avg += pss.trajectory[k][static_cast<std::size_t>(out)];
  avg /= static_cast<Real>(pss.trajectory.size() - 1);
  EXPECT_NEAR(sol.at(static_cast<std::size_t>(out), 0).real(), avg, 2e-3);
}

TEST(HB, TwoToneIM3MatchesPerturbationTheory) {
  // Series Rs into g1·v + g3·v³: IM3 voltage ≈ (3/4)·g3·A³/(gs + g1) for
  // per-tone amplitude A at the nonlinear node.
  Circuit c;
  const int a = c.node("a"), s2 = c.node("s2"), b = c.node("b");
  const int br1 = c.allocBranch("V1"), br2 = c.allocBranch("V2");
  c.add<VSource>("V1", a, -1, br1, std::make_shared<SineWave>(0.06, 1.0e6),
                 TimeAxis::slow);
  c.add<VSource>("V2", s2, a, br2, std::make_shared<SineWave>(0.06, 1.3e6),
                 TimeAxis::fast);
  c.add<Resistor>("Rs", s2, b, 1000.0);
  c.add<CubicConductance>("GN", b, -1, 1e-3, 1e-2);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HarmonicBalance hb(sys, {{1.0e6, 3}, {1.3e6, 3}});
  const auto sol = hb.solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const auto bIdx = static_cast<std::size_t>(b);
  const Real aTone = lineAmplitude(sol, bIdx, 1, 0);
  const Real im3 = lineAmplitude(sol, bIdx, -1, 2);  // 2f2 − f1
  const Real predicted = 0.75 * 1e-2 * aTone * aTone * aTone / (2e-3);
  EXPECT_NEAR(im3, predicted, 0.15 * predicted);
  // IM3 on the other side (2f1 − f2) has the same magnitude by symmetry.
  EXPECT_NEAR(lineAmplitude(sol, bIdx, 2, -1), im3, 0.05 * im3);
}

TEST(HB, DirectAndIterativeSolversAgree) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(0.8, 1e5));
  c.add<Resistor>("Rs", in, out, 500.0);
  c.add<Diode>("D1", out, -1, Diode::Params{});
  c.add<Resistor>("RL", out, -1, 2000.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);

  HBOptions direct;
  direct.useDirectSolver = true;
  direct.continuationSteps = 2;
  HBOptions iterative;
  iterative.continuationSteps = 2;

  const auto sd = HarmonicBalance(sys, {{1e5, 8}}, direct).solve(dc.x);
  const auto si = HarmonicBalance(sys, {{1e5, 8}}, iterative).solve(dc.x);
  ASSERT_TRUE(sd.converged);
  ASSERT_TRUE(si.converged);
  for (int k = 0; k <= 8; ++k) {
    const Complex d = sd.at(static_cast<std::size_t>(out), k);
    const Complex i = si.at(static_cast<std::size_t>(out), k);
    EXPECT_NEAR(std::abs(d - i), 0.0, 1e-7) << "harmonic " << k;
  }
  EXPECT_GT(si.gmresIterations, 0u);
  EXPECT_EQ(sd.gmresIterations, 0u);
}

TEST(HB, ConjugateSymmetryAtNegativeIndex) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e3));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto sol = HarmonicBalance(sys, {{1e3, 3}}).solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const Complex plus = sol.at(0, 1);
  const Complex minus = sol.at(0, -1);
  EXPECT_NEAR(std::abs(minus - std::conj(plus)), 0.0, 1e-15);
  // Outside the truncation box: exactly zero.
  EXPECT_EQ(sol.at(0, 9), Complex(0.0, 0.0));
}

TEST(HB, EvaluateReconstructsWaveform) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(2.0, 1e3, 0.3));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto sol = HarmonicBalance(sys, {{1e3, 3}}).solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const auto u = static_cast<std::size_t>(in);
  for (Real t : {0.0, 1e-4, 3.7e-4, 9e-4}) {
    // x(t) = Σₖ Xₖ·e^{jkωt}: DC plus twice the real part of each positive
    // harmonic (the negative ones are their conjugates).
    Real v = sol.at(u, 0).real();
    for (int k = 1; k <= 3; ++k)
      v += 2.0 * (sol.at(u, k) *
                  std::exp(Complex(0.0, kTwoPi * 1e3 * k * t))).real();
    EXPECT_NEAR(v, 2.0 * std::sin(kTwoPi * 1e3 * t + 0.3), 1e-8);
  }
}

TEST(HB, UnknownCountsScaleWithTonesAndHarmonics) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e3));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const HarmonicBalance h1(sys, {{1e3, 5}});
  EXPECT_EQ(h1.numRealUnknowns(), 2u * (2 * 5 + 1));
  const HarmonicBalance h2(sys, {{1e3, 5}, {1.7e3, 5}});
  EXPECT_EQ(h2.numRealUnknowns(), 2u * (2 * 5 + 1) * (2 * 5 + 1));
}

TEST(HB, InvalidTonesThrow) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), -1, 50.0);
  MnaSystem sys(c);
  EXPECT_THROW(HarmonicBalance(sys, {}), InvalidArgument);
  EXPECT_THROW(HarmonicBalance(sys, {{0.0, 3}}), InvalidArgument);
  EXPECT_THROW(HarmonicBalance(sys, {{1e3, 0}}), InvalidArgument);
  EXPECT_THROW(HarmonicBalance(sys, {{1e3, 1}, {2e3, 1}, {3e3, 1}}),
               InvalidArgument);
}

TEST(HB, SquareWaveFourierContent) {
  // Square drive into a resistor: HB must reproduce the 4/π odd-harmonic
  // series and vanishing even harmonics.
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br,
                 std::make_shared<SquareWave>(-1.0, 1.0, 1e6, 0.01));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HBOptions ho;
  ho.oversample = 8;  // resolve the fast edges
  const auto sol = HarmonicBalance(sys, {{1e6, 9}}, ho).solve(dc.x);
  ASSERT_TRUE(sol.converged);
  const auto u = static_cast<std::size_t>(in);
  const Real a1 = lineAmplitude(sol, u, 1);
  // Finite rise time softens the ideal 4/π slightly.
  EXPECT_NEAR(a1, 4.0 / kPi, 0.02);
  EXPECT_NEAR(lineAmplitude(sol, u, 3) / a1, 1.0 / 3.0, 0.02);
  EXPECT_NEAR(lineAmplitude(sol, u, 5) / a1, 1.0 / 5.0, 0.03);
  EXPECT_LT(lineAmplitude(sol, u, 2), 1e-6);
  EXPECT_LT(lineAmplitude(sol, u, 4), 1e-6);
}

TEST(HB, SteadyStateSolveIsAllocationFree) {
  // The zero-allocation contract of the spectral hot path, checked by
  // counters (ISSUE 4): the engine-owned workspace grows while the first
  // solve warms up, then a second identical solve reuses every buffer
  // (workspaceGrowth flat), replays the cached plans (no new PlanCache
  // misses), and still does real spectral work (fftCount advances).
  Circuit c;
  const int a = c.node("a"), s2 = c.node("s2"), b = c.node("b");
  const int br1 = c.allocBranch("V1"), br2 = c.allocBranch("V2");
  c.add<VSource>("V1", a, -1, br1, std::make_shared<SineWave>(0.06, 1.0e6),
                 TimeAxis::slow);
  c.add<VSource>("V2", s2, a, br2, std::make_shared<SineWave>(0.06, 1.3e6),
                 TimeAxis::fast);
  c.add<Resistor>("Rs", s2, b, 1000.0);
  c.add<CubicConductance>("GN", b, -1, 1e-3, 1e-2);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  HarmonicBalance eng(sys, {{1.0e6, 4}, {1.3e6, 4}});

  const auto warm = eng.solve(dc.x);
  ASSERT_TRUE(warm.converged);
  const std::uint64_t growsAfterWarmup = eng.workspaceGrowth();
  EXPECT_GT(growsAfterWarmup, 0u);  // the first solve did size the buffers

  const auto missesBefore = fft::PlanCache::global().misses();
  const auto fftsBefore = perf::global().snapshot().fftCount;
  const auto again = eng.solve(dc.x);
  ASSERT_TRUE(again.converged);
  EXPECT_EQ(eng.workspaceGrowth(), growsAfterWarmup);
  EXPECT_EQ(fft::PlanCache::global().misses(), missesBefore);
  EXPECT_GT(perf::global().snapshot().fftCount, fftsBefore);
  // And the per-solution counters saw the spectral work too.
  EXPECT_GT(again.perf.fftCount, 0u);
}

TEST(Spectrum, DbcReferencesStrongestLine) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e6));
  c.add<Resistor>("Rs", in, -1, 50.0);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto sol = HarmonicBalance(sys, {{1e6, 3}}).solve(dc.x);
  const auto lines = spectrumOf(sol, static_cast<std::size_t>(in));
  // Find the fundamental: dbc = 0 there.
  bool foundCarrier = false;
  for (const auto& l : lines) {
    if (l.k1 == 1) {
      EXPECT_NEAR(l.dbc, 0.0, 1e-9);
      foundCarrier = true;
    }
  }
  EXPECT_TRUE(foundCarrier);
}

// One-port whose current is finite only inside |v| <= wall: a Newton trial
// beyond the wall evaluates to NaN.
class NanWall final : public Device {
 public:
  NanWall(std::string name, int node, Real wall)
      : Device(std::move(name)), n_(node), wall_(wall) {}
  void stamp(const RVec& x, const RVec*, Stamp& s) const override {
    const Real v = nodeVoltage(x, n_);
    const Real i =
        std::abs(v) <= wall_ ? v : std::numeric_limits<Real>::quiet_NaN();
    s.addF(n_, i);
    if (s.wantMatrices()) s.addG(n_, n_, 1.0);
  }

 private:
  int n_;
  Real wall_;
};

TEST(HarmonicBalance, DampingStopsOnANonFiniteLastTrial) {
  // A 2 A sine into the 1 mV wall: the full step lands near 2 V and even
  // the fifth halving stays beyond the wall, so every damped trial is NaN.
  // The update ends the solve Diverged after its first iteration instead
  // of taking the NaN trial and paying one more iteration to find out.
  Circuit c;
  const int n = c.node("n");
  c.add<NanWall>("W1", n, 1e-3);
  c.add<ISource>("I1", -1, n, std::make_shared<SineWave>(2.0, 1e3));
  MnaSystem sys(c);
  HBOptions opts;
  opts.maxRetries = 0;
  HarmonicBalance hb(sys, {{1e3, 3}}, opts);
  // The Diag build's finite contract on the HB time samples throws from
  // each NaN trial instead; the line search counts that as a non-finite
  // trial, so both builds end the same way.
  const HBSolution sol = hb.solve(RVec(sys.dim(), 0.0));
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.status, diag::SolverStatus::Diverged);
  EXPECT_EQ(sol.newtonIterations, 1u);
  for (std::size_t k = 0; k < sol.coeffs.cols(); ++k)
    EXPECT_TRUE(std::isfinite(std::abs(sol.coeffs(0, k)))) << "harmonic " << k;
}

TEST(Spectrum, ToDbHandlesZeros) {
  EXPECT_NEAR(toDb(10.0, 1.0), 20.0, 1e-12);
  EXPECT_EQ(toDb(0.0, 1.0), -400.0);
  EXPECT_EQ(toDb(1.0, 0.0), -400.0);
}

TEST(Spectrum, TransientSpectrumFindsTone) {
  const Real fs = 1e6, f0 = 12e3;
  std::vector<Real> samples(4096);
  for (std::size_t i = 0; i < samples.size(); ++i)
    samples[i] = 0.7 * std::sin(kTwoPi * f0 * static_cast<Real>(i) / fs);
  const auto sp = transientSpectrum(samples, fs);
  EXPECT_NEAR(amplitudeNear(sp, f0), 0.7, 0.02);
  EXPECT_LT(amplitudeNear(sp, 300e3), 1e-3);
}

}  // namespace
}  // namespace rfic::hb
