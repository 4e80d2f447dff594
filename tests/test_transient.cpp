// Transient integration: analytic RC/RLC references, method convergence
// orders, adaptive stepping, sensitivity propagation, the refactor skip on
// a linear circuit, and the stochastic (noisy) integrator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dc.hpp"
#include "analysis/transient.hpp"
#include "circuit/devices.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"

namespace rfic::analysis {
namespace {

using namespace rfic::circuit;
using numeric::RVec;

struct RCFixture {
  Circuit c;
  int in = 0, out = 0, br = 0;
  MnaSystem* sys = nullptr;
  std::unique_ptr<MnaSystem> holder;

  explicit RCFixture(std::shared_ptr<const Waveform> w) {
    in = c.node("in");
    out = c.node("out");
    br = c.allocBranch("V1");
    c.add<VSource>("V1", in, -1, br, std::move(w));
    c.add<Resistor>("R1", in, out, 1000.0);
    c.add<Capacitor>("C1", out, -1, 1e-6);  // tau = 1 ms
    holder = std::make_unique<MnaSystem>(c);
    sys = holder.get();
  }
};

TEST(Transient, RCStepResponseMatchesAnalytic) {
  RCFixture f(std::make_shared<DCWave>(1.0));
  TransientOptions to;
  to.tstop = 3e-3;
  to.dt = 5e-6;
  RVec x0(f.sys->dim(), 0.0);
  x0[static_cast<std::size_t>(f.in)] = 1.0;
  const auto tr = runTransient(*f.sys, x0, to);
  ASSERT_TRUE(tr.ok);
  for (std::size_t k = 0; k < tr.time.size(); k += 50) {
    const Real expct = 1.0 - std::exp(-tr.time[k] / 1e-3);
    EXPECT_NEAR(tr.x[k][static_cast<std::size_t>(f.out)], expct, 2e-4);
  }
}

class MethodOrder : public ::testing::TestWithParam<IntegrationMethod> {};

TEST_P(MethodOrder, ErrorDropsWithStep) {
  // Halving dt should reduce the final-time error by ~2× (BE) or ~4×
  // (trap/gear2).
  const auto method = GetParam();
  auto runWith = [&](Real dt) {
    RCFixture f(std::make_shared<DCWave>(1.0));
    TransientOptions to;
    to.tstop = 1e-3;
    to.dt = dt;
    to.method = method;
    RVec x0(f.sys->dim(), 0.0);
    x0[static_cast<std::size_t>(f.in)] = 1.0;
    const auto tr = runTransient(*f.sys, x0, to);
    EXPECT_TRUE(tr.ok);
    return std::abs(tr.x.back()[static_cast<std::size_t>(f.out)] -
                    (1.0 - std::exp(-1.0)));
  };
  const Real e1 = runWith(2e-5);
  const Real e2 = runWith(1e-5);
  const Real order = std::log2(e1 / e2);
  if (method == IntegrationMethod::backwardEuler) {
    EXPECT_NEAR(order, 1.0, 0.35);
  } else {
    EXPECT_GT(order, 1.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, MethodOrder,
                         ::testing::Values(IntegrationMethod::backwardEuler,
                                           IntegrationMethod::trapezoidal,
                                           IntegrationMethod::gear2));

TEST(Transient, RLCRingingMatchesAnalytic) {
  // Series RLC: L = 1 mH, C = 1 uF, R = 20 → underdamped.
  Circuit c;
  const int a = c.node("a"), b = c.node("b");
  const int br = c.allocBranch("L1");
  c.add<Resistor>("R1", a, b, 20.0);
  c.add<Inductor>("L1", b, -1, br, 1e-3);
  c.add<Capacitor>("C1", a, -1, 1e-6);
  MnaSystem sys(c);
  // Initial condition: capacitor charged to 1 V.
  RVec x0(sys.dim(), 0.0);
  x0[static_cast<std::size_t>(a)] = 1.0;
  x0[static_cast<std::size_t>(b)] = 1.0;
  TransientOptions to;
  to.tstop = 2e-4;
  to.dt = 5e-8;
  const auto tr = runTransient(sys, x0, to);
  ASSERT_TRUE(tr.ok);
  // v_C(t) = e^{-αt}(cos(ωd t) + α/ωd sin(ωd t)), α = R/2L, ωd = sqrt(1/LC − α²)
  const Real alpha = 20.0 / (2 * 1e-3);
  const Real wd = std::sqrt(1.0 / (1e-3 * 1e-6) - alpha * alpha);
  for (std::size_t k = 100; k < tr.time.size(); k += 400) {
    const Real t = tr.time[k];
    const Real expct = std::exp(-alpha * t) *
                       (std::cos(wd * t) + alpha / wd * std::sin(wd * t));
    EXPECT_NEAR(tr.x[k][static_cast<std::size_t>(a)], expct, 5e-3);
  }
}

TEST(Transient, SineDriveSteadyStateAmplitude) {
  RCFixture f(std::make_shared<SineWave>(1.0, 1000.0));
  TransientOptions to;
  to.tstop = 10e-3;  // 10 tau: transient decayed
  to.dt = 2e-6;
  const auto tr = runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to);
  ASSERT_TRUE(tr.ok);
  Real amp = 0;
  for (std::size_t k = tr.time.size() / 2; k < tr.time.size(); ++k)
    amp = std::max(amp, std::abs(tr.x[k][static_cast<std::size_t>(f.out)]));
  const Real wrc = kTwoPi * 1000.0 * 1e-3;
  EXPECT_NEAR(amp, 1.0 / std::sqrt(1.0 + wrc * wrc), 2e-3);
}

TEST(Transient, AdaptiveUsesFewerStepsOnSmoothProblem) {
  RCFixture fixed(std::make_shared<DCWave>(1.0));
  TransientOptions to;
  to.tstop = 5e-3;
  to.dt = 1e-6;
  RVec x0(fixed.sys->dim(), 0.0);
  x0[static_cast<std::size_t>(fixed.in)] = 1.0;
  const auto trFixed = runTransient(*fixed.sys, x0, to);

  RCFixture adapt(std::make_shared<DCWave>(1.0));
  to.adaptive = true;
  to.reltol = 1e-3;
  const auto trAdapt = runTransient(*adapt.sys, x0, to);
  ASSERT_TRUE(trFixed.ok);
  ASSERT_TRUE(trAdapt.ok);
  // Adaptive never takes MORE steps than fixed at the same base dt cap,
  // and the answer stays accurate.
  EXPECT_LE(trAdapt.steps, trFixed.steps);
  EXPECT_NEAR(trAdapt.x.back()[static_cast<std::size_t>(adapt.out)],
              1.0 - std::exp(-5.0), 5e-3);
}

TEST(Transient, DiodeRectifierChargesCapacitor) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(5.0, 1000.0));
  c.add<Diode>("D1", in, out, Diode::Params{});
  c.add<Capacitor>("CL", out, -1, 1e-6);
  c.add<Resistor>("RL", out, -1, 100000.0);
  MnaSystem sys(c);
  TransientOptions to;
  to.tstop = 5e-3;
  to.dt = 1e-6;
  const auto tr = runTransient(sys, RVec(sys.dim(), 0.0), to);
  ASSERT_TRUE(tr.ok);
  const Real vpk = tr.x.back()[static_cast<std::size_t>(out)];
  EXPECT_GT(vpk, 3.9);  // ≈ 5 − Vdiode with light droop
  EXPECT_LT(vpk, 5.0);
}

TEST(Transient, SensitivityMatchesPerturbation) {
  RCFixture f(std::make_shared<DCWave>(0.0));
  const std::size_t n = f.sys->dim();
  RVec x0(n, 0.0);
  x0[static_cast<std::size_t>(f.out)] = 1.0;  // charged cap, decaying
  numeric::RMat sens = numeric::RMat::identity(n);
  RVec x1;
  const Real h = 1e-5;
  circuit::MnaWorkspace ws(*f.sys);
  ASSERT_TRUE(integrateStep(ws, IntegrationMethod::backwardEuler, 0.0, h, x0,
                            nullptr, x1, &sens));
  // Perturb the capacitor voltage and re-integrate.
  RVec x0p = x0;
  const Real dv = 1e-6;
  x0p[static_cast<std::size_t>(f.out)] += dv;
  RVec x1p;
  ASSERT_TRUE(integrateStep(ws, IntegrationMethod::backwardEuler, 0.0, h, x0p,
                            nullptr, x1p, nullptr));
  for (std::size_t i = 0; i < n; ++i) {
    const Real fd = (x1p[i] - x1[i]) / dv;
    EXPECT_NEAR(sens(i, static_cast<std::size_t>(f.out)), fd, 1e-5);
  }
}

TEST(Transient, InvalidOptionsThrow) {
  RCFixture f(std::make_shared<DCWave>(1.0));
  TransientOptions to;  // tstop = 0
  EXPECT_THROW(runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to),
               InvalidArgument);
  to.tstop = 1e-3;
  to.dt = 0.0;
  EXPECT_THROW(runTransient(*f.sys, RVec(f.sys->dim(), 0.0), to),
               InvalidArgument);
}

TEST(Transient, NonFiniteStartIsRejectedByName) {
  // A NaN or Inf start can only end in a step-control collapse (19 dt
  // halvings and 40 evaluations before StepLimit on this RC); it is
  // rejected at entry instead, naming x0, before any evaluation.
  Circuit c;
  const int a = c.node("a");
  c.add<Resistor>("R1", a, -1, 1e3);
  c.add<Capacitor>("C1", a, -1, 1e-9);
  MnaSystem sys(c);
  TransientOptions to;
  to.dt = 1e-7;
  to.tstop = 1e-6;
  for (const Real bad : {std::numeric_limits<Real>::quiet_NaN(),
                         std::numeric_limits<Real>::infinity()}) {
    const perf::Snapshot before = perf::global().snapshot();
    try {
      (void)runTransient(sys, RVec(1, bad), to);
      ADD_FAILURE() << "non-finite x0 accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("x0"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(perf::global().snapshot().evals, before.evals);
  }
}

TEST(Transient, LinearMeshFactorsOnceAndWarmMatchesColdBitwise) {
  // A linear circuit at a fixed step has one Jacobian: the first step
  // factors it and every later one skips the refactor. A warm workspace
  // (the engine's pooled context) starts from the previous run's factors
  // and must reproduce the cold run's waveforms bit for bit.
  Circuit c;
  const std::size_t k = 12;
  std::vector<int> node(k * k);
  for (std::size_t i = 0; i < k * k; ++i)
    node[i] = c.node("n" + std::to_string(i));
  c.add<VSource>("V1", node[0], -1, c.allocBranch("V1"),
                 std::make_shared<SineWave>(1.0, 1e6));
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t a = i * k + j;
      const std::string tag = std::to_string(a);
      if (j + 1 < k)
        c.add<Resistor>("Rh" + tag, node[a], node[a + 1], 90.0 + j);
      if (i + 1 < k)
        c.add<Resistor>("Rv" + tag, node[a], node[a + k], 110.0 - i);
      c.add<Capacitor>("Cg" + tag, node[a], -1, 1e-12 * (1.0 + 0.01 * j));
    }
  const MnaSystem sys(c);
  TransientOptions o;
  o.tstop = 2e-6;
  o.dt = 1e-7;
  const RVec x0(sys.dim(), 0.0);

  const TransientResult cold = runTransient(sys, x0, o);
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.steps, 20u);
  EXPECT_EQ(cold.perf.factorizations, 1u);
  EXPECT_EQ(cold.perf.refactorizations, 0u);
  EXPECT_EQ(cold.perf.refactorSkips, cold.steps - 1);

  MnaWorkspace ws(sys);
  o.workspace = &ws;
  (void)runTransient(sys, x0, o);
  const TransientResult warm = runTransient(sys, x0, o);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.perf.factorizations + warm.perf.refactorizations, 0u);
  EXPECT_EQ(warm.perf.refactorSkips, warm.steps);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t s = 0; s < cold.x.size(); ++s) {
    ASSERT_EQ(warm.x[s].size(), cold.x[s].size());
    EXPECT_EQ(std::memcmp(warm.x[s].data(), cold.x[s].data(),
                          cold.x[s].size() * sizeof(Real)),
              0)
        << "step " << s;
  }
}

TEST(Transient, LastStepKeepsTheFixedStep) {
  // 199 additions of 1e-7 leave t a few ulps below 1.99e-5, so clamping
  // the last step to tstop − t would give it a new step, hence a new
  // Jacobian to replay. Kept at dt, the whole run has one Jacobian: a cold
  // run factors it once and skips every other step, a warm rerun skips
  // all 200.
  Circuit c;
  std::vector<int> node;
  for (int i = 0; i < 5; ++i) node.push_back(c.node("n" + std::to_string(i)));
  c.add<VSource>("V1", node[0], -1, c.allocBranch("V1"),
                 std::make_shared<SineWave>(1.0, 1e5));
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    c.add<Resistor>("R" + tag, node[i], node[i + 1], 1e3);
    c.add<Capacitor>("C" + tag, node[i + 1], -1, 1e-9);
  }
  const MnaSystem sys(c);
  TransientOptions o;
  o.tstop = 2e-5;
  o.dt = 1e-7;
  const RVec x0(sys.dim(), 0.0);
  MnaWorkspace ws(sys);
  o.workspace = &ws;

  const TransientResult cold = runTransient(sys, x0, o);
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.steps, 200u);
  EXPECT_EQ(cold.perf.factorizations, 1u);
  EXPECT_EQ(cold.perf.refactorizations, 0u);
  EXPECT_EQ(cold.perf.refactorSkips, 199u);

  const TransientResult warm = runTransient(sys, x0, o);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.steps, 200u);
  EXPECT_EQ(warm.perf.factorizations, 0u);
  EXPECT_EQ(warm.perf.refactorizations, 0u);
  EXPECT_EQ(warm.perf.refactorSkips, 200u);
}

TEST(NoisyTransient, ZeroNoiseMatchesDeterministic) {
  // A purely reactive circuit (no resistor noise sources): the stochastic
  // integrator must reproduce the deterministic BE trajectory.
  Circuit c;
  const int a = c.node("a");
  c.add<Capacitor>("C1", a, -1, 1e-9);
  c.add<ISource>("I1", -1, a, std::make_shared<DCWave>(1e-6));
  MnaSystem sys(c);
  TransientOptions to;
  to.tstop = 1e-6;
  to.dt = 1e-9;
  const auto det = runTransient(sys, RVec(1, 0.0), to);
  TransientOptions tn = to;
  tn.method = IntegrationMethod::backwardEuler;
  const auto sto = runNoisyTransient(sys, RVec(1, 0.0), tn, 99);
  ASSERT_TRUE(det.ok);
  ASSERT_TRUE(sto.ok);
  EXPECT_NEAR(sto.x.back()[0], det.x.back()[0], 1e-9);
}

TEST(NoisyTransient, NonFiniteStateFailsInsteadOfConverging) {
  // A NaN state makes every residual NaN. The noisy loop must fail the step
  // as runTransient does, not measure the residual as zero and march the
  // NaN to tstop reporting convergence.
  Circuit c;
  const int a = c.node("a");
  c.add<Resistor>("R1", a, -1, 1e3);
  c.add<Capacitor>("C1", a, -1, 1e-9);
  MnaSystem sys(c);
  TransientOptions to;
  to.dt = 1e-7;
  to.tstop = 1e-6;
  const RVec x0(1, std::numeric_limits<Real>::quiet_NaN());
  const auto tr = runNoisyTransient(sys, x0, to, 7);
  EXPECT_FALSE(tr.ok);
  EXPECT_NE(tr.status, diag::SolverStatus::Converged);
  // The first entry is the caller's x0; no step may store a state.
  ASSERT_FALSE(tr.x.empty());
  for (std::size_t k = 1; k < tr.x.size(); ++k)
    EXPECT_TRUE(std::isfinite(tr.x[k][0])) << "state " << k;
  EXPECT_EQ(tr.steps, 0u);
}

TEST(NoisyTransient, ResistorNoiseProducesExpectedVariance) {
  // RC driven only by its own thermal noise: stationary variance of the
  // capacitor voltage is kT/C (equipartition).
  Circuit c;
  const int a = c.node("a");
  c.add<Resistor>("R1", a, -1, 1e5);
  c.add<Capacitor>("C1", a, -1, 1e-15);  // tau = 0.1 ns, kT/C = 4.14e-6 V²
  MnaSystem sys(c);
  TransientOptions to;
  to.dt = 5e-12;
  to.tstop = 4e-7;  // thousands of tau
  const auto tr = runNoisyTransient(sys, RVec(1, 0.0), to, 4242);
  ASSERT_TRUE(tr.ok);
  Real var = 0;
  std::size_t count = 0;
  for (std::size_t k = tr.x.size() / 4; k < tr.x.size(); ++k) {
    var += tr.x[k][0] * tr.x[k][0];
    ++count;
  }
  var /= static_cast<Real>(count);
  const Real kTC = 1.380649e-23 * 300.0 / 1e-15;
  EXPECT_GT(var, 0.5 * kTC);
  EXPECT_LT(var, 1.6 * kTC);
  // Bit-exact pins of this seed's trajectory, recorded when the Newton loop
  // still allocated its update and noise vectors every iteration: the
  // allocation-free loop must reproduce them exactly.
  EXPECT_EQ(var, 0x1.0cadd48c5ec5cp-18);
  EXPECT_EQ(tr.x.back()[0], 0x1.bc02ea2331748p-11);
  EXPECT_EQ(tr.newtonIterations, 159499u);
}

}  // namespace
}  // namespace rfic::analysis
