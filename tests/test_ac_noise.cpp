// Small-signal AC and stationary noise analyses against closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>

#include "analysis/ac.hpp"
#include "analysis/dc.hpp"
#include "analysis/noise.hpp"
#include "analysis/sparams.hpp"
#include "circuit/devices.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "diag/resilience.hpp"
#include "perf/perf.hpp"
#include "sparse/ordering.hpp"

namespace rfic::analysis {
namespace {

using namespace rfic::circuit;
using numeric::CVec;
using numeric::RVec;

class RCLowpassFreqs : public ::testing::TestWithParam<Real> {};

TEST_P(RCLowpassFreqs, TransferMatchesAnalytic) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  auto& vs = c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, out, 1000.0);
  c.add<Capacitor>("C1", out, -1, 1e-9);  // fc = 159 kHz
  MnaSystem sys(c);
  const Real f = GetParam();
  const auto u = acStimulusVSource(sys, vs);
  const auto y = acSweep(sys, RVec(sys.dim(), 0.0), {f}, u).x.front();
  const Complex h = y[static_cast<std::size_t>(out)];
  const Complex href = 1.0 / Complex(1.0, kTwoPi * f * 1e-6);
  EXPECT_NEAR(std::abs(h - href), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Freqs, RCLowpassFreqs,
                         ::testing::Values(1e2, 1e4, 159154.9, 1e6, 1e8));

TEST(AC, RLCResonanceAndQ) {
  // Series RLC driven by a voltage source; voltage across C peaks near f0
  // with magnification ≈ Q.
  Circuit c;
  const int in = c.node("in"), m = c.node("m"), out = c.node("out");
  const int brv = c.allocBranch("V1"), brl = c.allocBranch("L1");
  auto& vs = c.add<VSource>("V1", in, -1, brv, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, m, 10.0);
  c.add<Inductor>("L1", m, out, brl, 1e-6);
  c.add<Capacitor>("C1", out, -1, 1e-9);
  MnaSystem sys(c);
  const Real f0 = 1.0 / (kTwoPi * std::sqrt(1e-6 * 1e-9));  // ≈ 5.03 MHz
  const Real q = std::sqrt(1e-6 / 1e-9) / 10.0;              // ≈ 3.16
  const auto u = acStimulusVSource(sys, vs);
  const auto y = acSweep(sys, RVec(sys.dim(), 0.0), {f0}, u).x.front();
  EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(out)]), q, 0.02 * q);
}

TEST(AC, LinearizedDiodeSmallSignalResistance) {
  // Biased diode behaves as rd = nVt/Id in small signal.
  Circuit c;
  const int in = c.node("in"), a = c.node("a");
  const int br = c.allocBranch("V1");
  auto& vs = c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(5.0));
  c.add<Resistor>("R1", in, a, 10000.0);
  c.add<Diode>("D1", a, -1, Diode::Params{});
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  ASSERT_TRUE(dc.converged);
  const Real vd = dc.x[static_cast<std::size_t>(a)];
  const Real id = (5.0 - vd) / 10000.0;
  const Real rd = kVt300 / id;
  const auto u = acStimulusVSource(sys, vs);
  const auto y = acSweep(sys, dc.x, {1.0}, u).x.front();  // low frequency
  const Real hExp = rd / (rd + 10000.0);
  EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(a)]), hExp, 1e-3 * hExp);
}

TEST(AC, SweepReturnsOnePointPerFrequency) {
  Circuit c;
  const int in = c.node("in");
  const int br = c.allocBranch("V1");
  auto& vs = c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, -1, 50.0);
  MnaSystem sys(c);
  const auto freqs = logspace(1e3, 1e9, 25);
  const auto sweep = acSweep(sys, RVec(sys.dim(), 0.0), freqs,
                             acStimulusVSource(sys, vs));
  EXPECT_EQ(sweep.freq.size(), 25u);
  EXPECT_EQ(sweep.x.size(), 25u);
}

TEST(AC, Logspace) {
  const auto f = logspace(1.0, 1e6, 7);
  ASSERT_EQ(f.size(), 7u);
  EXPECT_NEAR(f.front(), 1.0, 1e-12);
  EXPECT_NEAR(f.back(), 1e6, 1e-6);
  EXPECT_NEAR(f[1] / f[0], 10.0, 1e-9);
  EXPECT_THROW(logspace(0.0, 10.0, 5), InvalidArgument);
  EXPECT_THROW(logspace(1.0, 10.0, 1), InvalidArgument);
}

TEST(Noise, ResistorDividerOutputPSD) {
  // Two resistors to ground at the output: total output noise is
  // 4kT·Re{Zout} = 4kT·(R1 ∥ R2).
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, out, 1000.0);
  c.add<Resistor>("R2", out, -1, 3000.0);
  MnaSystem sys(c);
  const auto nr = noiseAnalysis(sys, RVec(sys.dim(), 0.0), out, {1e3});
  const Real rpar = 1000.0 * 3000.0 / 4000.0;
  const Real expct = 4.0 * 1.380649e-23 * 300.0 * rpar;
  ASSERT_EQ(nr.totalPsd.size(), 1u);
  EXPECT_NEAR(nr.totalPsd[0], expct, 1e-3 * expct);
}

TEST(Noise, ContributionsSumToTotal) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(5.0));
  c.add<Resistor>("R1", in, out, 2000.0);
  c.add<Diode>("D1", out, -1, Diode::Params{});
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto nr = noiseAnalysis(sys, dc.x, out, {1e3, 1e6});
  for (std::size_t k = 0; k < nr.freq.size(); ++k) {
    Real sum = 0;
    for (const auto& cb : nr.contributions[k]) sum += cb.psd;
    EXPECT_NEAR(sum, nr.totalPsd[k], 1e-12 * nr.totalPsd[k]);
  }
}

TEST(Noise, RCFilterShapesResistorNoise) {
  // Output PSD of R with shunt C rolls off as 1/(1+(2πfRC)²); integrates to
  // kT/C. Check the shape at two points.
  Circuit c;
  const int out = c.node("out");
  c.add<Resistor>("R1", out, -1, 100000.0);
  c.add<Capacitor>("C1", out, -1, 1e-12);
  MnaSystem sys(c);
  const Real fc = 1.0 / (kTwoPi * 1e5 * 1e-12);  // 1.59 MHz
  const auto nr = noiseAnalysis(sys, RVec(sys.dim(), 0.0), out, {1.0, fc});
  const Real flat = 4.0 * 1.380649e-23 * 300.0 * 1e5;
  EXPECT_NEAR(nr.totalPsd[0], flat, 1e-3 * flat);
  EXPECT_NEAR(nr.totalPsd[1], flat / 2.0, 1e-2 * flat);
}

TEST(Noise, FlickerRisesTowardLowFrequency) {
  Circuit c;
  const int in = c.node("in"), a = c.node("a");
  const int br = c.allocBranch("V1");
  c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(5.0));
  c.add<Resistor>("R1", in, a, 1000.0);
  Diode::Params p;
  p.kf = 1e-12;
  c.add<Diode>("D1", a, -1, p);
  MnaSystem sys(c);
  const auto dc = dcOperatingPoint(sys);
  const auto nr = noiseAnalysis(sys, dc.x, a, {10.0, 1e6});
  EXPECT_GT(nr.totalPsd[0], 10.0 * nr.totalPsd[1]);
}

TEST(Noise, GroundOutputRejected) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), -1, 1000.0);
  MnaSystem sys(c);
  EXPECT_THROW(noiseAnalysis(sys, RVec(1, 0.0), -1, {1e3}), InvalidArgument);
}

// Node indices and operating points reach the small-signal entry points
// from netlists and API callers; an out-of-range one must throw instead of
// indexing past the end of a vector.
TEST(Noise, OutOfRangeOutputRejected) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), -1, 1000.0);
  MnaSystem sys(c);
  EXPECT_THROW(noiseAnalysis(sys, RVec(1, 0.0), 1, {1e3}), InvalidArgument);
  EXPECT_THROW(noiseAnalysis(sys, RVec(2, 0.0), 0, {1e3}), InvalidArgument);
}

TEST(AC, OutOfRangeStimulusNodeRejected) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), -1, 1000.0);
  MnaSystem sys(c);
  EXPECT_THROW(acStimulusCurrent(sys, 1, -1), InvalidArgument);
  EXPECT_THROW(acStimulusCurrent(sys, -1, 5), InvalidArgument);
  EXPECT_THROW(acSweep(sys, RVec(2, 0.0), {1e3}, CVec(1)), InvalidArgument);
}

// The small-signal analyses linearize once per call: one matrix
// evaluation, counted in perf::global(), however many frequencies follow.
// An .ac or .noise sweep analyses the pattern once, at its first
// frequency, and replays those pivots at every later one; an S-parameter
// point is one full factorization. The counts include the AMD ordering
// time as a part of the factorization time.
TEST(SmallSignal, OneEvaluationPerCall) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  auto& vs = c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, out, 1000.0);
  c.add<Capacitor>("C1", out, -1, 1e-9);
  MnaSystem sys(c);
  const RVec xop(sys.dim(), 0.0);
  const std::vector<Port> ports{{in, -1, "p1"}, {out, -1, "p2"}};
  const auto snap = [] { return perf::global().snapshot(); };
  const auto expectCounts = [&](const perf::Snapshot& before,
                                std::uint64_t evals,
                                std::uint64_t factorizations,
                                std::uint64_t refactorizations,
                                const char* what) {
    const perf::Snapshot after = snap();
    EXPECT_EQ(after.evals - before.evals, evals) << what;
    EXPECT_EQ(after.factorizations - before.factorizations, factorizations)
        << what;
    EXPECT_EQ(after.refactorizations - before.refactorizations,
              refactorizations)
        << what;
  };
  for (const std::vector<Real>& freqs :
       {std::vector<Real>{1e3}, logspace(1e2, 1e8, 13)}) {
    SCOPED_TRACE(freqs.size());
    auto before = snap();
    acSweep(sys, xop, freqs, acStimulusVSource(sys, vs));
    expectCounts(before, 1, 1, freqs.size() - 1, ".ac");
    before = snap();
    noiseAnalysis(sys, xop, out, freqs);
    expectCounts(before, 1, 1, freqs.size() - 1, ".noise");
  }
  auto before = snap();
  sParameters(sys, xop, ports, 1e6);
  expectCounts(before, 1, 1, 0, "S-parameters");
  before = snap();
  sParameterSweep(sys, xop, ports, logspace(1e3, 1e7, 5));
  expectCounts(before, 1, 5, 0, "S-parameter sweep");

  const sparse::ScopedOrderingOverride amd(sparse::Ordering::Amd);
  before = snap();
  acSweep(sys, xop, {1e3, 1e6}, acStimulusVSource(sys, vs));
  noiseAnalysis(sys, xop, out, {1e3, 1e6});
  sParameters(sys, xop, ports, 1e6);
  const perf::Snapshot after = snap();
  EXPECT_GT(after.orderingNs - before.orderingNs, 0u);
  EXPECT_LE(after.orderingNs - before.orderingNs,
            after.factorNs - before.factorNs);
}

// The sweeps poll the run budget once per frequency and stop with the
// points solved before the trip (none here: it tripped before the first).
TEST(SmallSignal, SweepsStopOnBudget) {
  Circuit c;
  const int in = c.node("in"), out = c.node("out");
  const int br = c.allocBranch("V1");
  auto& vs = c.add<VSource>("V1", in, -1, br, std::make_shared<DCWave>(0.0));
  c.add<Resistor>("R1", in, out, 1000.0);
  c.add<Capacitor>("C1", out, -1, 1e-9);
  MnaSystem sys(c);
  const RVec xop(sys.dim(), 0.0);
  const auto freqs = logspace(1e2, 1e8, 13);

  diag::RunBudget open;
  const auto full =
      acSweep(sys, xop, freqs, acStimulusVSource(sys, vs), &open);
  EXPECT_EQ(full.status, diag::SolverStatus::Converged);
  EXPECT_EQ(full.x.size(), freqs.size());

  diag::RunBudget cancelled;
  cancelled.requestCancel();
  const auto ac = acSweep(sys, xop, freqs, acStimulusVSource(sys, vs),
                          &cancelled);
  EXPECT_EQ(ac.status, diag::SolverStatus::BudgetExceeded);
  EXPECT_TRUE(ac.freq.empty());
  EXPECT_TRUE(ac.x.empty());
  const auto nr = noiseAnalysis(sys, xop, out, freqs, &cancelled);
  EXPECT_EQ(nr.status, diag::SolverStatus::BudgetExceeded);
  EXPECT_TRUE(nr.freq.empty());
  EXPECT_TRUE(nr.totalPsd.empty());
}

// ------------------------------------------------- sweep replay accuracy

// A seeded random RLC network with forward-biased diodes on 30 nodes: a
// resistive spanning tree keeps every node on a DC path, random R and C
// branches close loops, every inductor sits in series with a resistor
// through a node of its own (so no inductor loop shorts the DC solve),
// each node has a small capacitance to ground, and a 1 V source biases
// four diodes so their linearization is far from zero bias.
struct RandomRlcDiode {
  Circuit c;
  VSource* vs = nullptr;
};

void buildRandomRlcDiode(RandomRlcDiode& net, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(0, 1);
  const auto logU = [&](Real lo, Real hi) {
    return lo * std::pow(hi / lo, u(rng));
  };
  const auto pick = [&](int below) {
    return static_cast<int>(u(rng) * below) % below;
  };
  Circuit& c = net.c;
  constexpr int kNodes = 30;
  std::vector<int> node;
  for (int i = 0; i < kNodes; ++i)
    node.push_back(c.node("n" + std::to_string(i)));
  const int br = c.allocBranch("V1");
  net.vs = &c.add<VSource>("V1", node[0], -1, br,
                           std::make_shared<DCWave>(1.0));
  int id = 0;
  const auto tag = [&](const char* kind) {
    return std::string(kind) + std::to_string(id++);
  };
  for (int i = 1; i < kNodes; ++i)
    c.add<Resistor>(tag("R"), node[i], node[pick(i)], logU(10, 1e4));
  for (int i = 0; i < kNodes; ++i)
    c.add<Capacitor>(tag("Cg"), node[i], -1, logU(1e-13, 1e-11));
  for (int k = 0; k < 20; ++k) {
    const int a = node[pick(kNodes)], b = node[pick(kNodes)];
    if (a == b) continue;
    if (k % 2 == 0)
      c.add<Resistor>(tag("R"), a, b, logU(10, 1e4));
    else
      c.add<Capacitor>(tag("C"), a, b, logU(1e-13, 1e-10));
  }
  for (int k = 0; k < 6; ++k) {
    const int a = node[pick(kNodes)], b = node[pick(kNodes)];
    const int mid = c.node(tag("m"));
    c.add<Inductor>(tag("L"), a, mid, c.allocBranch(tag("BL")),
                    logU(1e-9, 1e-6));
    c.add<Resistor>(tag("R"), mid, b, logU(1, 100));
  }
  Diode::Params dp;
  dp.cj0 = 1e-12;
  dp.tt = 1e-10;
  for (int k = 0; k < 4; ++k)
    c.add<Diode>(tag("D"), node[1 + pick(kNodes - 1)], -1, dp);
}

// Max |a − b| over max |b|.
Real relativeGap(const CVec& a, const CVec& b) {
  Real diff = 0, scale = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return scale > 0 ? diff / scale : diff;
}

// An .ac sweep analyses at its first frequency and replays those pivots
// across six decades. At every frequency its solution must agree with a
// fresh factorization at that frequency within the largest gap the fresh
// path itself shows between the natural and AMD orderings on such
// networks (2.4e-8 relative, measured when the sweep still factored per
// frequency).
TEST(SmallSignal, SweepReplayMatchesFreshFactorization) {
  constexpr Real kOrderingGap = 2.4e-8;
  const std::vector<Real> freqs = logspace(1e3, 1e9, 13);
  std::uint64_t replays = 0;
  for (std::uint64_t seed = 1400; seed < 1406; ++seed) {
    SCOPED_TRACE(seed);
    RandomRlcDiode net;
    buildRandomRlcDiode(net, seed);
    MnaSystem sys(net.c);
    const auto op = dcOperatingPoint(sys);
    ASSERT_TRUE(op.converged);
    const CVec u = acStimulusVSource(sys, *net.vs);
    for (const sparse::Ordering ord :
         {sparse::Ordering::Natural, sparse::Ordering::Amd}) {
      SCOPED_TRACE(ord == sparse::Ordering::Amd ? "amd" : "natural");
      const sparse::ScopedOrderingOverride scoped(ord);
      perf::Counters counters;
      ACResult sweep;
      {
        const perf::CounterScope scope(counters);
        sweep = acSweep(sys, op.x, freqs, u);
      }
      ASSERT_EQ(sweep.x.size(), freqs.size());
      replays += counters.snapshot().refactorizations;
      circuit::MnaWorkspace ws(sys);
      linearizeAt(ws, op.x);
      for (std::size_t i = 0; i < freqs.size(); ++i) {
        sparse::CSymbolicLU fresh;
        fresh.factor(acMatrix(ws, freqs[i]));
        EXPECT_LE(relativeGap(sweep.x[i], fresh.solve(u)), kOrderingGap)
            << freqs[i] << " Hz";
      }
    }
  }
  // The sweeps replayed (a Repivoted point would count a factorization).
  EXPECT_GT(replays, 0u);
}

}  // namespace
}  // namespace rfic::analysis
