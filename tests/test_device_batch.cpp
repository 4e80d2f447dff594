// Batched SoA device evaluation engine: the bitwise contract against the
// scalar virtual-stamp walk (single evals, multi-sample sweeps across
// thread counts, end-to-end DC/transient/HB), the zero-steady-state-
// allocation contract, overflow self-healing, the refactor skip's
// invalidation, the MOSFET Newton limiting, and the eval counters.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "analysis/dc.hpp"
#include "analysis/transient.hpp"
#include "circuit/devices.hpp"
#include "circuit/junction_kernels.hpp"
#include "circuit/mna_workspace.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "diag/resilience.hpp"
#include "hb/harmonic_balance.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"
#include "sparse/ordering.hpp"

namespace rfic::circuit {
namespace {

using numeric::RMat;
using numeric::RVec;

/// Scoped override of the process-wide batched-eval default (what the
/// `--no-batch-eval` CLI flag sets); restores the prior value on exit so
/// tests cannot leak a disabled engine into the rest of the suite.
struct BatchDefaultGuard {
  bool saved;
  explicit BatchDefaultGuard(bool v) : saved(MnaWorkspace::batchedEvalDefault()) {
    MnaWorkspace::setBatchedEvalDefault(v);
  }
  ~BatchDefaultGuard() { MnaWorkspace::setBatchedEvalDefault(saved); }
};

/// One of every compiled device kind plus a generic (VCVS) in the middle of
/// the device list, so the batch walk has to interleave a virtual stamp at
/// its original position.
struct Menagerie {
  Circuit c;
  std::unique_ptr<MnaSystem> sys;

  Menagerie() {
    const int in = c.node("in");
    const int a = c.node("a");
    const int b = c.node("b");
    const int d = c.node("d");
    const int g = c.node("g");
    const int br1 = c.allocBranch("V1");
    const int brL = c.allocBranch("L1");
    const int brE = c.allocBranch("E1");
    c.add<VSource>("V1", in, -1, br1, std::make_shared<SineWave>(1.0, 1e3),
                   TimeAxis::slow);
    c.add<ISource>("I1", in, a, std::make_shared<SineWave>(1e-3, 1.7e3),
                   TimeAxis::fast);
    c.add<Resistor>("R1", in, a, 1e3);
    c.add<Capacitor>("C1", a, -1, 1e-9);
    c.add<Inductor>("L1", a, b, brL, 1e-6);
    c.add<VCVS>("E1", g, -1, a, b, brE, 2.0);  // generic, mid-walk
    c.add<VCCS>("G1", b, -1, in, a, 1e-3);
    c.add<CubicConductance>("N1", b, -1, 1e-4, 1e-5);
    Diode::Params dp;
    dp.cj0 = 1e-12;
    dp.tt = 1e-9;
    c.add<Diode>("D1", b, -1, dp);
    BJT::Params bp;
    bp.cje = 1e-13;
    bp.cjc = 5e-14;
    c.add<BJT>("Q1", d, b, -1, bp);
    MOSFET::Params mp;
    mp.cgs = 1e-12;
    mp.cgd = 5e-13;
    c.add<MOSFET>("M1", d, g, -1, mp);
    c.add<Resistor>("R2", d, -1, 1e4);
    sys = std::make_unique<MnaSystem>(c);
  }

  RVec state(Real phase) const {
    RVec x(sys->dim());
    for (std::size_t u = 0; u < x.size(); ++u)
      x[u] = 0.35 * std::sin(0.9 * static_cast<Real>(u) + phase);
    return x;
  }
};

void expectSameEval(MnaWorkspace& ref, MnaWorkspace& bat, const RVec& x,
                    Real t1, Real t2, bool wantMat, const RVec* xPrev) {
  ref.evalBivariate(x, t1, t2, wantMat, xPrev);
  bat.evalBivariate(x, t1, t2, wantMat, xPrev);
  for (std::size_t u = 0; u < ref.dim(); ++u) {
    EXPECT_EQ(ref.f()[u], bat.f()[u]) << "f[" << u << "]";
    EXPECT_EQ(ref.q()[u], bat.q()[u]) << "q[" << u << "]";
    EXPECT_EQ(ref.b()[u], bat.b()[u]) << "b[" << u << "]";
  }
  if (wantMat) {
    ASSERT_EQ(ref.pattern().nnz(), bat.pattern().nnz());
    for (std::size_t p = 0; p < ref.pattern().nnz(); ++p) {
      EXPECT_EQ(ref.gValues()[p], bat.gValues()[p]) << "G[" << p << "]";
      EXPECT_EQ(ref.cValues()[p], bat.cValues()[p]) << "C[" << p << "]";
    }
  }
}

TEST(DeviceBatch, ToggleBitwiseAcrossDeviceKinds) {
  Menagerie m;
  MnaWorkspace ref(*m.sys);
  ref.setBatchedEval(false);
  MnaWorkspace bat(*m.sys);
  bat.setBatchedEval(true);
  ASSERT_FALSE(ref.batchedEval());
  ASSERT_TRUE(bat.batchedEval());

  for (int k = 0; k < 4; ++k) {
    const Real phase = 0.6 * static_cast<Real>(k);
    const RVec x = m.state(phase);
    const RVec xp = m.state(phase - 0.3);
    const Real t1 = 1e-4 * static_cast<Real>(k + 1);
    const Real t2 = 7e-5 * static_cast<Real>(k + 1);
    expectSameEval(ref, bat, x, t1, t2, true, nullptr);
    expectSameEval(ref, bat, x, t1, t2, true, &xp);   // junction limiting on
    expectSameEval(ref, bat, x, t1, t2, false, nullptr);
  }
}

TEST(DeviceBatch, EvalSamplesBitwiseAcrossThreadCounts) {
  Menagerie m;
  const std::size_t n = m.sys->dim();
  const std::size_t S = 13;  // not a multiple of any chunk size
  RMat xs(n, S);
  std::vector<Real> t1(S), t2(S);
  for (std::size_t s = 0; s < S; ++s) {
    t1[s] = 1e-5 * static_cast<Real>(s);
    t2[s] = 7e-6 * static_cast<Real>(s);
    const RVec x = m.state(0.37 * static_cast<Real>(s));
    for (std::size_t u = 0; u < n; ++u) xs(u, s) = x[u];
  }

  // Reference: per-sample scalar evaluations.
  MnaWorkspace ref(*m.sys);
  ref.setBatchedEval(false);
  RMat fR(n, S), qR(n, S), bR(n, S);
  std::vector<std::vector<Real>> gR(S), cR(S);
  for (std::size_t s = 0; s < S; ++s) {
    RVec x(n);
    for (std::size_t u = 0; u < n; ++u) x[u] = xs(u, s);
    ref.evalBivariate(x, t1[s], t2[s], true, nullptr);
    for (std::size_t u = 0; u < n; ++u) {
      fR(u, s) = ref.f()[u];
      qR(u, s) = ref.q()[u];
      bR(u, s) = ref.b()[u];
    }
    gR[s] = ref.gValues();
    cR[s] = ref.cValues();
  }

  perf::ThreadPool pool(4);
  for (const bool batched : {false, true}) {
    for (perf::ThreadPool* p : {static_cast<perf::ThreadPool*>(nullptr),
                                &pool}) {
      MnaWorkspace ws(*m.sys);
      ws.setBatchedEval(batched);
      ws.setSweepPool(p);
      RMat fS(n, S), qS(n, S), bS(n, S);
      std::vector<std::vector<Real>> gS(S), cS(S);
      for (int round = 0; round < 2; ++round) {  // round 2: warm wave cache
        ws.evalSamples(xs, t1.data(), t2.data(), true, fS, qS, bS, &gS, &cS);
        for (std::size_t s = 0; s < S; ++s) {
          for (std::size_t u = 0; u < n; ++u) {
            EXPECT_EQ(fR(u, s), fS(u, s));
            EXPECT_EQ(qR(u, s), qS(u, s));
            EXPECT_EQ(bR(u, s), bS(u, s));
          }
          ASSERT_EQ(gR[s].size(), gS[s].size());
          for (std::size_t pp = 0; pp < gR[s].size(); ++pp) {
            EXPECT_EQ(gR[s][pp], gS[s][pp]);
            EXPECT_EQ(cR[s][pp], cS[s][pp]);
          }
        }
      }
      // Vector-only sweep (the HB Newton fast path) against the same
      // reference, then with shifted sample times — the waveform cache must
      // detect the change and rebuild.
      ws.evalSamples(xs, t1.data(), t2.data(), false, fS, qS, bS, nullptr,
                     nullptr);
      for (std::size_t s = 0; s < S; ++s)
        for (std::size_t u = 0; u < n; ++u) {
          EXPECT_EQ(fR(u, s), fS(u, s));
          EXPECT_EQ(bR(u, s), bS(u, s));
        }
      std::vector<Real> t1b(t1), t2b(t2);
      for (std::size_t s = 0; s < S; ++s) t1b[s] += 2.5e-4;
      ws.evalSamples(xs, t1b.data(), t2b.data(), false, fS, qS, bS, nullptr,
                     nullptr);
      for (std::size_t s = 0; s < S; ++s) {
        RVec x(n);
        for (std::size_t u = 0; u < n; ++u) x[u] = xs(u, s);
        ref.evalBivariate(x, t1b[s], t2b[s], false, nullptr);
        for (std::size_t u = 0; u < n; ++u) EXPECT_EQ(ref.b()[u], bS(u, s));
      }
    }
  }
}

TEST(DeviceBatch, DcTransientHbBitwiseToggle) {
  // Diode rectifier vehicle: nonlinear enough to exercise limiting, charge
  // stamps, and the HB sweep path end to end.
  const auto build = [](Circuit& c) {
    const int in = c.node("in");
    const int out = c.node("out");
    const int br = c.allocBranch("V1");
    c.add<VSource>("V1", in, -1, br, std::make_shared<SineWave>(1.0, 1e3));
    c.add<Resistor>("R1", in, out, 1e3);
    Diode::Params dp;
    dp.cj0 = 2e-12;
    c.add<Diode>("D1", out, -1, dp);
    c.add<Capacitor>("C1", out, -1, 1e-9);
    c.add<Resistor>("RL", out, -1, 1e4);
  };

  const auto runAll = [&](bool batched) {
    BatchDefaultGuard guard(batched);
    Circuit c;
    build(c);
    MnaSystem sys(c);
    const auto dc = analysis::dcOperatingPoint(sys);
    EXPECT_TRUE(dc.converged);
    analysis::TransientOptions to;
    to.tstop = 1e-3;
    to.dt = 1e-5;
    const auto tr = analysis::runTransient(sys, dc.x, to);
    EXPECT_TRUE(tr.ok);
    const auto hb = hb::HarmonicBalance(sys, {{1e3, 5}}).solve(dc.x);
    EXPECT_TRUE(hb.converged);
    return std::tuple{dc.x, tr.x.back(), hb.coeffs};
  };

  const auto [dcS, trS, hbS] = runAll(false);
  const auto [dcB, trB, hbB] = runAll(true);
  for (std::size_t u = 0; u < dcS.size(); ++u) {
    EXPECT_EQ(dcS[u], dcB[u]) << "dc[" << u << "]";
    EXPECT_EQ(trS[u], trB[u]) << "tran[" << u << "]";
  }
  ASSERT_EQ(hbS.rows(), hbB.rows());
  ASSERT_EQ(hbS.cols(), hbB.cols());
  for (std::size_t u = 0; u < hbS.rows(); ++u)
    for (std::size_t k = 0; k < hbS.cols(); ++k) {
      EXPECT_EQ(hbS(u, k).real(), hbB(u, k).real());
      EXPECT_EQ(hbS(u, k).imag(), hbB(u, k).imag());
    }
}

TEST(DeviceBatch, SteadyStateDoesNotGrowWorkspace) {
  Menagerie m;
  MnaWorkspace ws(*m.sys);
  ws.setBatchedEval(true);
  const RVec x = m.state(0.2);

  ws.eval(x, 1e-4, true, &x);  // discovery + compile
  ws.eval(x, 1e-4, true, &x);
  const std::uint64_t warm = ws.workspaceGrowth();
  EXPECT_GT(warm, 0u);
  for (int k = 0; k < 50; ++k) ws.eval(x, 1e-4 + 1e-6 * k, true, &x);
  EXPECT_EQ(ws.workspaceGrowth(), warm) << "single-eval path allocated";

  const std::size_t n = m.sys->dim(), S = 8;
  RMat xs(n, S), fS(n, S), qS(n, S), bS(n, S);
  std::vector<Real> t1(S), t2(S);
  for (std::size_t s = 0; s < S; ++s) {
    t1[s] = 1e-5 * static_cast<Real>(s);
    t2[s] = t1[s];
    for (std::size_t u = 0; u < n; ++u) xs(u, s) = x[u];
  }
  std::vector<std::vector<Real>> gS(S), cS(S);
  ws.evalSamples(xs, t1.data(), t2.data(), true, fS, qS, bS, &gS, &cS);
  const std::uint64_t sweepWarm = ws.workspaceGrowth();
  for (int k = 0; k < 10; ++k) {
    ws.evalSamples(xs, t1.data(), t2.data(), true, fS, qS, bS, &gS, &cS);
    ws.evalSamples(xs, t1.data(), t2.data(), false, fS, qS, bS, nullptr,
                   nullptr);
  }
  EXPECT_EQ(ws.workspaceGrowth(), sweepWarm) << "sweep path allocated";
}

/// Conductance that only stamps above a threshold — its off-diagonal G
/// entries are invisible to pattern discovery at an inactive operating
/// point, so activating it must overflow and self-heal identically in both
/// evaluation modes.
class SwitchedConductance final : public Device {
 public:
  SwitchedConductance(std::string name, int n1, int n2, Real g, Real vth)
      : Device(std::move(name)), n1_(n1), n2_(n2), g_(g), vth_(vth) {}
  void stamp(const RVec& x, const RVec*, Stamp& s) const override {
    const Real v = nodeVoltage(x, n1_) - nodeVoltage(x, n2_);
    if (v <= vth_) return;
    const Real i = g_ * (v - vth_);
    s.addF(n1_, i);
    s.addF(n2_, -i);
    if (s.wantMatrices()) {
      s.addG(n1_, n1_, g_);
      s.addG(n1_, n2_, -g_);
      s.addG(n2_, n1_, -g_);
      s.addG(n2_, n2_, g_);
    }
  }

 private:
  int n1_, n2_;
  Real g_, vth_;
};

TEST(DeviceBatch, OverflowSelfHealsIdentically) {
  Circuit c;
  const int p = c.node("p");
  const int q = c.node("q");
  c.add<Resistor>("R1", p, -1, 1e3);
  c.add<SwitchedConductance>("S1", p, q, 1e-3, 0.5);
  c.add<Resistor>("R2", q, -1, 2e3);
  MnaSystem sys(c);

  MnaWorkspace ref(sys);
  ref.setBatchedEval(false);
  MnaWorkspace bat(sys);
  bat.setBatchedEval(true);

  RVec off(sys.dim(), 0.0);
  expectSameEval(ref, bat, off, 0, 0, true, nullptr);  // discovery: inactive
  const std::size_t nnzBefore = bat.pattern().nnz();

  RVec on(sys.dim(), 0.0);
  on[static_cast<std::size_t>(p)] = 2.0;  // activates → overflow → regrow
  expectSameEval(ref, bat, on, 0, 0, true, nullptr);
  EXPECT_GT(bat.pattern().nnz(), nnzBefore);
  EXPECT_EQ(ref.pattern().nnz(), bat.pattern().nnz());
  expectSameEval(ref, bat, on, 0, 0, true, nullptr);  // healed, stable

  // Same self-heal mid-sweep: half the samples active.
  const std::size_t n = sys.dim(), S = 6;
  MnaWorkspace sweepRef(sys), sweepBat(sys);
  sweepRef.setBatchedEval(false);
  sweepBat.setBatchedEval(true);
  RMat xs(n, S);
  std::vector<Real> ts(S, 0.0);
  for (std::size_t s = 0; s < S; ++s)
    xs(static_cast<std::size_t>(p), s) = s % 2 == 0 ? 0.0 : 2.0;
  RMat fA(n, S), qA(n, S), bA(n, S), fB(n, S), qB(n, S), bB(n, S);
  std::vector<std::vector<Real>> gA(S), cA(S), gB(S), cB(S);
  sweepRef.evalSamples(xs, ts.data(), ts.data(), true, fA, qA, bA, &gA, &cA);
  sweepBat.evalSamples(xs, ts.data(), ts.data(), true, fB, qB, bB, &gB, &cB);
  ASSERT_EQ(sweepRef.pattern().nnz(), sweepBat.pattern().nnz());
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t u = 0; u < n; ++u) EXPECT_EQ(fA(u, s), fB(u, s));
    for (std::size_t pp = 0; pp < gA[s].size(); ++pp)
      EXPECT_EQ(gA[s][pp], gB[s][pp]);
  }
}

// The counters `f` bumps, read through a CounterScope of its own.
template <class F>
perf::Snapshot countedBy(F&& f) {
  perf::Counters c;
  {
    const perf::CounterScope scope(c);
    f();
  }
  return c.snapshot();
}

TEST(WorkspaceRefactorSkip, EveryInvalidationReplaysTheSameValues) {
  // A Jacobian bitwise equal to the last one factored skips the refactor.
  // Pattern growth, an ordering change, a singular throw and a Repivoted
  // fallback each invalidate the stored copy: the next call with the
  // same values must factor or replay, never skip.
  diag::FaultInjector::global().reset();
  Circuit c;
  const int p = c.node("p");
  const int q = c.node("q");
  c.add<Resistor>("R1", p, -1, 1e3);
  c.add<SwitchedConductance>("S1", p, q, 1e-3, 0.5);
  c.add<Resistor>("R2", q, -1, 2e3);
  c.add<Capacitor>("C1", q, -1, 1e-9);
  MnaSystem sys(c);
  MnaWorkspace ws(sys);
  const RVec off(sys.dim(), 0.0);
  RVec on(sys.dim(), 0.0);
  on[static_cast<std::size_t>(p)] = 2.0;
  const auto factorCounts = [&](Real cCoeff) {
    return countedBy([&] { (void)ws.factorJacobian(cCoeff, 1.0); });
  };
  const auto expectSkip = [&](const char* after) {
    const perf::Snapshot s = factorCounts(1.0);
    EXPECT_EQ(s.refactorSkips, 1u) << after;
    EXPECT_EQ(s.refactorizations + s.factorizations, 0u) << after;
  };
  const auto expectNoSkip = [&](const char* after) {
    const perf::Snapshot s = factorCounts(1.0);
    EXPECT_EQ(s.refactorSkips, 0u) << after;
    EXPECT_EQ(s.refactorizations + s.factorizations, 1u) << after;
  };

  ws.eval(off, 0.0, true);
  EXPECT_EQ(factorCounts(1.0).factorizations, 1u);
  expectSkip("first factor");

  // Pattern growth: S1 turns on, then off again, so the values match the
  // inactive ones on a larger pattern. Each growth is one ledger event.
  const std::uint64_t grown = ws.workspaceGrowth();
  const perf::Snapshot growth = countedBy([&] { ws.eval(on, 0.0, true); });
  EXPECT_GT(ws.workspaceGrowth(), grown);
  EXPECT_EQ(growth.workspaceGrowth, ws.workspaceGrowth() - grown);
  ws.eval(off, 0.0, true);
  expectNoSkip("pattern growth");
  expectSkip("refactor after growth");

  ws.setOrdering(ws.ordering() == sparse::Ordering::Amd
                     ? sparse::Ordering::Natural
                     : sparse::Ordering::Amd);
  expectNoSkip("ordering change");
  expectSkip("refactor after ordering change");

  EXPECT_THROW(ws.factorJacobian(0.0, 0.0), NumericalError);
  expectNoSkip("singular throw");
  expectSkip("refactor after singular throw");

  diag::FaultInjector::global().arm(diag::FaultPoint::FactorRepivot, 1);
  const perf::Snapshot forced = factorCounts(1.0);
  diag::FaultInjector::global().reset();
  EXPECT_EQ(forced.factorizations, 1u);
  EXPECT_EQ(forced.refactorSkips, 0u);
  expectNoSkip("Repivoted fallback");
  expectSkip("replay after Repivoted fallback");

  // Other values replay; their return to the first values replays too.
  EXPECT_EQ(factorCounts(2.0).refactorizations, 1u);
  expectNoSkip("other values");
}

TEST(DeviceBatch, MosfetHardTurnOnConverges) {
  // Regression for the shared SPICE-style fetLimit/vdsLimit damping: a
  // stiff common-source stage driven far past threshold from a cold start.
  Circuit c;
  const int vdd = c.node("vdd");
  const int g = c.node("g");
  const int d = c.node("d");
  const int brV = c.allocBranch("VDD");
  const int brG = c.allocBranch("VG");
  c.add<VSource>("VDD", vdd, -1, brV, std::make_shared<DCWave>(5.0));
  c.add<VSource>("VG", g, -1, brG, std::make_shared<DCWave>(5.0));
  MOSFET::Params mp;
  mp.vt0 = 0.7;
  mp.kp = 0.5;  // very stiff square law: unlimited Newton overshoots hard
  mp.lambda = 0.0;
  c.add<MOSFET>("M1", d, g, -1, mp);
  c.add<Resistor>("RD", vdd, d, 50.0);
  MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  ASSERT_TRUE(dc.converged);
  // Triode sanity: id = kp·((vgs−vt)·vds − vds²/2) must balance the 50 Ω
  // pull-up within Newton tolerance.
  const Real vds = dc.x[static_cast<std::size_t>(d)];
  const Real id = mp.kp * ((5.0 - mp.vt0) * vds - 0.5 * vds * vds);
  EXPECT_NEAR(id, (5.0 - vds) / 50.0, 1e-6);

  // Unit behaviour of the limiters themselves: big steps are damped, small
  // steps pass through untouched.
  EXPECT_LT(kernels::fetLimit(20.0, 1.0, 0.7), 20.0);
  EXPECT_EQ(kernels::fetLimit(1.05, 1.0, 0.7), 1.05);
  EXPECT_EQ(kernels::vdsLimit(20.0, 0.1), 4.0);
  EXPECT_EQ(kernels::vdsLimit(0.2, 0.1), 0.2);
  EXPECT_EQ(kernels::vdsLimit(20.0, 4.0), 3.0 * 4.0 + 2.0);
}

TEST(DeviceBatch, CountersTrackBatchedSubset) {
  Menagerie m;
  const RVec x = m.state(0.1);

  MnaWorkspace bat(*m.sys);
  bat.setBatchedEval(true);
  const perf::Snapshot sb = countedBy([&] {
    for (int k = 0; k < 5; ++k) bat.eval(x, 1e-4, true, &x);
  });
  EXPECT_EQ(sb.evals, 5u);
  EXPECT_EQ(sb.evalBatched, 5u);
  EXPECT_LE(sb.evalBatchNs, sb.evalNs);

  MnaWorkspace ref(*m.sys);
  ref.setBatchedEval(false);
  const perf::Snapshot ss = countedBy([&] {
    for (int k = 0; k < 5; ++k) ref.eval(x, 1e-4, true, &x);
  });
  EXPECT_EQ(ss.evals, 5u);
  EXPECT_EQ(ss.evalBatched, 0u);

  // A sweep counts every sample as one evaluation.
  const std::size_t n = m.sys->dim(), S = 8;
  RMat xs(n, S), fS(n, S), qS(n, S), bS(n, S);
  std::vector<Real> ts(S, 1e-4);
  for (std::size_t s = 0; s < S; ++s)
    for (std::size_t u = 0; u < n; ++u) xs(u, s) = x[u];
  const perf::Snapshot sb2 = countedBy([&] {
    bat.evalSamples(xs, ts.data(), ts.data(), false, fS, qS, bS, nullptr,
                    nullptr);
  });
  EXPECT_EQ(sb2.evals, S);
  EXPECT_EQ(sb2.evalBatched, S);
}

}  // namespace
}  // namespace rfic::circuit
