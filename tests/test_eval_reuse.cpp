// The contracts of the transient's evaluate-once path:
//
//  - evaluation reuse: a batched workspace that answers a request from its
//    last evaluation gives the outputs of a fresh `--no-batch-eval`
//    evaluation bit for bit, over seeded request sequences (repeats, time
//    changes, limiting on and off, matrices on and off), also on a linear
//    circuit whose constant G and C the workspace keeps between
//    evaluations;
//  - the junction kernels' "limited" flag: when it reads false the output
//    equals the unlimited evaluation's bit for bit;
//  - the one-pass batched pattern: rowPtr, colIdx and the diagonal slots
//    equal the scalar discovery walk's at the same probe point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/devices.hpp"
#include "circuit/junction_kernels.hpp"
#include "circuit/mna_workspace.hpp"
#include "circuit/netlist.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "perf/perf.hpp"

namespace rfic::circuit {
namespace {

using numeric::RVec;

bool sameBits(Real a, Real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Every compiled device kind on a few nodes; `withGeneric` adds a VCVS in
/// the middle of the device list, which turns reuse off. `linearOnly`
/// leaves out the cubic conductance and the junction devices, so every G/C
/// value is a constant the workspace keeps between evaluations.
struct Menagerie {
  Circuit c;
  std::unique_ptr<MnaSystem> sys;

  explicit Menagerie(bool withGeneric, bool linearOnly = false) {
    const int in = c.node("in");
    const int a = c.node("a");
    const int b = c.node("b");
    const int d = c.node("d");
    const int g = c.node("g");
    const int br1 = c.allocBranch("V1");
    const int brL = c.allocBranch("L1");
    c.add<VSource>("V1", in, -1, br1, std::make_shared<SineWave>(1.0, 1e3),
                   TimeAxis::slow);
    c.add<ISource>("I1", in, a, std::make_shared<SineWave>(1e-3, 1.7e3),
                   TimeAxis::fast);
    c.add<ISource>("I2", g, -1, std::make_shared<SineWave>(2e-3, 3.1e3));
    c.add<Resistor>("R1", in, a, 1e3);
    c.add<Capacitor>("C1", a, -1, 1e-9);
    c.add<Inductor>("L1", a, b, brL, 1e-6);
    if (withGeneric) {
      const int brE = c.allocBranch("E1");
      c.add<VCVS>("E1", g, -1, a, b, brE, 2.0);
    } else {
      c.add<Resistor>("RG", g, -1, 5e2);
    }
    c.add<VCCS>("G1", b, -1, in, a, 1e-3);
    c.add<Resistor>("R2", d, -1, 1e4);
    if (linearOnly) {
      c.add<Resistor>("R3", d, b, 2e3);
      sys = std::make_unique<MnaSystem>(c);
      return;
    }
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
    sys = std::make_unique<MnaSystem>(c);
  }
};

void expectSameOutputs(const MnaWorkspace& ref, const MnaWorkspace& bat,
                       bool wantMat, const std::string& what) {
  for (std::size_t u = 0; u < ref.dim(); ++u) {
    EXPECT_TRUE(sameBits(ref.f()[u], bat.f()[u])) << what << " f[" << u << "]";
    EXPECT_TRUE(sameBits(ref.q()[u], bat.q()[u])) << what << " q[" << u << "]";
    EXPECT_TRUE(sameBits(ref.b()[u], bat.b()[u])) << what << " b[" << u << "]";
  }
  if (!wantMat) return;
  ASSERT_EQ(ref.pattern().nnz(), bat.pattern().nnz()) << what;
  for (std::size_t p = 0; p < ref.pattern().nnz(); ++p) {
    EXPECT_TRUE(sameBits(ref.gValues()[p], bat.gValues()[p]))
        << what << " G[" << p << "]";
    EXPECT_TRUE(sameBits(ref.cValues()[p], bat.cValues()[p]))
        << what << " C[" << p << "]";
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

/// A seeded sequence of requests, each answered by a batched (reusing) and
/// a scalar workspace; after every request their outputs must agree bit for
/// bit. Returns the batched workspace's counters.
perf::Snapshot runSequence(const Menagerie& m, std::uint64_t seed) {
  const std::size_t n = m.sys->dim();
  MnaWorkspace ref(*m.sys);
  ref.setBatchedEval(false);
  MnaWorkspace bat(*m.sys);
  bat.setBatchedEval(true);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> unit(0.0, 1.0);

  RVec x(n), xPrev(n);
  for (std::size_t u = 0; u < n; ++u) x[u] = 0.3 * std::sin(1.3 * u + 0.1);
  xPrev = x;
  Real t1 = 1e-5, t2 = 2e-5;
  return countedBy([&] {
    for (int k = 0; k < 400; ++k) {
      const Real r = unit(rng);
      if (r < 0.25) {
        // A new state: small steps keep the limiters quiet, large ones
        // (up to a few volts) make them move.
        const Real scale = unit(rng) < 0.5 ? 1e-3 : 3.0;
        xPrev = x;
        for (std::size_t u = 0; u < n; ++u)
          x[u] += scale * (unit(rng) - 0.5);
      } else if (r < 0.5) {
        t1 += 1e-6 * unit(rng);
        t2 += 1e-6 * unit(rng);
      } else if (r < 0.6) {
        xPrev = x;  // limiting against the state itself
      }
      // Otherwise: the same request shape again.
      const bool wantMat = unit(rng) < 0.5;
      const bool limit = unit(rng) < 0.4;
      const RVec* xp = limit ? &xPrev : nullptr;
      ref.evalBivariate(x, t1, t2, wantMat, xp);
      bat.evalBivariate(x, t1, t2, wantMat, xp);
      expectSameOutputs(ref, bat, wantMat,
                        "request " + std::to_string(k) +
                            (wantMat ? " +mat" : "") + (limit ? " +lim" : ""));
      if (::testing::Test::HasFailure()) return;
    }
  });
}

TEST(EvalReuse, SeededRequestsMatchScalarBitwise) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    for (const bool linearOnly : {false, true}) {
      SCOPED_TRACE(linearOnly ? "linear" : "compiled");
      const Menagerie m(false, linearOnly);
      const perf::Snapshot s = runSequence(m, seed);
      EXPECT_GT(s.evalReuses, 0u) << "the sequence never exercised reuse";
      EXPECT_GT(s.evals, 0u);
    }
  }
}

TEST(EvalReuse, GenericOpsTurnReuseOff) {
  const Menagerie withGeneric(true);
  const perf::Snapshot s = runSequence(withGeneric, 5);
  EXPECT_EQ(s.evalReuses, 0u);
}

TEST(EvalReuse, ScalarModeNeverReuses) {
  const Menagerie m(false);
  MnaWorkspace ws(*m.sys);
  ws.setBatchedEval(false);
  const RVec x(m.sys->dim(), 0.1);
  const perf::Snapshot s = countedBy([&] {
    for (int k = 0; k < 4; ++k) ws.eval(x, 1e-6, k % 2 == 0);
  });
  EXPECT_EQ(s.evals, 4u);
  EXPECT_EQ(s.evalReuses, 0u);
}

TEST(EvalReuse, ReuseRulesAndCounters) {
  const Menagerie m(false);
  MnaWorkspace ws(*m.sys);
  ws.setBatchedEval(true);
  const std::size_t n = m.sys->dim();
  RVec x(n, 0.05);
  const auto count = [&](auto&& f) { return countedBy(f); };

  // A matrix evaluation answers a vector-only request and a time change.
  perf::Snapshot s = count([&] {
    ws.eval(x, 1e-6, true);
    ws.eval(x, 1e-6, false);
    ws.eval(x, 2e-6, true);
  });
  EXPECT_EQ(s.evals, 1u);
  EXPECT_EQ(s.evalReuses, 2u);
  // A vector-only evaluation cannot answer a matrix request.
  x[0] = 0.06;
  s = count([&] {
    ws.eval(x, 1e-6, false);
    ws.eval(x, 1e-6, true);
  });
  EXPECT_EQ(s.evals, 2u);
  EXPECT_EQ(s.evalReuses, 0u);
  // Limiting requested is always evaluated; an unmoved limiter leaves the
  // evaluation reusable for a request without limiting.
  s = count([&] {
    ws.eval(x, 1e-6, true, &x);
    ws.eval(x, 1e-6, true);
  });
  EXPECT_EQ(s.evals, 1u);
  EXPECT_EQ(s.evalReuses, 1u);
  // A limiter that moved a voltage makes the evaluation unusable.
  RVec far(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) far[u] = 5.0;
  s = count([&] {
    ws.eval(far, 1e-6, true, &x);
    ws.eval(far, 1e-6, true);
  });
  EXPECT_EQ(s.evals, 2u);
  EXPECT_EQ(s.evalReuses, 0u);
  // Switching the evaluation mode forgets the last evaluation.
  s = count([&] {
    ws.eval(x, 1e-6, true);
    ws.setBatchedEval(true);
    ws.eval(x, 1e-6, true);
  });
  EXPECT_EQ(s.evals, 2u);
  EXPECT_EQ(s.evalReuses, 0u);
}

// ------------------------------------------------- the limited flag

// Voltages around the limiters' decision points, plus random ones.
std::vector<Real> probeVoltages(std::mt19937_64& rng) {
  std::vector<Real> v = {-10, -3.6, -2.1, -0.6, -0.5, -0.1, 0, 0.1,  0.5,
                         0.6, 0.65, 0.7,  0.75, 0.8,  1,    2, 3.5, 4,  20};
  std::uniform_real_distribution<Real> wide(-6.0, 6.0);
  for (int k = 0; k < 40; ++k) v.push_back(wide(rng));
  return v;
}

TEST(LimitedFlag, DiodeUnlimitedWheneverTheFlagIsClear) {
  std::mt19937_64 rng(11);
  const std::vector<Real> vs = probeVoltages(rng);
  const kernels::DiodeParams p{1e-14, 0.02585, 0.6, 1e-12, 1e-12,
                               0.8,   0.5,     0.5, 1e-9};
  std::size_t flagged = 0;
  for (const Real v : vs)
    for (const Real vOld : vs) {
      const kernels::DiodeOut lim = kernels::diodeEval(p, v, vOld, true);
      const kernels::DiodeOut raw = kernels::diodeEval(p, v, 0.0, false);
      EXPECT_FALSE(raw.limited);
      if (lim.limited) {
        ++flagged;
        continue;
      }
      EXPECT_TRUE(sameBits(lim.i, raw.i) && sameBits(lim.g, raw.g) &&
                  sameBits(lim.q, raw.q) && sameBits(lim.c, raw.c))
          << "v=" << v << " vOld=" << vOld;
    }
  EXPECT_GT(flagged, 0u);
}

TEST(LimitedFlag, BjtUnlimitedWheneverTheFlagIsClear) {
  std::mt19937_64 rng(12);
  const std::vector<Real> vs = probeVoltages(rng);
  std::uniform_int_distribution<std::size_t> pick(0, vs.size() - 1);
  kernels::BJTParams p{1e-16, 100, 1,    50,  1e-13, 5e-14, 0.75, 0.33, 0.75,
                       0.33,  0.5, 1e-10, 1e-8, 1e-12, 1.0,   0.02585, 0.7};
  std::size_t flagged = 0;
  for (const Real sign : {1.0, -1.0}) {
    p.sign = sign;
    for (int k = 0; k < 4000; ++k) {
      const Real vb = vs[pick(rng)], ve = vs[pick(rng)], vc = vs[pick(rng)];
      const Real vbO = vs[pick(rng)], veO = vs[pick(rng)], vcO = vs[pick(rng)];
      const kernels::BJTOut lim =
          kernels::bjtEval(p, vb, ve, vc, vbO, veO, vcO, true, true);
      const kernels::BJTOut raw =
          kernels::bjtEval(p, vb, ve, vc, 0, 0, 0, false, true);
      if (lim.limited) {
        ++flagged;
        continue;
      }
      bool same = sameBits(lim.fC, raw.fC) && sameBits(lim.fB, raw.fB) &&
                  sameBits(lim.fE, raw.fE) && sameBits(lim.qB, raw.qB) &&
                  sameBits(lim.qE, raw.qE) && sameBits(lim.qC, raw.qC);
      for (int j = 0; j < 9; ++j)
        same = same && sameBits(lim.g[j], raw.g[j]) &&
               sameBits(lim.c[j], raw.c[j]);
      EXPECT_TRUE(same) << "vb=" << vb << " ve=" << ve << " vc=" << vc;
    }
  }
  EXPECT_GT(flagged, 0u);
}

TEST(LimitedFlag, MosfetUnlimitedWheneverTheFlagIsClear) {
  // vdsLimit moves a voltage even when it is handed vNew == vOld: below
  // -0.5 V the clamp applies whatever the step. The flag therefore
  // compares the limited pair with the raw one, never vNew with vOld.
  EXPECT_FALSE(sameBits(kernels::vdsLimit(-1.0, -1.0), -1.0));
  EXPECT_TRUE(sameBits(kernels::vdsLimit(-0.25, -0.25), -0.25));

  std::mt19937_64 rng(13);
  const std::vector<Real> vs = probeVoltages(rng);
  std::uniform_int_distribution<std::size_t> pick(0, vs.size() - 1);
  kernels::MOSFETParams p{0.7, 2e-3, 0.02, 1e-12, 5e-13, 1e-12, 1.0};
  std::size_t flagged = 0, unflagged = 0;
  for (const Real sign : {1.0, -1.0}) {
    p.sign = sign;
    for (int k = 0; k < 4000; ++k) {
      const Real vd = vs[pick(rng)], vg = vs[pick(rng)], vsr = vs[pick(rng)];
      // Half the time the previous iterate is the state itself.
      const bool same = k % 2 == 0;
      const Real vdO = same ? vd : vs[pick(rng)];
      const Real vgO = same ? vg : vs[pick(rng)];
      const Real vsO = same ? vsr : vs[pick(rng)];
      const kernels::MOSFETOut lim =
          kernels::mosfetEval(p, vd, vg, vsr, vdO, vgO, vsO, true, true);
      const kernels::MOSFETOut raw =
          kernels::mosfetEval(p, vd, vg, vsr, 0, 0, 0, false, true);
      if (lim.limited) {
        ++flagged;
        continue;
      }
      ++unflagged;
      bool eq = sameBits(lim.i, raw.i) && sameBits(lim.qGS, raw.qGS) &&
                sameBits(lim.qGD, raw.qGD);
      for (int j = 0; j < 6; ++j) eq = eq && sameBits(lim.g[j], raw.g[j]);
      EXPECT_TRUE(eq) << "vd=" << vd << " vg=" << vg << " vs=" << vsr;
    }
  }
  EXPECT_GT(flagged, 0u);
  EXPECT_GT(unflagged, 0u);
}

// ------------------------------------------- one-pass pattern equality

void expectSamePattern(const MnaSystem& sys, const RVec& x, const RVec* xPrev,
                       const std::string& what) {
  MnaWorkspace scalar(sys), batched(sys);
  scalar.setBatchedEval(false);
  batched.setBatchedEval(true);
  scalar.eval(x, 0.0, true, xPrev);
  batched.eval(x, 0.0, true, xPrev);
  EXPECT_EQ(scalar.pattern().rowPtr(), batched.pattern().rowPtr()) << what;
  EXPECT_EQ(scalar.pattern().colIdx(), batched.pattern().colIdx()) << what;
  EXPECT_EQ(scalar.diagSlots(), batched.diagSlots()) << what;
  EXPECT_EQ(scalar.patternVersion(), batched.patternVersion()) << what;
  expectSameOutputs(scalar, batched, true, what);
}

TEST(OnePassPattern, MatchesScalarDiscoveryOnTheMenagerie) {
  for (const bool generic : {false, true}) {
    const Menagerie m(generic);
    const std::size_t n = m.sys->dim();
    RVec x(n), xp(n);
    for (std::size_t u = 0; u < n; ++u) {
      x[u] = 0.4 * std::sin(0.7 * u + 0.3);
      xp[u] = 0.2 * std::cos(1.1 * u);
    }
    expectSamePattern(*m.sys, x, nullptr, generic ? "generic" : "compiled");
    expectSamePattern(*m.sys, x, &xp, generic ? "generic+lim" : "compiled+lim");
  }
}

TEST(OnePassPattern, MatchesScalarDiscoveryOnEveryGoldenNetlist) {
  // Every example netlist: the goldens are their rficsim captures.
  std::vector<std::filesystem::path> netlists;
  for (const auto& e : std::filesystem::directory_iterator(RFIC_NETLIST_DIR))
    if (e.path().extension() == ".cir") netlists.push_back(e.path());
  ASSERT_FALSE(netlists.empty());
  for (const auto& path : netlists) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream text;
    text << in.rdbuf();
    Circuit c;
    parseNetlist(text.str(), c);
    const MnaSystem sys(c);
    expectSamePattern(sys, RVec(sys.dim(), 0.0), nullptr,
                      path.filename().string());
  }
}

TEST(OnePassPattern, DiodeWithAQuietCapacitanceAtTheProbe) {
  // cj0 = 0 and tt > 0: the diode's C block is c = tt·gd, exactly 0 where
  // the junction exponential underflows to its floor (v/nvt < -80). At that
  // probe point the scalar walk stamps no C entry; the one-pass build must
  // leave the block out as well and still stamp it once it turns on.
  Circuit c;
  const int a = c.node("a");
  const int k = c.node("k");
  c.add<Resistor>("R1", a, k, 1e3);
  Diode::Params dp;
  dp.cj0 = 0.0;
  dp.tt = 1e-9;
  c.add<Diode>("D1", a, k, dp);
  c.add<Resistor>("R2", k, -1, 1e3);
  const MnaSystem sys(c);
  RVec off(sys.dim(), 0.0);
  off[static_cast<std::size_t>(k)] = 5.0;  // v_ak = -5 V
  expectSamePattern(sys, off, nullptr, "quiet C");

  MnaWorkspace scalar(sys), batched(sys);
  scalar.setBatchedEval(false);
  batched.setBatchedEval(true);
  scalar.eval(off, 0.0, true);
  batched.eval(off, 0.0, true);
  RVec on(sys.dim(), 0.0);
  on[static_cast<std::size_t>(a)] = 0.6;
  scalar.eval(on, 0.0, true);
  batched.eval(on, 0.0, true);
  EXPECT_EQ(scalar.patternVersion(), batched.patternVersion());
  expectSameOutputs(scalar, batched, true, "C on");
}

}  // namespace
}  // namespace rfic::circuit
