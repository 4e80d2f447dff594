// The counter ledger end to end: every analysis reads its result snapshot
// from a CounterScope of its own, so a reused workspace reports each call's
// work, rows bumped deep inside the pipeline (ordering, factor fill) reach
// the result, and the table's subset rows never exceed their parents.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/ac.hpp"
#include "analysis/dc.hpp"
#include "analysis/noise.hpp"
#include "analysis/transient.hpp"
#include "circuit/devices.hpp"
#include "circuit/mna_workspace.hpp"
#include "circuit/sources.hpp"
#include "hb/harmonic_balance.hpp"
#include "perf/perf.hpp"
#include "rom/linear_system.hpp"
#include "sparse/ordering.hpp"

namespace rfic {
namespace {

using namespace rfic::circuit;
using numeric::RVec;

// A sine source driving `segments` R-C sections; returns the far-end node.
int buildRCLadder(Circuit& c, std::size_t segments) {
  int prev = c.node("in");
  c.add<VSource>("V1", prev, -1, c.allocBranch("V1"),
                 std::make_shared<SineWave>(1.0, 1e5));
  for (std::size_t k = 0; k < segments; ++k) {
    const std::string s = std::to_string(k);
    const int next = c.node("n" + s);
    c.add<Resistor>("R" + s, prev, next, 100.0);
    c.add<Capacitor>("C" + s, next, -1, 1e-9);
    prev = next;
  }
  return prev;
}

// Two tones through a series resistor into a cubic conductance.
void buildTwoTone(Circuit& c) {
  const int a = c.node("a"), s2 = c.node("s2"), b = c.node("b");
  c.add<VSource>("V1", a, -1, c.allocBranch("V1"),
                 std::make_shared<SineWave>(0.06, 1.0e6), TimeAxis::slow);
  c.add<VSource>("V2", s2, a, c.allocBranch("V2"),
                 std::make_shared<SineWave>(0.06, 1.3e6), TimeAxis::fast);
  c.add<Resistor>("Rs", s2, b, 1000.0);
  c.add<CubicConductance>("GN", b, -1, 1e-3, 1e-2);
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

// Every row except the wall-time ones, which differ run to run.
void expectSameWork(const perf::Snapshot& a, const perf::Snapshot& b) {
  for (const perf::Row& row : perf::kRows) {
    if (row.unit == perf::Unit::Ns) continue;
    EXPECT_EQ(a.*row.field, b.*row.field) << row.name;
  }
}

void expectSameRows(const perf::Snapshot& a, const perf::Snapshot& b) {
  for (const perf::Row& row : perf::kRows)
    EXPECT_EQ(a.*row.field, b.*row.field) << row.name;
}

void expectSubsetsWithinParents(const perf::Snapshot& s,
                                const std::string& what) {
  for (const perf::Row& row : perf::kRows) {
    if (row.parent[0] == '\0') continue;
    const perf::Row* parent = nullptr;
    for (const perf::Row& p : perf::kRows)
      if (std::strcmp(p.name, row.parent) == 0) parent = &p;
    ASSERT_NE(parent, nullptr) << row.name << " names no row as parent";
    EXPECT_LE(s.*row.field, s.*parent->field)
        << what << ": " << row.name << " exceeds " << row.parent;
  }
}

TEST(PerfLedger, ReusedWorkspaceReportsEachCall) {
  Circuit c;
  buildRCLadder(c, 4);
  const analysis::MnaSystem sys(c);

  MnaWorkspace dcWs(sys);
  analysis::DCOptions dcOpts;
  dcOpts.workspace = &dcWs;
  (void)analysis::dcOperatingPoint(sys, dcOpts);  // warm: pattern + pivots
  const auto dc1 = analysis::dcOperatingPoint(sys, dcOpts);
  const auto dc2 = analysis::dcOperatingPoint(sys, dcOpts);
  EXPECT_GT(dc1.perf.evals, 0u);
  expectSameWork(dc1.perf, dc2.perf);

  MnaWorkspace trWs(sys);
  analysis::TransientOptions trOpts;
  trOpts.tstop = 2e-5;
  trOpts.dt = 1e-7;
  trOpts.workspace = &trWs;
  const RVec x0(sys.dim(), 0.0);
  (void)analysis::runTransient(sys, x0, trOpts);
  const auto tr1 = analysis::runTransient(sys, x0, trOpts);
  const auto tr2 = analysis::runTransient(sys, x0, trOpts);
  EXPECT_GT(tr1.perf.evals, 0u);
  // A warm fixed-step linear transient finds its one Jacobian factored at
  // every step, the last included.
  EXPECT_EQ(tr1.perf.refactorizations, 0u);
  EXPECT_EQ(tr1.perf.refactorSkips, tr1.steps);
  expectSameWork(tr1.perf, tr2.perf);
}

TEST(PerfLedger, ResultSnapshotsCarryGloballyBumpedRows) {
  const sparse::ScopedOrderingOverride amd(sparse::Ordering::Amd);
  {
    Circuit c;
    buildRCLadder(c, 300);
    const analysis::MnaSystem sys(c);
    analysis::TransientOptions o;
    o.tstop = 1e-6;
    o.dt = 1e-7;
    analysis::TransientResult tr;
    const perf::Snapshot scope = countedBy(
        [&] { tr = analysis::runTransient(sys, RVec(sys.dim(), 0.0), o); });
    ASSERT_TRUE(tr.ok);
    EXPECT_GT(tr.perf.orderingNs, 0u);
    EXPECT_GT(tr.perf.factorFillNnz, 0u);
    expectSameRows(tr.perf, scope);
  }
  {
    Circuit c;
    buildTwoTone(c);
    const analysis::MnaSystem sys(c);
    const auto dc = analysis::dcOperatingPoint(sys);
    const hb::HarmonicBalance hb(sys, {{1.0e6, 3}, {1.3e6, 3}});
    hb::HBSolution sol;
    const perf::Snapshot scope = countedBy([&] { sol = hb.solve(dc.x); });
    ASSERT_TRUE(sol.converged);
    EXPECT_GT(sol.perf.factorFillNnz, 0u);
    EXPECT_GT(sol.perf.fftCount, 0u);
    expectSameRows(sol.perf, scope);
  }
}

class PerfLedgerOrdering : public ::testing::TestWithParam<sparse::Ordering> {
};

TEST_P(PerfLedgerOrdering, SubsetRowsNeverExceedParents) {
  const sparse::ScopedOrderingOverride ordering(GetParam());

  Circuit c;
  const int out = buildRCLadder(c, 40);
  const analysis::MnaSystem sys(c);
  analysis::DCResult dc;
  const perf::Snapshot dcSnap =
      countedBy([&] { dc = analysis::dcOperatingPoint(sys); });
  expectSubsetsWithinParents(dcSnap, "dc");
  expectSubsetsWithinParents(dc.perf, "dc result");

  analysis::TransientOptions o;
  o.tstop = 2e-6;
  o.dt = 1e-7;
  analysis::TransientResult tr;
  expectSubsetsWithinParents(
      countedBy([&] { tr = analysis::runTransient(sys, dc.x, o); }), "tran");
  expectSubsetsWithinParents(tr.perf, "tran result");

  const auto* vs = dynamic_cast<const VSource*>(c.devices().front().get());
  ASSERT_NE(vs, nullptr);
  const std::vector<Real> freqs{1e3, 1e5, 1e7};
  expectSubsetsWithinParents(countedBy([&] {
                               (void)analysis::acSweep(
                                   sys, dc.x, freqs,
                                   analysis::acStimulusVSource(sys, *vs));
                             }),
                             "ac");
  expectSubsetsWithinParents(countedBy([&] {
                               (void)analysis::noiseAnalysis(sys, dc.x, out,
                                                             freqs);
                             }),
                             "noise");

  Circuit c2;
  buildTwoTone(c2);
  const analysis::MnaSystem sys2(c2);
  const auto dc2 = analysis::dcOperatingPoint(sys2);
  const hb::HarmonicBalance hb(sys2, {{1.0e6, 3}, {1.3e6, 3}});
  hb::HBSolution sol;
  expectSubsetsWithinParents(countedBy([&] { sol = hb.solve(dc2.x); }), "hb");
  expectSubsetsWithinParents(sol.perf, "hb result");

  // ROM: the expansion operator and the exact transfer function factor
  // through SymbolicLU like every other analysis, so they are counted.
  const rom::DescriptorSystem tree = rom::makeRCTree(7, 10.0, 1e-13);
  const perf::Snapshot romSnap = countedBy([&] {
    const rom::ExpansionOperator op(tree, 1e9);
    (void)op.apply(op.r());
    (void)tree.transferFunction(Complex(0.0, 1e9));
  });
  expectSubsetsWithinParents(romSnap, "rom");
  EXPECT_EQ(romSnap.factorizations, 2u);
  EXPECT_GT(romSnap.factorFillNnz, 0u);
}

INSTANTIATE_TEST_SUITE_P(Orderings, PerfLedgerOrdering,
                         ::testing::Values(sparse::Ordering::Natural,
                                           sparse::Ordering::Amd));

}  // namespace
}  // namespace rfic
