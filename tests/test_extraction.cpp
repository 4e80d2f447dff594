// Field-solver substrate (Section 4): panel kernel exactness, capacitance
// benchmarks with known answers, IES³ compression fidelity, the FD/MoM
// Table 1 pairing, PEEC inductance formulas, and the spiral macromodel.
#include <gtest/gtest.h>

#include <cmath>

#include "extraction/geometry.hpp"
#include "extraction/ies3.hpp"
#include "extraction/mom.hpp"
#include "extraction/panel_kernel.hpp"
#include "extraction/peec.hpp"
#include "extraction/spiral.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::extraction {
namespace {

TEST(PanelKernel, MatchesBruteForceQuadrature) {
  Panel p;
  p.corner = {0, 0, 0};
  p.edgeA = {1e-3, 0, 0};
  p.edgeB = {0, 2e-3, 0};
  auto brute = [&](const Vec3& pt) {
    const int n = 400;
    Real s = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        const Vec3 q{(i + 0.5) * 1e-3 / n, (j + 0.5) * 2e-3 / n, 0.0};
        s += 1.0 / (pt - q).norm();
      }
    }
    return s / (n * static_cast<Real>(n)) / (4 * kPi * kEps0);
  };
  for (const Vec3& pt : {Vec3{0.5e-3, 1e-3, 0.5e-3}, Vec3{2e-3, -1e-3, 1e-3},
                         Vec3{0.5e-3, 1e-3, -0.7e-3}}) {
    EXPECT_NEAR(panelPotential(p, pt), brute(pt), 1e-3 * brute(pt));
  }
}

TEST(PanelKernel, EvenInNormalOffset) {
  Panel p;
  p.corner = {0, 0, 0};
  p.edgeA = {1, 0, 0};
  p.edgeB = {0, 1, 0};
  const Real up = panelPotential(p, {0.3, 0.4, 0.25});
  const Real dn = panelPotential(p, {0.3, 0.4, -0.25});
  EXPECT_NEAR(up, dn, 1e-12 * up);
}

TEST(PanelKernel, TranslationAndOrientationInvariance) {
  Panel flat;
  flat.corner = {0, 0, 0};
  flat.edgeA = {1, 0, 0};
  flat.edgeB = {0, 1, 0};
  const Real ref = panelPotential(flat, {0.5, 0.5, 1.0});
  // Same panel stood up in the x-z plane, same relative field point.
  Panel up;
  up.corner = {5, 5, 5};
  up.edgeA = {0, 0, 1};
  up.edgeB = {1, 0, 0};
  const Real rot = panelPotential(up, {5.5, 6.0, 5.5});
  EXPECT_NEAR(rot, ref, 1e-12 * ref);
}

TEST(PanelKernel, FarFieldApproachesPointCharge) {
  Panel p;
  p.corner = {0, 0, 0};
  p.edgeA = {1e-3, 0, 0};
  p.edgeB = {0, 1e-3, 0};
  const Vec3 far{0.5e-3, 0.5e-3, 0.5};  // 500 panel sizes away
  const Real v = panelPotential(p, far);
  const Real point = 1.0 / (4 * kPi * kEps0 * 0.5);
  EXPECT_NEAR(v, point, 1e-5 * point);
}

TEST(Geometry, MeshGenerators) {
  const auto plates = makeParallelPlates(1e-3, 1e-4, 4);
  EXPECT_EQ(plates.panels.size(), 32u);
  EXPECT_EQ(plates.numConductors(), 2u);
  const auto cube = makeCube(1.0, 3);
  EXPECT_EQ(cube.panels.size(), 54u);
  const auto bus = makeBusCrossing(3, 1.0, 3.0, 9.0, 1.0, 6);
  EXPECT_EQ(bus.numConductors(), 6u);
  EXPECT_EQ(bus.panels.size(), 36u);
  Real area = 0;
  for (const auto& p : cube.panels) area += p.area();
  EXPECT_NEAR(area, 6.0, 1e-12);
}

TEST(MoM, UnitSquarePlateCapacitance) {
  // Classic value: C ≈ 0.367·4πε₀ per unit side (converges from below with
  // uniform collocation panels).
  PanelMesh mesh;
  const int c = mesh.addConductor("plate");
  addRectangle(mesh, c, {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 16, 16);
  const auto cap = extractCapacitanceDense(mesh);
  const Real ref = 0.367 * 4 * kPi * kEps0;
  EXPECT_NEAR(cap.matrix(0, 0), ref, 0.03 * ref);
}

TEST(MoM, UnitCubeCapacitance) {
  const auto cap = extractCapacitanceDense(makeCube(1.0, 8));
  const Real ref = 0.6607 * 4 * kPi * kEps0;
  EXPECT_NEAR(cap.matrix(0, 0), ref, 0.02 * ref);
}

TEST(MoM, ParallelPlatesFringeAboveIdeal) {
  const Real side = 1e-3, gap = 1e-4;
  const auto cap = extractCapacitanceDense(makeParallelPlates(side, gap, 10));
  const Real ideal = parallelPlateEstimate(side, gap);
  const Real mutual = -cap.matrix(0, 1);
  EXPECT_GT(mutual, ideal);          // fringing adds capacitance
  EXPECT_LT(mutual, 1.5 * ideal);    // but not unboundedly
  // Maxwell matrix structure: symmetric, diagonally dominant.
  EXPECT_NEAR(cap.matrix(0, 1), cap.matrix(1, 0), 1e-3 * std::abs(cap.matrix(0, 1)));
  EXPECT_GT(cap.matrix(0, 0), -cap.matrix(0, 1));
}

TEST(MoM, CapacitanceScalesLinearlyWithSize) {
  // Electrostatics: C scales with linear dimension.
  const auto c1 = extractCapacitanceDense(makeCube(1.0, 5));
  const auto c2 = extractCapacitanceDense(makeCube(2.0, 5));
  EXPECT_NEAR(c2.matrix(0, 0) / c1.matrix(0, 0), 2.0, 1e-6);
}

TEST(IES3, MatchesDenseCapacitance) {
  const auto mesh = makeBusCrossing(4, 1.0, 3.0, 12.0, 1.0, 10);
  const auto dense = extractCapacitanceDense(mesh);
  const auto comp = extractCapacitanceIES3(mesh);
  for (std::size_t i = 0; i < dense.matrix.rows(); ++i)
    for (std::size_t j = 0; j < dense.matrix.cols(); ++j)
      EXPECT_NEAR(comp.matrix(i, j), dense.matrix(i, j),
                  1e-5 * std::abs(dense.matrix(i, i)));
}

TEST(IES3, MatvecMatchesDenseOperator) {
  const auto mesh = makeResonatorAssembly(4);
  const std::size_t n = mesh.panels.size();
  std::vector<Vec3> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[i] = mesh.panels[i].centroid();
  const PanelPotentialKernel kernel(mesh);
  const IES3Matrix a(pos, kernel);
  const numeric::RMat d = assembleMoMMatrix(mesh);
  numeric::RVec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(0.7 * static_cast<Real>(i));
  numeric::RVec y1(n);
  a.apply(x, y1);
  const numeric::RVec y2 = d * x;
  const Real scale = numeric::normInf(y2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-5 * scale);
}

TEST(IES3, CompressionImprovesWithSize) {
  const auto small = makeBusCrossing(4, 1.0, 3.0, 12.0, 1.0, 16);
  const auto large = makeBusCrossing(4, 1.0, 3.0, 12.0, 1.0, 64);
  const auto cs = extractCapacitanceIES3(small);
  const auto cl = extractCapacitanceIES3(large);
  const Real fracSmall =
      static_cast<Real>(cs.storedEntries) /
      (static_cast<Real>(cs.panelCount) * static_cast<Real>(cs.panelCount));
  const Real fracLarge =
      static_cast<Real>(cl.storedEntries) /
      (static_cast<Real>(cl.panelCount) * static_cast<Real>(cl.panelCount));
  EXPECT_LT(fracLarge, fracSmall);
  EXPECT_LT(fracLarge, 0.75);
}

TEST(IES3, ApplyMatchesDenseAcrossKnobSweep) {
  // The engine must agree with the dense operator for every combination of
  // tree / compression knobs — shallow and deep trees, tight and loose
  // admissibility, rank-starved and rank-rich ACA.
  const auto mesh = makeBusCrossing(4, 1.0, 3.0, 12.0, 1.0, 12);
  const std::size_t n = mesh.panels.size();
  const PanelPotentialKernel kernel(mesh);
  std::vector<Vec3> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[i] = kernel.centroid(i);
  const numeric::RMat d = assembleMoMMatrix(mesh);
  numeric::RVec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(0.3 * static_cast<Real>(i));
  const numeric::RVec yRef = d * x;
  const Real scale = numeric::normInf(yRef);

  for (const Real eta : {1.0, 2.0, 4.0}) {
    for (const std::size_t leafSize : {std::size_t{8}, std::size_t{24}}) {
      for (const std::size_t maxRank : {std::size_t{4}, std::size_t{80}}) {
        IES3Options opts;
        opts.eta = eta;
        opts.leafSize = leafSize;
        opts.maxRank = maxRank;
        opts.tolerance = 1e-6;
        const IES3Matrix a(pos, kernel, opts);
        numeric::RVec y(n);
        a.apply(x, y);
        // A hard rank cap leaves truncation error (worst with loose
        // admissibility, where near-touching clusters compress); the ACA
        // tolerance bounds the uncapped cases tightly.
        const Real tol = (maxRank < 80 ? 5e-2 : 1e-4) * scale;
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_NEAR(y[i], yRef[i], tol)
              << "eta=" << eta << " leaf=" << leafSize << " rank=" << maxRank;
      }
    }
  }
}

TEST(IES3, CoincidentCentroidsFallBackToDense) {
  // Degenerate geometry: every point at the origin. No cluster pair is
  // ever admissible (dist == 0), so the engine must store the full dense
  // matrix and still reproduce it exactly.
  const std::size_t n = 37;
  std::vector<Vec3> pos(n, Vec3{0, 0, 0});
  // Synthetic entries 1/(1 + |i − j|) through the per-entry base batches.
  struct DecayKernel final : EntryKernel {
    Real entry(std::size_t i, std::size_t j) const override {
      return 1.0 / (1.0 + std::abs(static_cast<double>(i) -
                                   static_cast<double>(j)));
    }
  } kernel;
  IES3Options opts;
  opts.leafSize = 8;
  const IES3Matrix a(pos, kernel, opts);
  EXPECT_EQ(a.storedEntries(), n * n);
  EXPECT_EQ(a.lowRankBlockCount(), 0u);
  numeric::RVec x(n), y(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::sin(1.1 * static_cast<Real>(i));
  a.apply(x, y);
  for (std::size_t i = 0; i < n; ++i) {
    Real ref = 0;
    for (std::size_t j = 0; j < n; ++j) ref += kernel.entry(i, j) * x[j];
    EXPECT_NEAR(y[i], ref, 1e-12);
  }
}

TEST(IES3, ExtractionBitwiseIdenticalAcrossThreadCounts) {
  // The contract: block build, matvec accumulation, and the multi-RHS
  // sweep are all scheduled so the arithmetic is identical whatever the
  // pool size. 1-thread vs 4-thread extraction must agree to the bit.
  const auto mesh = makeBusCrossing(4, 1.0, 3.0, 12.0, 1.0, 10);
  perf::ThreadPool p1(1), p4(4);
  IES3Options o1;
  o1.pool = &p1;
  IES3Options o4;
  o4.pool = &p4;
  const auto r1 = extractCapacitanceIES3(mesh, o1);
  const auto r4 = extractCapacitanceIES3(mesh, o4);
  EXPECT_EQ(r1.storedEntries, r4.storedEntries);
  EXPECT_EQ(r1.gmresIterations, r4.gmresIterations);
  for (std::size_t i = 0; i < r1.matrix.rows(); ++i)
    for (std::size_t j = 0; j < r1.matrix.cols(); ++j)
      EXPECT_EQ(r1.matrix(i, j), r4.matrix(i, j)) << i << "," << j;
}

TEST(IES3, SteadyStateApplyIsAllocationFree) {
  // Workspace-growth contract (same discipline as the HB hot loop): the
  // first apply() may allocate its workspace; repeats must recycle it.
  const auto mesh = makeResonatorAssembly(3);
  const PanelPotentialKernel kernel(mesh);
  std::vector<Vec3> pos(kernel.size());
  for (std::size_t i = 0; i < pos.size(); ++i) pos[i] = kernel.centroid(i);
  const IES3Matrix a(pos, kernel);
  numeric::RVec x(a.dim(), 1.0), y(a.dim());
  a.apply(x, y);  // warm-up: pool acquires + sizes the workspace
  const std::uint64_t warm = a.workspaceGrowth();
  EXPECT_GE(warm, 1u);
  for (int rep = 0; rep < 10; ++rep) a.apply(x, y);
  EXPECT_EQ(a.workspaceGrowth(), warm);
  EXPECT_GE(a.matvecCount(), 11u);
}

TEST(IES3, BlockJacobiOutlivesMatrix) {
  // The preconditioner copies everything it needs; using it after the
  // matrix is gone must be safe (regression: it used to hold a reference
  // to the matrix's permutation vector).
  const auto mesh = makeBusCrossing(4, 1.0, 3.0, 12.0, 1.0, 8);
  const PanelPotentialKernel kernel(mesh);
  std::vector<Vec3> pos(kernel.size());
  for (std::size_t i = 0; i < pos.size(); ++i) pos[i] = kernel.centroid(i);
  numeric::RVec x(kernel.size(), 1.0), y1, y2;
  std::unique_ptr<sparse::LinearOperator<Real>> prec;
  {
    const IES3Matrix a(pos, kernel);
    prec = a.makeBlockJacobi();
    prec->apply(x, y1);
  }  // matrix destroyed
  prec->apply(x, y2);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(MoM, DenseChargesBelongToConductorZero) {
  // charges = the conductor-0 excitation column, so summing it over
  // conductor-0 panels reproduces the Maxwell diagonal C(0,0).
  const auto mesh = makeParallelPlates(1e-3, 1e-4, 6);
  const auto cap = extractCapacitanceDense(mesh);
  ASSERT_EQ(cap.charges.size(), mesh.panels.size());
  Real sum0 = 0;
  for (std::size_t i = 0; i < mesh.panels.size(); ++i)
    if (mesh.panels[i].conductor == 0) sum0 += cap.charges[i];
  EXPECT_NEAR(sum0, cap.matrix(0, 0), 1e-12 * std::abs(cap.matrix(0, 0)));
}

TEST(FDLaplace, AgreesWithMoMParallelPlates) {
  const Real side = 1e-3, gap = 1e-4;
  const auto fd = solveParallelPlatesFD(side, gap, 28);
  const auto mom = extractCapacitanceDense(makeParallelPlates(side, gap, 10));
  const Real cMoM = -mom.matrix(0, 1);
  EXPECT_NEAR(fd.capacitance, cMoM, 0.12 * cMoM);
  // Table 1 structure facts: the FD system is much larger but much sparser.
  EXPECT_GT(fd.unknowns, mom.panelCount);
  EXPECT_LT(fd.nnz, fd.unknowns * 8);
}

TEST(Table1, ConditionNumbers) {
  // Integral-equation matrices are well conditioned; the FD Laplacian is
  // not (κ grows as h⁻²). Check the MoM side quantitatively.
  const auto mesh = makeParallelPlates(1e-3, 1e-4, 8);
  const auto p = assembleMoMMatrix(mesh);
  const Real cond = symmetricConditionEstimate(p);
  EXPECT_LT(cond, 1e4);
  EXPECT_GT(cond, 1.0);
}

TEST(PEEC, SelfInductanceFormulaBasics) {
  Segment s;
  s.start = {0, 0, 0};
  s.end = {1e-3, 0, 0};
  s.width = 10e-6;
  s.thickness = 1e-6;
  const Real l1 = partialSelfInductance(s);
  EXPECT_GT(l1, 0.0);
  // 1 mm of 10 µm trace ≈ 1 nH ballpark (0.5–1.5 nH).
  EXPECT_GT(l1, 0.5e-9);
  EXPECT_LT(l1, 1.5e-9);
  // Longer wire → more than proportionally larger L (log term).
  Segment s2 = s;
  s2.end = {2e-3, 0, 0};
  EXPECT_GT(partialSelfInductance(s2), 2.0 * l1);
}

TEST(PEEC, MutualSignsAndSymmetry) {
  Segment a;
  a.start = {0, 0, 0};
  a.end = {1e-3, 0, 0};
  a.width = 10e-6;
  a.thickness = 1e-6;
  Segment b = a;
  b.start = {0, 50e-6, 0};
  b.end = {1e-3, 50e-6, 0};
  const Real mPar = partialMutualInductance(a, b);
  EXPECT_GT(mPar, 0.0);
  EXPECT_LT(mPar, partialSelfInductance(a));
  // Antiparallel: sign flips.
  Segment br = b;
  std::swap(br.start, br.end);
  EXPECT_NEAR(partialMutualInductance(a, br), -mPar, 1e-18);
  // Symmetry M(a,b) = M(b,a).
  EXPECT_NEAR(partialMutualInductance(b, a), mPar, 1e-6 * mPar);
  // Perpendicular: exactly zero.
  Segment perp;
  perp.start = {0, 0, 0};
  perp.end = {0, 1e-3, 0};
  perp.width = 10e-6;
  perp.thickness = 1e-6;
  EXPECT_EQ(partialMutualInductance(a, perp), 0.0);
  // Mutual decays with distance.
  Segment far = b;
  far.start = {0, 500e-6, 0};
  far.end = {1e-3, 500e-6, 0};
  EXPECT_LT(partialMutualInductance(a, far), mPar);
}

TEST(PEEC, LoopInductanceOfRectangle) {
  // A closed rectangular loop: all partial mutuals between opposite sides
  // are negative (antiparallel currents), shrinking L below the sum of
  // self terms.
  std::vector<Segment> loop;
  const Real w = 10e-6, t = 1e-6, a = 1e-3;
  auto add = [&](Vec3 s, Vec3 e) {
    Segment seg;
    seg.start = s;
    seg.end = e;
    seg.width = w;
    seg.thickness = t;
    loop.push_back(seg);
  };
  add({0, 0, 0}, {a, 0, 0});
  add({a, 0, 0}, {a, a, 0});
  add({a, a, 0}, {0, a, 0});
  add({0, a, 0}, {0, 0, 0});
  const Real lLoop = loopInductance(loop);
  Real lSelfSum = 0;
  for (const auto& s : loop) lSelfSum += partialSelfInductance(s);
  EXPECT_GT(lLoop, 0.0);
  EXPECT_LT(lLoop, lSelfSum);
}

TEST(PEEC, SkinEffectLimits) {
  EXPECT_NEAR(skinEffectFactor(0.0, 1e-6, 2.65e-8), 1.0, 1e-12);
  EXPECT_NEAR(skinEffectFactor(1.0, 1e-6, 2.65e-8), 1.0, 1e-3);
  // At high frequency R grows like sqrt(f): factor(100f)/factor(f) ≈ 10.
  const Real f1 = skinEffectFactor(1e11, 10e-6, 2.65e-8);
  const Real f2 = skinEffectFactor(1e13, 10e-6, 2.65e-8);
  EXPECT_NEAR(f2 / f1, 10.0, 0.5);
}

TEST(Spiral, GeometryWalksInward) {
  SpiralParams p;
  p.turns = 3;
  const auto segs = makeSquareSpiral(p);
  EXPECT_EQ(segs.size(), 12u);
  // Side lengths never grow along the walk.
  Real prev = 1e30;
  for (std::size_t k = 0; k < segs.size(); k += 2) {
    const Real len = (segs[k].end - segs[k].start).norm();
    EXPECT_LE(len, prev + 1e-12);
    prev = len;
  }
  EXPECT_THROW(
      [] {
        SpiralParams bad;
        bad.turns = 40;  // cannot fit
        makeSquareSpiral(bad);
      }(),
      InvalidArgument);
}

TEST(Spiral, InductanceNearModifiedWheeler) {
  SpiralParams p;  // 4 turns, 300 µm
  const auto m = buildSpiralModel(p);
  // Modified Wheeler estimate for square spirals:
  // L = 2.34·µ0·n²·davg/(1+2.75·ρ) with ρ = (dout−din)/(dout+din).
  const Real pitch = p.width + p.spacing;
  const Real din = p.outerSize - 2 * pitch * static_cast<Real>(p.turns);
  const Real davg = 0.5 * (p.outerSize + din);
  const Real rho = (p.outerSize - din) / (p.outerSize + din);
  const Real lw = 2.34 * kMu0 * static_cast<Real>(p.turns * p.turns) * davg /
                  (1.0 + 2.75 * rho);
  EXPECT_NEAR(m.seriesL, lw, 0.25 * lw);
}

TEST(Spiral, QPeaksAndLeffRisesTowardResonance) {
  SpiralParams p;
  const auto m = buildSpiralModel(p);
  // Q rises, peaks, falls.
  const Real q1 = m.qualityFactor(2e8);
  const Real q2 = m.qualityFactor(2e9);
  const Real q3 = m.qualityFactor(2e10);
  EXPECT_GT(q2, q1);
  EXPECT_GT(q2, q3);
  // Low-frequency L_eff ≈ the PEEC series inductance.
  EXPECT_NEAR(m.effectiveInductance(1e7), m.seriesL, 0.05 * m.seriesL);
  // Self-resonance exists: Im(Z) crosses zero somewhere below 1 THz.
  bool crossed = false;
  Real prev = m.inputImpedance(1e8).imag();
  for (Real f = 2e8; f < 1e12; f *= 1.3) {
    const Real cur = m.inputImpedance(f).imag();
    if (prev > 0 && cur < 0) crossed = true;
    prev = cur;
  }
  EXPECT_TRUE(crossed);
}

TEST(Spiral, FinerDiscretizationConverges) {
  SpiralParams coarse;
  SpiralParams fine = coarse;
  fine.segmentsPerSide = 4;
  const Real lc = buildSpiralModel(coarse).seriesL;
  const Real lf = buildSpiralModel(fine).seriesL;
  EXPECT_NEAR(lc, lf, 0.08 * lf);
}

TEST(Resonator, AssemblyCapacitanceMatrixIsPhysical) {
  const auto mesh = makeResonatorAssembly(3);
  const auto cap = extractCapacitanceIES3(mesh);
  const std::size_t nc = mesh.numConductors();
  for (std::size_t i = 0; i < nc; ++i) {
    EXPECT_GT(cap.matrix(i, i), 0.0);
    Real rowSum = 0;
    for (std::size_t j = 0; j < nc; ++j) {
      if (i != j) {
        EXPECT_LT(cap.matrix(i, j), 0.0);
      }
      rowSum += cap.matrix(i, j);
    }
    EXPECT_GT(rowSum, -1e-15);  // capacitance to infinity is non-negative
  }
  // The two resonator plates couple through the line: mutual res1-res2
  // exceeds what bare distance would give... just require nonzero coupling.
  const int r1 = 1, r2 = 2;
  EXPECT_LT(cap.matrix(r1, r2), -1e-16);
}

}  // namespace
}  // namespace rfic::extraction
