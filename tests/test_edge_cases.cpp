// Edge cases across the numerical substrates: degenerate sizes, boundary
// parameters, and failure paths that the mainline tests don't reach.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/transient.hpp"
#include "circuit/devices.hpp"
#include "circuit/sources.hpp"
#include "extraction/panel_kernel.hpp"
#include "fft/plan.hpp"
#include "hb/spectrum.hpp"
#include "numeric/eig.hpp"
#include "numeric/lu.hpp"
#include "numeric/qr.hpp"
#include "numeric/svd.hpp"
#include "rom/pvl.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic {
namespace {

using numeric::CVec;
using numeric::RMat;
using numeric::RVec;

TEST(Edge, OneByOneEverything) {
  RMat a(1, 1);
  a(0, 0) = 4.0;
  EXPECT_DOUBLE_EQ(numeric::LU<Real>(a).solve(RVec{8.0})[0], 2.0);
  EXPECT_DOUBLE_EQ(numeric::LU<Real>(a).determinant(), 4.0);
  const auto d = numeric::svd(a);
  EXPECT_DOUBLE_EQ(d.s[0], 4.0);
  const CVec e = numeric::eigenvalues(a);
  EXPECT_NEAR(e[0].real(), 4.0, 1e-14);
  const auto qr = numeric::thinQR(a);
  EXPECT_NEAR(std::abs(qr.r(0, 0)), 4.0, 1e-14);
}

TEST(Edge, SVDOfZeroMatrixHasZeroRank) {
  const auto d = numeric::svd(RMat(4, 3));
  EXPECT_EQ(numeric::numericalRank(d, 1e-12), 0u);
  for (std::size_t i = 0; i < d.s.size(); ++i) EXPECT_EQ(d.s[i], 0.0);
}

TEST(Edge, EigOfDefectiveJordanBlock) {
  // [[2 1],[0 2]] — defective; eigenvalues must both come out near 2.
  RMat a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 1) = 2;
  const CVec e = numeric::eigenvalues(a);
  EXPECT_NEAR(std::abs(e[0] - 2.0), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(e[1] - 2.0), 0.0, 1e-6);
}

TEST(Edge, FFTTrivialLengths) {
  // Length 1 is the identity; length 0 has no plan.
  std::vector<Complex> one{{3.0, -1.0}};
  fft::transformColumns(*fft::PlanCache::global().get(1), one.data(), 1,
                        /*inverse=*/false);
  EXPECT_EQ(one[0], Complex(3.0, -1.0));
  EXPECT_THROW(fft::PlanCache::global().get(0), InvalidArgument);
}

TEST(Edge, SparseLUOnePivotChain) {
  // Strictly lower bidiagonal with implicit permutation demands: every
  // pivot must be found off-diagonal.
  const std::size_t n = 6;
  sparse::RTriplets t(n, n);
  for (std::size_t i = 0; i < n; ++i) t.add(i, (i + 1) % n, 1.0 + Real(i));
  const sparse::RSymbolicLU lu{sparse::RCSR(t)};
  RVec b(n, 1.0);
  const RVec x = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[(i + 1) % n], 1.0 / (1.0 + Real(i)), 1e-12);
}

TEST(Edge, PanelPotentialAtOwnCornerIsFinite) {
  extraction::Panel p;
  p.corner = {0, 0, 0};
  p.edgeA = {1e-3, 0, 0};
  p.edgeB = {0, 1e-3, 0};
  const Real vCorner = extraction::panelPotential(p, {0, 0, 0});
  const Real vEdge = extraction::panelPotential(p, {0.5e-3, 0, 0});
  const Real vCenter = extraction::panelPotential(p, {0.5e-3, 0.5e-3, 0});
  EXPECT_TRUE(std::isfinite(vCorner));
  EXPECT_TRUE(std::isfinite(vEdge));
  // Center is the potential maximum for a uniform charge.
  EXPECT_GT(vCenter, vEdge);
  EXPECT_GT(vEdge, vCorner * 0.99);
}

TEST(Edge, PVLOrderEqualToSystemSizeIsExact) {
  const auto sys = rom::makeRCLine(6, 1.0, 1.0);
  const auto rom = rom::pvl(sys, 0.0, sys.n).rom;
  for (Real w : {0.1, 1.0, 10.0}) {
    const Complex s(0.0, w);
    const Complex ref = sys.transferFunction(s);
    EXPECT_LT(std::abs(rom.transfer(s) - ref), 1e-8 * std::abs(ref));
  }
}

TEST(Edge, TransientZeroSpanRejected) {
  circuit::Circuit c;
  c.add<circuit::Resistor>("R", c.node("a"), -1, 1.0);
  analysis::MnaSystem sys(c);
  analysis::TransientOptions to;
  to.tstart = 1.0;
  to.tstop = 1.0;
  to.dt = 0.1;
  EXPECT_THROW(analysis::runTransient(sys, RVec(1, 0.0), to),
               InvalidArgument);
}

TEST(Edge, SpectrumOfConstantSignal) {
  std::vector<Real> samples(64, 2.5);
  const auto sp = hb::transientSpectrum(samples, 1e3);
  EXPECT_NEAR(sp.amplitude[0], 2.5, 1e-9);
  for (std::size_t k = 2; k < sp.amplitude.size(); ++k)
    EXPECT_NEAR(sp.amplitude[k], 0.0, 1e-9);
}

TEST(Edge, LeastSquaresRankDeficientThrows) {
  RMat a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;  // columns parallel
  }
  EXPECT_THROW(numeric::leastSquares(a, RVec(4, 1.0)), NumericalError);
}

TEST(Edge, SquareWaveDutyCycleIsHalf) {
  circuit::SquareWave sq(0.0, 1.0, 1.0, 0.02);
  Real sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    sum += sq.value(static_cast<Real>(i) / n);
  EXPECT_NEAR(sum / n, 0.5, 1e-3);
}

TEST(Edge, SingularDenseLUThrowsNumericalError) {
  RMat a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;  // rank 1
  EXPECT_THROW(numeric::LU<Real>{a}, NumericalError);
}

TEST(Edge, SingularSparseSystemRejected) {
  sparse::RTriplets t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 1.0);  // rank 1
  EXPECT_THROW(sparse::RSymbolicLU{sparse::RCSR(t)}, NumericalError);
}

}  // namespace
}  // namespace rfic
