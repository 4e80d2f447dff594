// Dense linear algebra: containers, LU, QR, SVD, eigenvalues.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "numeric/dense.hpp"
#include "numeric/eig.hpp"
#include "numeric/lu.hpp"
#include "numeric/qr.hpp"
#include "numeric/svd.hpp"

namespace rfic::numeric {
namespace {

RMat randomMatrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(-1.0, 1.0);
  RMat a(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) a(i, j) = u(rng);
  return a;
}

RVec randomVector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(-1.0, 1.0);
  RVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = u(rng);
  return v;
}

TEST(Vec, Arithmetic) {
  RVec a{1, 2, 3}, b{4, 5, 6};
  RVec c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 5);
  EXPECT_DOUBLE_EQ(c[2], 9);
  c -= a;
  EXPECT_DOUBLE_EQ(c[1], 5);
  c *= 2.0;
  EXPECT_DOUBLE_EQ(c[0], 8);
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2(RVec{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(normInf(RVec{-7, 2}), 7.0);
}

TEST(Vec, NormInfPropagatesNaN) {
  // A NaN anywhere makes the norm NaN: a std::max fold keeps the running
  // maximum over a NaN, so a poisoned vector used to measure as small.
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real inf = std::numeric_limits<Real>::infinity();
  for (const RVec& v : {RVec{nan, 1, 2}, RVec{1, nan, 2}, RVec{1, 2, nan},
                        RVec{nan}, RVec{inf, nan}})
    EXPECT_TRUE(std::isnan(normInf(v)));
  EXPECT_TRUE(std::isnan(normInf(CVec{{1, 0}, {0, nan}})));
  EXPECT_EQ(normInf(RVec{1, -inf, 2}), inf);
  EXPECT_EQ(normInf(RVec{inf, 3}), inf);
  EXPECT_EQ(normInf(RVec{-0.0, 0.0}), 0.0);
  EXPECT_EQ(normInf(RVec{}), 0.0);
  // Finite inputs: the same bits as the std::max fold.
  const RVec v = randomVector(257, 11);
  Real m = 0;
  for (std::size_t i = 0; i < v.size(); ++i) m = std::max(m, std::abs(v[i]));
  EXPECT_EQ(normInf(v), m);
}

TEST(Vec, SizeMismatchThrows) {
  RVec a{1, 2}, b{1, 2, 3};
  EXPECT_THROW(a += b, InvalidArgument);
  EXPECT_THROW(dot(a, b), InvalidArgument);
}

TEST(Vec, ComplexDotConjugatesFirstArgument) {
  CVec a{{0, 1}}, b{{0, 1}};
  EXPECT_NEAR(dot(a, b).real(), 1.0, 1e-15);   // conj(i)*i = 1
  EXPECT_NEAR(dotu(a, b).real(), -1.0, 1e-15); // i*i = -1
}

TEST(Mat, MatVecAndMatMul) {
  RMat a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  RVec x{1, 1, 1};
  RVec y = a * x;
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
  RMat at = a.transposed();
  RMat p = a * at;  // 2x2
  EXPECT_DOUBLE_EQ(p(0, 0), 14);
  EXPECT_DOUBLE_EQ(p(0, 1), 32);
  EXPECT_DOUBLE_EQ(p(1, 1), 77);
}

TEST(Mat, TransposeMatvecMatchesExplicit) {
  const RMat a = randomMatrix(7, 5, 11);
  const RVec x = randomVector(7, 12);
  const RVec y1 = transposeMatvec(a, x);
  const RVec y2 = a.transposed() * x;
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(Mat, IdentityActsTrivially) {
  const RMat i = RMat::identity(4);
  const RVec x = randomVector(4, 3);
  const RVec y = i * x;
  for (std::size_t k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(y[k], x[k]);
}

class LUSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LUSizes, SolveRandomSystem) {
  const std::size_t n = GetParam();
  RMat a = randomMatrix(n, n, 100 + n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;  // well-conditioned
  const RVec xref = randomVector(n, 200 + n);
  const RVec b = a * xref;
  const RVec x = solveDense(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-9);
}

TEST_P(LUSizes, TransposedSolve) {
  const std::size_t n = GetParam();
  RMat a = randomMatrix(n, n, 300 + n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;
  const RVec xref = randomVector(n, 400 + n);
  const RVec b = a.transposed() * xref;
  LU<Real> lu(a);
  const RVec x = lu.solveTransposed(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LUSizes,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 50));

TEST(LU, ComplexSolve) {
  CMat a(2, 2);
  a(0, 0) = {1, 1};
  a(0, 1) = {0, -1};
  a(1, 0) = {2, 0};
  a(1, 1) = {3, 1};
  CVec xref{{1, -1}, {2, 0.5}};
  const CVec b = a * xref;
  const CVec x = solveDense(a, b);
  EXPECT_NEAR(std::abs(x[0] - xref[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - xref[1]), 0.0, 1e-12);
}

TEST(LU, SingularThrows) {
  RMat a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(LU<Real>{a}, NumericalError);
}

TEST(LU, Determinant) {
  RMat a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 1;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_NEAR(LU<Real>(a).determinant(), 10.0, 1e-12);
}

TEST(LU, InverseReconstructs) {
  const std::size_t n = 8;
  RMat a = randomMatrix(n, n, 7);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;
  const RMat ia = inverse(a);
  const RMat prod = a * ia;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-10);
}

class QRSizes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(QRSizes, FactorsReconstructAndQOrthonormal) {
  const auto [m, n] = GetParam();
  const RMat a = randomMatrix(m, n, 31 + m * 7 + n);
  const ThinQR qr = thinQR(a);
  // A = QR
  const RMat rec = qr.q * qr.r;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(rec(i, j), a(i, j), 1e-12);
  // QᵀQ = I
  const RMat qtq = qr.q.transposed() * qr.q;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(qtq(i, j), i == j ? 1.0 : 0.0, 1e-12);
  // R upper triangular
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) EXPECT_NEAR(qr.r(i, j), 0.0, 1e-14);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QRSizes,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{4, 4},
                                           std::pair<std::size_t, std::size_t>{10, 4},
                                           std::pair<std::size_t, std::size_t>{30, 7},
                                           std::pair<std::size_t, std::size_t>{50, 1}));

TEST(QR, LeastSquaresRecoversPolynomialFit) {
  // Fit y = 2 + 3x on noisy-free samples: exact recovery.
  const std::size_t m = 20;
  RMat a(m, 2);
  RVec b(m);
  for (std::size_t i = 0; i < m; ++i) {
    const Real x = static_cast<Real>(i) * 0.1;
    a(i, 0) = 1.0;
    a(i, 1) = x;
    b[i] = 2.0 + 3.0 * x;
  }
  const RVec c = leastSquares(a, b);
  EXPECT_NEAR(c[0], 2.0, 1e-12);
  EXPECT_NEAR(c[1], 3.0, 1e-12);
}

TEST(QR, LeastSquaresMinimizesResidual) {
  const RMat a = randomMatrix(12, 3, 77);
  const RVec b = randomVector(12, 78);
  const RVec x = leastSquares(a, b);
  // Residual orthogonal to the column space.
  RVec r = a * x;
  r -= b;
  const RVec atr = transposeMatvec(a, r);
  EXPECT_LT(norm2(atr), 1e-10);
}

class SVDSizes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SVDSizes, ReconstructionAndOrthogonality) {
  const auto [m, n] = GetParam();
  const RMat a = randomMatrix(m, n, 55 + m + 3 * n);
  const SVD d = svd(a);
  const std::size_t k = std::min(m, n);
  ASSERT_EQ(d.s.size(), k);
  // Singular values non-increasing and non-negative.
  for (std::size_t i = 1; i < k; ++i) EXPECT_LE(d.s[i], d.s[i - 1] + 1e-14);
  EXPECT_GE(d.s[k - 1], -1e-14);
  // A = U S Vᵀ
  RMat us(m, k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) us(i, j) = d.u(i, j) * d.s[j];
  const RMat rec = us * d.v.transposed();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(rec(i, j), a(i, j), 1e-10);
  // UᵀU = I
  const RMat utu = d.u.transposed() * d.u;
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j)
      EXPECT_NEAR(utu(i, j), i == j ? 1.0 : 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SVDSizes,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{5, 5},
                                           std::pair<std::size_t, std::size_t>{12, 5},
                                           std::pair<std::size_t, std::size_t>{5, 12},
                                           std::pair<std::size_t, std::size_t>{1, 8}));

TEST(SVD, KnownSingularValuesOfDiagonal) {
  RMat a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = -2;  // singular value is |−2|
  a(2, 2) = 0.5;
  const SVD d = svd(a);
  EXPECT_NEAR(d.s[0], 3.0, 1e-12);
  EXPECT_NEAR(d.s[1], 2.0, 1e-12);
  EXPECT_NEAR(d.s[2], 0.5, 1e-12);
}

TEST(SVD, NumericalRankOfOuterProduct) {
  // Rank-2 matrix: a = u1 v1ᵀ + u2 v2ᵀ
  const RVec u1 = randomVector(9, 1), v1 = randomVector(6, 2);
  const RVec u2 = randomVector(9, 3), v2 = randomVector(6, 4);
  RMat a(9, 6);
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      a(i, j) = u1[i] * v1[j] + u2[i] * v2[j];
  const SVD d = svd(a);
  EXPECT_EQ(numericalRank(d, 1e-10), 2u);
}

TEST(Eig, KnownEigenvaluesOfTriangular) {
  RMat a(3, 3);
  a(0, 0) = 1;
  a(0, 1) = 5;
  a(1, 1) = -2;
  a(1, 2) = 1;
  a(2, 2) = 7;
  CVec e = eigenvalues(a);
  std::vector<Real> re;
  for (std::size_t i = 0; i < 3; ++i) re.push_back(e[i].real());
  std::sort(re.begin(), re.end());
  EXPECT_NEAR(re[0], -2.0, 1e-8);
  EXPECT_NEAR(re[1], 1.0, 1e-8);
  EXPECT_NEAR(re[2], 7.0, 1e-8);
}

TEST(Eig, RotationMatrixHasComplexPair) {
  // 2D rotation by θ: eigenvalues e^{±iθ}.
  const Real th = 0.7;
  RMat a(2, 2);
  a(0, 0) = std::cos(th);
  a(0, 1) = -std::sin(th);
  a(1, 0) = std::sin(th);
  a(1, 1) = std::cos(th);
  CVec e = eigenvalues(a);
  EXPECT_NEAR(std::abs(e[0]), 1.0, 1e-9);
  EXPECT_NEAR(std::abs(e[1]), 1.0, 1e-9);
  EXPECT_NEAR(std::abs(e[0].imag()), std::sin(th), 1e-9);
}

TEST(Eig, TraceAndDeterminantInvariants) {
  const std::size_t n = 10;
  RMat a = randomMatrix(n, n, 99);
  const CVec e = eigenvalues(a);
  Complex sum = 0, prod = 1;
  for (std::size_t i = 0; i < n; ++i) {
    sum += e[i];
    prod *= e[i];
  }
  Real tr = 0;
  for (std::size_t i = 0; i < n; ++i) tr += a(i, i);
  EXPECT_NEAR(sum.real(), tr, 1e-8);
  EXPECT_NEAR(sum.imag(), 0.0, 1e-8);
  EXPECT_NEAR(prod.real(), LU<Real>(a).determinant(), 1e-6);
}

TEST(Eig, EigenvectorNearRecoversEigenpair) {
  RMat a(3, 3);
  a(0, 0) = 2;
  a(1, 1) = 5;
  a(2, 2) = -1;
  a(0, 1) = 1;
  a(1, 2) = 1;
  const CVec v = eigenvectorNear(a, Complex(5.0, 0.0));
  // A v ≈ 5 v
  CVec av(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) av[i] += a(i, j) * v[j];
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(std::abs(av[i] - 5.0 * v[i]), 0.0, 1e-6);
}

TEST(Eig, LeftEigenvectorSatisfiesAdjointRelation) {
  RMat a(3, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 0.5;
  a(1, 1) = 3;
  a(2, 2) = -2;
  const CVec e = eigenvalues(a);
  // Pick the eigenvalue with largest magnitude.
  Complex lam = e[0];
  for (std::size_t i = 1; i < 3; ++i)
    if (std::abs(e[i]) > std::abs(lam)) lam = e[i];
  // The left eigenvector w (wᴴ A = λ wᴴ ⇔ Aᵀ w̄ = λ̄ w̄) is the right
  // eigenvector of Aᵀ near λ̄, conjugated — how Floquet gets the PPV from
  // the monodromy matrix.
  CVec w = eigenvectorNear(a.transposed(), std::conj(lam));
  for (auto& wi : w) wi = std::conj(wi);
  // Check ‖Aᵀw̄ − λ̄w̄‖ small.
  CVec atw(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) atw[j] += a(i, j) * std::conj(w[i]);
  Real err = 0;
  for (std::size_t j = 0; j < 3; ++j)
    err += std::abs(atw[j] - std::conj(lam) * std::conj(w[j]));
  EXPECT_LT(err, 1e-6);
}

}  // namespace
}  // namespace rfic::numeric
