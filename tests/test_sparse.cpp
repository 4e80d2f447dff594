// Sparse storage, sparse LU, and Krylov solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "diag/resilience.hpp"
#include "numeric/lu.hpp"
#include "perf/perf.hpp"
#include "sparse/krylov.hpp"
#include "sparse/ordering.hpp"
#include "sparse/sparse_matrix.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::sparse {
namespace {

using numeric::RMat;
using numeric::RVec;

RTriplets randomSparse(std::size_t n, Real density, std::uint64_t seed,
                       Real diagBoost) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(-1, 1);
  std::uniform_real_distribution<Real> coin(0, 1);
  RTriplets t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      if (coin(rng) < density) t.add(i, j, u(rng));
    t.add(i, i, diagBoost + u(rng));
  }
  return t;
}

RVec randomVec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(-1, 1);
  RVec v(n);
  for (auto& x : v) x = u(rng);
  return v;
}

TEST(Triplets, DuplicatesSumInCSRAndDense) {
  RTriplets t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.5);
  t.add(1, 0, -1.0);
  const RCSR a(t);
  EXPECT_EQ(a.nnz(), 2u);
  const RMat d = a.toDense();
  EXPECT_DOUBLE_EQ(d(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(d(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(t.toDense()(0, 0), 3.5);
}

TEST(Triplets, OutOfRangeThrows) {
  RTriplets t(2, 2);
  EXPECT_THROW(t.add(2, 0, 1.0), InvalidArgument);
}

TEST(CSR, MatVecMatchesDense) {
  const auto t = randomSparse(20, 0.2, 42, 2.0);
  const RCSR a(t);
  const RMat d = t.toDense();
  const RVec x = randomVec(20, 43);
  const RVec y1 = a * x;
  const RVec y2 = d * x;
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(CSR, TransposeMultiplyMatchesDense) {
  const auto t = randomSparse(15, 0.3, 44, 2.0);
  const RCSR a(t);
  const RVec x = randomVec(15, 45);
  const RVec y1 = a.transposeMultiply(x);
  const RVec y2 = numeric::transposeMatvec(t.toDense(), x);
  for (std::size_t i = 0; i < 15; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

class SparseLUCases
    : public ::testing::TestWithParam<std::tuple<std::size_t, Real>> {};

TEST_P(SparseLUCases, SolvesRandomSystems) {
  const auto [n, density] = GetParam();
  const auto t = randomSparse(n, density, 50 + n, 4.0);
  const RVec xref = randomVec(n, 60 + n);
  const RVec b = RCSR(t) * xref;
  const RSymbolicLU lu{RCSR(t)};
  const RVec x = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SparseLUCases,
    ::testing::Values(std::tuple<std::size_t, Real>{5, 0.5},
                      std::tuple<std::size_t, Real>{30, 0.15},
                      std::tuple<std::size_t, Real>{100, 0.05},
                      std::tuple<std::size_t, Real>{300, 0.02}));

TEST(SparseLU, MatchesDenseOnSmallSystem) {
  const auto t = randomSparse(12, 0.4, 70, 3.0);
  const RVec b = randomVec(12, 71);
  const RVec xs = RSymbolicLU(RCSR(t)).solve(b);
  const RVec xd = numeric::solveDense(t.toDense(), b);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(SparseLU, ComplexSystem) {
  const std::size_t n = 25;
  CTriplets t(n, n);
  std::mt19937_64 rng(80);
  std::uniform_real_distribution<Real> u(-1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, Complex(3.0 + u(rng), u(rng)));
    t.add(i, (i + 3) % n, Complex(u(rng), u(rng)));
  }
  numeric::CVec xref(n);
  for (auto& v : xref) v = Complex(u(rng), u(rng));
  const numeric::CVec b = CCSR(t) * xref;
  const numeric::CVec x = CSymbolicLU(CCSR(t)).solve(b);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(x[i] - xref[i]), 0.0, 1e-10);
}

TEST(SparseLU, SingularMatrixThrows) {
  RTriplets t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);  // row/col 2 empty
  EXPECT_THROW(RSymbolicLU{RCSR(t)}, NumericalError);
}

TEST(SparseLU, TridiagonalHasNoFill) {
  const std::size_t n = 50;
  RTriplets t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0);
    if (i + 1 < n) {
      t.add(i, i + 1, -1.0);
      t.add(i + 1, i, -1.0);
    }
  }
  const RSymbolicLU lu{RCSR(t)};
  // Perfect elimination order: factor nnz stays O(n).
  EXPECT_LE(lu.factorNnz(), 3 * n);
}

TEST(SparseLU, ArrowMatrixMarkowitzAvoidsFill) {
  // Arrow matrix: dense first row/col. Identity-order elimination fills
  // the whole matrix; the default AMD order must defer the hub and keep
  // the factor O(n).
  const std::size_t n = 60;
  RTriplets t(n, n);
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, 4.0);
  for (std::size_t i = 1; i < n; ++i) {
    t.add(0, i, 1.0);
    t.add(i, 0, 1.0);
  }
  const RSymbolicLU lu{RCSR(t)};
  EXPECT_LE(lu.factorNnz(), 4 * n);
  const RVec xref = randomVec(n, 90);
  const RVec b = RCSR(t) * xref;
  const RVec x = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-9);
}

TEST(SparseLU, ZeroDiagonalRequiresOffDiagonalPivot) {
  // [0 1; 1 0] — diagonal pivots impossible.
  RTriplets t(2, 2);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  const RSymbolicLU lu{RCSR(t)};
  RVec b{3.0, 5.0};
  const RVec x = lu.solve(b);
  EXPECT_NEAR(x[0], 5.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

// ------------------------------------------------------- Krylov solvers

TEST(GMRES, SolvesNonsymmetricSystem) {
  const std::size_t n = 80;
  const auto t = randomSparse(n, 0.08, 100, 5.0);
  const RCSR a(t);
  const RVec xref = randomVec(n, 101);
  const RVec b = a * xref;
  CSROperator<Real> op(a);
  RVec x(n);
  const auto st = gmres(op, b, x, {1e-12, 500, 60});
  EXPECT_TRUE(st.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-7);
}

TEST(GMRES, PreconditionerCutsIterations) {
  const std::size_t n = 120;
  RTriplets t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    // Widely varying diagonal — hard without, trivial with Jacobi.
    t.add(i, i, std::pow(10.0, static_cast<Real>(i % 7)));
    if (i + 1 < n) t.add(i, i + 1, 0.3);
  }
  const RCSR a(t);
  const RVec b = randomVec(n, 102);
  CSROperator<Real> op(a);
  RVec x1(n), x2(n);
  const auto plain = gmres(op, b, x1, {1e-10, 400, 50});
  JacobiPreconditioner<Real> prec(a);
  const auto precd = gmres(op, b, x2, &prec, {1e-10, 400, 50});
  EXPECT_TRUE(precd.converged);
  EXPECT_LT(precd.iterations, plain.iterations);
}

TEST(GMRES, ComplexSystem) {
  const std::size_t n = 40;
  CTriplets t(n, n);
  std::mt19937_64 rng(103);
  std::uniform_real_distribution<Real> u(-1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, Complex(4.0, 1.0 + u(rng)));
    t.add(i, (i + 1) % n, Complex(u(rng), u(rng)));
  }
  const CCSR a(t);
  numeric::CVec xref(n);
  for (auto& v : xref) v = Complex(u(rng), u(rng));
  const numeric::CVec b = a * xref;
  CSROperator<Complex> op(a);
  numeric::CVec x(n);
  const auto st = gmres(op, b, x, {1e-12, 400, 50});
  EXPECT_TRUE(st.converged);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(x[i] - xref[i]), 0.0, 1e-8);
}

TEST(GMRES, ZeroRhsReturnsZero) {
  const auto t = randomSparse(10, 0.3, 104, 3.0);
  const RCSR a(t);
  CSROperator<Real> op(a);
  RVec x = randomVec(10, 105);
  const auto st = gmres(op, RVec(10), x, IterativeOptions{});
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR(numeric::norm2(x), 0.0, 1e-300);
}

TEST(CG, SolvesSPDLaplacian) {
  const std::size_t n = 100;
  RTriplets t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0);
    if (i + 1 < n) {
      t.add(i, i + 1, -1.0);
      t.add(i + 1, i, -1.0);
    }
  }
  const RCSR a(t);
  const RVec xref = randomVec(n, 120);
  const RVec b = a * xref;
  CSROperator<Real> op(a);
  RVec x(n);
  const auto st = conjugateGradient(op, b, x, {1e-12, 2000, 0});
  EXPECT_TRUE(st.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-6);
}

TEST(SymbolicLU, RefactorMatchesFreshFactorization) {
  // The replay is the same arithmetic a fresh factorization with the same
  // pivot order performs, so solutions agree to roundoff on random patterns.
  for (const std::uint64_t seed : {200u, 201u, 202u}) {
    const std::size_t n = 40;
    const auto t = randomSparse(n, 0.12, seed, 4.0);
    RCSR a(t);
    RSymbolicLU lu(a);
    ASSERT_TRUE(lu.analyzed());

    // New values on the identical pattern: bounded perturbation that keeps
    // the diagonal dominant, so the recorded pivots stay acceptable.
    std::mt19937_64 rng(seed + 7);
    std::uniform_real_distribution<Real> u(0.7, 1.3);
    RCSR aNew = a;
    for (auto& v : aNew.values()) v *= u(rng);

    const auto st = lu.refactor(aNew.values());
    EXPECT_EQ(st, diag::SolverStatus::Converged);

    RSymbolicLU fresh(aNew);
    const RVec b = randomVec(n, seed + 13);
    const RVec xr = lu.solve(b);
    const RVec xf = fresh.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xr[i], xf[i], 1e-12);
    // Both are true solutions of aNew x = b.
    RVec r(n);
    aNew.multiply(xr, r);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-10);
  }
}

TEST(SymbolicLU, PivotGrowthTriggersRepivotFallback) {
  // Factor with a healthy diagonal, then hand refactor values whose
  // recorded pivot has collapsed: the replay must abort, refactor from
  // scratch with new pivots, report Repivoted — and still solve correctly.
  RTriplets t(3, 3);
  t.add(0, 0, 4.0);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 4.0);
  t.add(1, 2, 1.0);
  t.add(2, 1, 1.0);
  t.add(2, 2, 4.0);
  RCSR a(t);
  RSymbolicLU lu(a);

  RCSR bad = a;
  bad.values()[0] = 1e-30;  // a(0,0): below pivotFloor · max|A|
  const auto st = lu.refactor(bad.values());
  EXPECT_EQ(st, diag::SolverStatus::Repivoted);
  EXPECT_TRUE(lu.analyzed());

  const RVec b{1.0, 2.0, 3.0};
  const RVec x = lu.solve(b);
  RVec r(3);
  bad.multiply(x, r);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(r[i], b[i], 1e-10);

  // Healthy values afterwards replay cheaply again on the new pivot order.
  const auto st2 = lu.refactor(bad.values());
  EXPECT_EQ(st2, diag::SolverStatus::Converged);
}

TEST(SymbolicLU, SingularRefactorThrowsAndClearsAnalysis) {
  // If the repivot fallback itself hits a singular matrix, the factorization
  // must throw and report !analyzed() so callers route the next attempt to a
  // full factor() instead of replaying a half-built program.
  RTriplets t(2, 2);
  t.add(0, 0, 2.0);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 2.0);
  RCSR a(t);
  RSymbolicLU lu(a);
  ASSERT_TRUE(lu.analyzed());

  const std::vector<Real> singular{1.0, 1.0, 1.0, 1.0};  // rank 1
  EXPECT_THROW(lu.refactor(singular), NumericalError);
  EXPECT_FALSE(lu.analyzed());

  // Recovery: a full factor() restores a usable program.
  lu.factor(a);
  EXPECT_TRUE(lu.analyzed());
  const auto st = lu.refactor(a.values());
  EXPECT_EQ(st, diag::SolverStatus::Converged);
}

TEST(SymbolicLU, RefactorBeforeFactorThrows) {
  RSymbolicLU lu;
  EXPECT_THROW(lu.refactor(std::vector<Real>{1.0}), InvalidArgument);
}

// ------------------------------------------------------------ refactor skip

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

template <class T>
bool sameBits(const Vec<T>& a, const Vec<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <class T>
T randomValue(std::mt19937_64& rng) {
  std::uniform_real_distribution<Real> u(-1, 1);
  if constexpr (std::is_same_v<T, Complex>) {
    const Real re = u(rng);
    return Complex(re, u(rng));
  } else {
    return u(rng);
  }
}

// Diagonally dominant random pattern, each position stored once; about a
// quarter of the off-diagonal entries hold an exact zero of either sign, so
// the elimination meets zero multipliers and signed-zero targets.
template <class T>
CSR<T> randomWithZeros(std::size_t n, Real density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> coin(0, 1);
  Triplets<T> t(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        t.add(i, i, T(Real(6)) + randomValue<T>(rng));
      } else if (coin(rng) < density) {
        const Real z = coin(rng);
        t.add(i, j, z < 0.125 ? T(-0.0) : z < 0.25 ? T(0.0) : randomValue<T>(rng));
      }
    }
  return CSR<T>(t);
}

// Solves that read every factor entry, on random right-hand sides and on
// ones made of signed zeros (where a flipped zero sign in the factors shows).
template <class T>
std::vector<Vec<T>> probeRhs(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Vec<T>> out(3, Vec<T>(n));
  for (std::size_t i = 0; i < n; ++i) {
    out[0][i] = randomValue<T>(rng);
    out[1][i] = T(-0.0);
    out[2][i] = i % 3 == 0 ? randomValue<T>(rng) : T(-0.0);
  }
  return out;
}

// The skip is exact only if a skipped refactor(V) leaves the factors a
// replay of V computes: `skipped` keeps the analysis factors of V, `twin`
// replays V after refactoring W in between. Their solves must agree bit
// for bit.
template <class T>
void expectSkipMatchesReplay(const CSR<T>& a, const std::vector<T>& w,
                             std::uint64_t seed) {
  SymbolicLU<T> skipped(a);
  const perf::Snapshot skip = countedBy([&] {
    EXPECT_EQ(skipped.refactor(a.values()), diag::SolverStatus::Converged);
  });
  EXPECT_EQ(skip.refactorSkips, 1u);
  EXPECT_EQ(skip.refactorizations, 0u);

  SymbolicLU<T> twin(a);
  const perf::Snapshot replay = countedBy([&] {
    EXPECT_EQ(twin.refactor(w), diag::SolverStatus::Converged);
    EXPECT_EQ(twin.refactor(a.values()), diag::SolverStatus::Converged);
  });
  EXPECT_EQ(replay.refactorizations, 2u);
  EXPECT_EQ(replay.refactorSkips, 0u);
  EXPECT_EQ(replay.factorizations, 0u);

  for (const Vec<T>& b : probeRhs<T>(a.rows(), seed)) {
    EXPECT_TRUE(sameBits(skipped.solve(b), twin.solve(b)));
    EXPECT_TRUE(sameBits(skipped.solveTransposed(b), twin.solveTransposed(b)));
  }
}

template <class T>
void expectSkipMatchesReplayOnRandom(std::uint64_t seed) {
  const std::size_t n = 30 + seed % 11;
  const CSR<T> a = randomWithZeros<T>(n, 0.15, seed);
  std::mt19937_64 rng(seed + 1);
  std::uniform_real_distribution<Real> scale(0.8, 1.25);
  std::vector<T> w = a.values();
  for (T& v : w) v *= scale(rng);
  expectSkipMatchesReplay(a, w, seed + 2);
}

TEST(RefactorSkip, SkipMatchesReplayBitwiseReal) {
  for (std::uint64_t seed = 900; seed < 912; ++seed) {
    SCOPED_TRACE(seed);
    expectSkipMatchesReplayOnRandom<Real>(seed);
  }
}

TEST(RefactorSkip, SkipMatchesReplayBitwiseComplex) {
  for (std::uint64_t seed = 950; seed < 962; ++seed) {
    SCOPED_TRACE(seed);
    expectSkipMatchesReplayOnRandom<Complex>(seed);
  }
}

TEST(RefactorSkip, ExactZeroMultiplierMatchesReplay) {
  // Column 0 stores an exact zero below its pivot, so step 0 has a zero
  // multiplier for row 1, whose target (1,2) holds -0.0 and whose update
  // source u(0,2) is -1. Subtracting 0·(-1) = -0.0 would turn the target
  // into +0.0; replay() skips the row and keeps -0.0. An all -0.0 right-hand
  // side carries that sign into x(1).
  const ScopedOrderingOverride natural(Ordering::Natural);
  RTriplets t(3, 3);
  t.add(0, 0, 2.0);
  t.add(0, 2, -1.0);
  t.add(1, 0, 0.0);
  t.add(1, 1, 3.0);
  t.add(1, 2, -0.0);
  t.add(2, 0, 1.0);
  t.add(2, 2, 4.0);
  const RCSR a(t);
  ASSERT_TRUE(std::signbit(a.values()[4]));  // (1,2) kept its -0.0
  std::vector<Real> w = a.values();
  for (Real& v : w) v *= 1.5;
  expectSkipMatchesReplay(a, w, 7);
}

TEST(RefactorSkip, InvalidatedByRepivotThrowAndFactor) {
  RTriplets t(3, 3);
  t.add(0, 0, 4.0);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 4.0);
  t.add(1, 2, 1.0);
  t.add(2, 1, 1.0);
  t.add(2, 2, 4.0);
  const RCSR a(t);
  RSymbolicLU lu(a);
  const auto refactorCounts = [&](const std::vector<Real>& v) {
    return countedBy([&] { (void)lu.refactor(v); });
  };
  EXPECT_EQ(refactorCounts(a.values()).refactorSkips, 1u);

  // The value count is checked before the comparison.
  EXPECT_THROW(lu.refactor(std::vector<Real>(a.nnz() + 1, 1.0)),
               InvalidArgument);

  // A Repivoted fallback's fresh pivots have not passed the replay guards:
  // the same values replay once more before they skip.
  std::vector<Real> bad = a.values();
  bad[0] = 1e-30;
  const perf::Snapshot repivot = refactorCounts(bad);
  EXPECT_EQ(repivot.factorizations, 1u);
  EXPECT_EQ(repivot.refactorSkips, 0u);
  const perf::Snapshot again = refactorCounts(bad);
  EXPECT_EQ(again.refactorizations, 1u);
  EXPECT_EQ(again.refactorSkips, 0u);
  EXPECT_EQ(refactorCounts(bad).refactorSkips, 1u);

  // The factor-repivot fault point fires ahead of the comparison.
  {
    diag::FaultInjector::global().reset();
    diag::FaultInjector::global().arm(diag::FaultPoint::FactorRepivot, 1);
    const perf::Snapshot forced = refactorCounts(bad);
    diag::FaultInjector::global().reset();
    EXPECT_EQ(forced.factorizations, 1u);
    EXPECT_EQ(forced.refactorSkips, 0u);
  }
  EXPECT_EQ(refactorCounts(bad).refactorizations, 1u);

  // A throwing factorization leaves nothing to skip to: after a fresh
  // factor() of other values, the old values replay.
  const std::vector<Real> singular(a.nnz(), 0.0);
  EXPECT_THROW(lu.refactor(singular), NumericalError);
  EXPECT_FALSE(lu.analyzed());
  RCSR a2 = a;
  for (Real& v : a2.values()) v *= 2.0;
  lu.factor(a2);
  const perf::Snapshot after = refactorCounts(bad);
  EXPECT_EQ(after.refactorSkips, 0u);
  EXPECT_EQ(after.refactorizations + after.factorizations, 1u);
}

// ------------------------------------------------------------- row replay

// Unsymmetric random matrix whose rows are rotated by one: the strong
// entries sit just off the diagonal, so the threshold search picks
// off-diagonal pivots. About a quarter of the off-diagonal entries hold an
// exact zero of either sign.
template <class T>
CSR<T> rotatedWithZeros(std::size_t n, Real density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> coin(0, 1);
  Triplets<T> t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = (i + 1) % n;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        t.add(row, j, T(Real(6)) + randomValue<T>(rng));
      } else if (coin(rng) < density) {
        const Real z = coin(rng);
        t.add(row, j,
              z < 0.125 ? T(-0.0) : z < 0.25 ? T(0.0) : randomValue<T>(rng));
      }
    }
  }
  return CSR<T>(t);
}

// refactor(V') replays the pivots chosen for V; a fresh factor(V') picks
// its own. When the two agree on the pivots, the replay must reproduce the
// fresh factors bit for bit — every entry takes the same updates in the
// same order — which the solves (reading every factor entry, signed zeros
// included) show. V' scales each column of V by its own factor: the pivot
// search compares magnitudes within a column, so it keeps its choices,
// while every factor entry is rounded anew.
template <class T>
void expectReplayMatchesFresh(std::uint64_t seed, Ordering ord) {
  const std::size_t n = 25 + seed % 17;
  const CSR<T> a = rotatedWithZeros<T>(n, 0.15, seed);
  std::mt19937_64 rng(seed + 1);
  std::uniform_real_distribution<Real> scale(0.8, 1.25);
  std::vector<Real> colScale(n);
  for (Real& c : colScale) c = scale(rng);
  CSR<T> next = a;
  for (std::size_t p = 0; p < next.nnz(); ++p)
    next.values()[p] *= colScale[next.colIdx()[p]];

  const typename SymbolicLU<T>::Options opts{.ordering = ord};
  SymbolicLU<T> replayed(a, opts);
  if (ord == Ordering::Natural) {  // step k eliminates column k
    std::size_t offDiagonal = 0;
    for (std::size_t k = 0; k < n; ++k)
      offDiagonal += replayed.pivotRows()[k] != k;
    EXPECT_GT(offDiagonal, n / 2);
  }
  const perf::Snapshot c = countedBy([&] {
    EXPECT_EQ(replayed.refactor(next.values()), diag::SolverStatus::Converged);
  });
  ASSERT_EQ(c.refactorizations, 1u);
  const SymbolicLU<T> fresh(next, opts);
  ASSERT_EQ(replayed.pivotRows(), fresh.pivotRows());
  for (const Vec<T>& b : probeRhs<T>(n, seed + 2)) {
    EXPECT_TRUE(sameBits(replayed.solve(b), fresh.solve(b)));
    EXPECT_TRUE(
        sameBits(replayed.solveTransposed(b), fresh.solveTransposed(b)));
  }
}

TEST(RowReplay, MatchesFreshFactorBitwiseReal) {
  for (const Ordering ord : {Ordering::Natural, Ordering::Amd})
    for (std::uint64_t seed = 1000; seed < 1012; ++seed) {
      SCOPED_TRACE(seed);
      expectReplayMatchesFresh<Real>(seed, ord);
    }
}

TEST(RowReplay, MatchesFreshFactorBitwiseComplex) {
  for (const Ordering ord : {Ordering::Natural, Ordering::Amd})
    for (std::uint64_t seed = 1050; seed < 1062; ++seed) {
      SCOPED_TRACE(seed);
      expectReplayMatchesFresh<Complex>(seed, ord);
    }
}

TEST(RowReplay, ReplayAfterAbortMatchesTwin) {
  // With pivotFloor 0.5, a replay aborts at the first pivot below half of
  // max|A|. `bad` shrinks the diagonal of row 20 of 40, so its replay
  // stops there, after rows 0-19 and the L part of row 20 have run; the
  // Repivoted analysis keeps the same (diagonal) pivots. The next replay
  // must then give the bits of a twin that analysed `bad` and replays the
  // same values with no aborted replay behind it.
  const ScopedOrderingOverride natural(Ordering::Natural);
  const std::size_t n = 40;
  const RCSR a(randomSparse(n, 0.12, 77, 10.0));
  const RSymbolicLU::Options opts{.pivotFloor = 0.5};
  std::vector<Real> bad = a.values(), good = a.values();
  for (std::size_t p = a.rowPtr()[20]; p < a.rowPtr()[21]; ++p)
    if (a.colIdx()[p] == 20) bad[p] = 1.0;
  std::mt19937_64 rng(78);
  std::uniform_real_distribution<Real> scale(0.95, 1.05);
  for (Real& v : good) v *= scale(rng);

  RSymbolicLU lu(a, opts);
  const perf::Snapshot aborted = countedBy([&] {
    EXPECT_EQ(lu.refactor(bad), diag::SolverStatus::Repivoted);
  });
  EXPECT_EQ(aborted.factorizations, 1u);
  EXPECT_EQ(lu.refactor(good), diag::SolverStatus::Converged);

  RSymbolicLU twin(RCSR(a, bad), opts);
  EXPECT_EQ(twin.refactor(good), diag::SolverStatus::Converged);
  ASSERT_EQ(lu.pivotRows(), twin.pivotRows());
  for (const RVec& b : probeRhs<Real>(n, 79)) {
    EXPECT_TRUE(sameBits(lu.solve(b), twin.solve(b)));
    EXPECT_TRUE(sameBits(lu.solveTransposed(b), twin.solveTransposed(b)));
  }
}

TEST(RowReplay, AnalysisChargesStoredBytesGrowOnly) {
  // The analysis charges the stored factorization, O(factor nnz + n), to
  // the thread's memory account once per growth; replays and re-analyses
  // that fit in what was charged add nothing.
  const RCSR a(randomSparse(60, 0.08, 81, 6.0));
  diag::MemAccount account;
  RSymbolicLU lu;
  {
    const diag::MemScope scope(account);
    lu.factor(a);
    EXPECT_EQ(account.currentBytes(), lu.storedBytes());
    std::vector<Real> v = a.values();
    for (Real& x : v) x *= 1.1;
    EXPECT_EQ(lu.refactor(v), diag::SolverStatus::Converged);
    lu.factor(a);
  }
  EXPECT_EQ(account.peakBytes(), lu.storedBytes());
  const std::size_t minimum =
      lu.factorNnz() * sizeof(Real) + a.nnz() * (sizeof(Real) + 4);
  EXPECT_GE(lu.storedBytes(), minimum);
  EXPECT_LT(lu.storedBytes(), 4 * minimum);
}

// --------------------------------------------------------- replay guards

// Values where a complex magnitude's cheap bounds and its hypot can part
// ways: NaN and ±inf in either part, sums that overflow while the hypot
// does not (and the other way round), subnormals, signed zeros, near-ties.
std::vector<Complex> awkwardComplexValues(std::uint64_t seed, std::size_t n) {
  constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();
  constexpr Real kInf = std::numeric_limits<Real>::infinity();
  constexpr Real kMax = std::numeric_limits<Real>::max();
  constexpr Real kDen = std::numeric_limits<Real>::denorm_min();
  static const Real kParts[] = {0.0,  -0.0, kNaN,   -kNaN, kInf, -kInf,
                                kMax, 1e308, 1.5e308, 1.3e308, kDen,
                                3 * kDen, 1e-300, 1.0, 0.7, 1e-12};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(-1, 1), e(-300, 300);
  std::vector<Complex> out(n);
  for (Complex& z : out) {
    const auto part = [&] {
      return rng() % 3 == 0 ? kParts[rng() % std::size(kParts)]
                            : u(rng) * std::pow(10.0, e(rng));
    };
    const Real re = part();
    z = Complex(re, rng() % 5 == 0 ? re : part());
  }
  return out;
}

TEST(ReplayGuards, ComplexMaxMagnitudeIsTheExactFold) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    const std::size_t n = seed % 40;
    std::vector<Complex> v = awkwardComplexValues(seed, n);
    if (seed % 2 == 0)  // mostly ordinary values, a few awkward ones
      for (std::size_t p = 0; p < n; ++p)
        if (p % 7 != 0) v[p] = Complex(1 + 0.01 * Real(p), -0.5);
    Real fold = 0;
    for (const Complex& z : v) fold = std::max(fold, std::abs(z));
    const Real got = detail::maxMagnitude(v.data(), v.size());
    ASSERT_EQ(std::memcmp(&got, &fold, sizeof(Real)), 0)
        << "seed " << seed << ": " << got << " vs " << fold;
    ++compared;
  }
  EXPECT_EQ(compared, 3000u);
  // The cases by name: an infinite part makes |z| infinite even beside a
  // NaN; two parts of 1.5e308 overflow the hypot, two of 1e308 do not.
  constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();
  constexpr Real kInf = std::numeric_limits<Real>::infinity();
  const std::vector<std::pair<std::vector<Complex>, Real>> named = {
      {{{kInf, kNaN}, {1, 0}}, kInf},
      {{{kNaN, -kInf}, {1, 0}}, kInf},
      {{{kNaN, 1}, {0.5, 0}}, 0.5},
      {{{1.5e308, 1.5e308}, {1, 0}}, kInf},
      {{{1e308, 1e308}, {1e308, 0}}, std::hypot(1e308, 1e308)},
      {{{-0.0, -0.0}}, 0.0},
      {{}, 0.0}};
  for (const auto& [v, want] : named)
    EXPECT_EQ(detail::maxMagnitude(v.data(), v.size()), want);
}

TEST(ReplayGuards, ComplexMagnitudeAboveMatchesAbs) {
  constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();
  constexpr Real kInf = std::numeric_limits<Real>::infinity();
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed)
    for (const Complex& z : awkwardComplexValues(seed + 5000, 50)) {
      const Real mag = std::abs(z);
      for (const Real bound :
           {0.0, -1.0, 1e-300, 1.0, 1e10, 1e308, kInf, kNaN, mag,
            std::nextafter(mag, 0.0), std::nextafter(mag, kInf), 0.7 * mag,
            1.001 * mag, 0.99 * mag, 1.01 * mag}) {
        ASSERT_EQ(detail::magnitudeAbove(z, bound), mag > bound)
            << z << " bound " << bound;
        ++compared;
      }
    }
  EXPECT_EQ(compared, 150000u);
}

TEST(ReplayGuards, RealGuardsAreAbs) {
  constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();
  const std::vector<Real> v = {-3.0, kNaN, 2.0, -0.0, 1.0};
  EXPECT_EQ(detail::maxMagnitude(v.data(), v.size()), 3.0);
  EXPECT_TRUE(detail::magnitudeAbove(-3.0, 2.0));
  EXPECT_FALSE(detail::magnitudeAbove(kNaN, 2.0));
}

TEST(Krylov, MatrixFreeOperatorWorks) {
  // Operator defined purely as a function: scaled shift  y = 2x + S x.
  const std::size_t n = 30;
  FunctionOperator<Real> op(n, [n](const RVec& x, RVec& y) {
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      y[i] = 2.0 * x[i] + (i + 1 < n ? 0.5 * x[i + 1] : 0.0);
  });
  const RVec b = randomVec(n, 130);
  RVec x(n);
  const auto st = gmres(op, b, x, {1e-12, 200, 40});
  EXPECT_TRUE(st.converged);
  RVec y(n);
  op.apply(x, y);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], b[i], 1e-9);
}

}  // namespace
}  // namespace rfic::sparse
