// Fill-reducing ordering (sparse/ordering.hpp) and the SymbolicLU analysis
// that consumes it.
//
// The contracts under test, in DESIGN.md §13 terms:
//  - amdOrder returns a valid permutation on arbitrary symmetrizable
//    patterns, deterministically;
//  - AMD-ordered factorizations solve the same systems as natural-ordered
//    ones (ordering changes fill and speed, never the answer);
//  - the flat-list analysis picks the same pivots as the one-shot SparseLU
//    and as the recorded reference counts (fill, program flops);
//  - the numeric-stability backstops (threshold repivot fallback, singular
//    rejection) behave identically under a pre-ordering.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "sparse/ordering.hpp"
#include "sparse/sparse_lu.hpp"
#include "sparse/sparse_matrix.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::sparse {
namespace {

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

/// k×k resistive grid with grounded diagonal — the structurally symmetric,
/// diagonally dominant pattern large MNA systems actually have.
RTriplets gridLaplacian(std::size_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> g(0.5, 1.5);
  const std::size_t n = k * k;
  RTriplets t(n, n);
  std::vector<Real> diag(n, 0.1);  // ground leak keeps it nonsingular
  const auto couple = [&](std::size_t a, std::size_t b) {
    const Real gv = g(rng);
    t.add(a, b, -gv);
    t.add(b, a, -gv);
    diag[a] += gv;
    diag[b] += gv;
  };
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t u0 = i * k + j;
      if (j + 1 < k) couple(u0, u0 + 1);
      if (i + 1 < k) couple(u0, u0 + k);
    }
  for (std::size_t i = 0; i < n; ++i) t.add(i, i, diag[i]);
  return t;
}

/// CSR stores size_t column indices; amdOrder takes the compact u32 form.
std::vector<std::uint32_t> narrowed(const std::vector<std::size_t>& v) {
  return std::vector<std::uint32_t>(v.begin(), v.end());
}

RVec randomVec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(-1, 1);
  RVec v(n);
  for (auto& x : v) x = u(rng);
  return v;
}

TEST(Ordering, ParseAndDefaults) {
  Ordering o = Ordering::Auto;
  EXPECT_TRUE(parseOrdering("natural", o));
  EXPECT_EQ(o, Ordering::Natural);
  EXPECT_TRUE(parseOrdering("amd", o));
  EXPECT_EQ(o, Ordering::Amd);
  EXPECT_FALSE(parseOrdering("auto", o));  // internal sentinel, not wire
  EXPECT_FALSE(parseOrdering("AMD", o));
  EXPECT_FALSE(parseOrdering("", o));
  EXPECT_EQ(o, Ordering::Amd);  // failed parses leave `out` untouched

  // Auto resolves through the innermost scoped override, then the default.
  EXPECT_EQ(resolveOrdering(Ordering::Natural), Ordering::Natural);
  const Ordering base = effectiveOrdering();
  {
    ScopedOrderingOverride ov(Ordering::Amd);
    EXPECT_EQ(effectiveOrdering(), Ordering::Amd);
    EXPECT_EQ(resolveOrdering(Ordering::Auto), Ordering::Amd);
    EXPECT_EQ(resolveOrdering(Ordering::Natural), Ordering::Natural);
    {
      ScopedOrderingOverride inner(Ordering::Natural);
      EXPECT_EQ(effectiveOrdering(), Ordering::Natural);
    }
    EXPECT_EQ(effectiveOrdering(), Ordering::Amd);
  }
  EXPECT_EQ(effectiveOrdering(), base);
}

TEST(Ordering, AmdOrderIsValidPermutationAndDeterministic) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const RCSR a(randomSparse(60, 0.08, seed, 3.0));
    const auto p1 = amdOrder(a.rows(), a.rowPtr(), narrowed(a.colIdx()));
    ASSERT_EQ(p1.size(), a.rows());
    std::vector<char> seen(a.rows(), 0);
    for (const std::uint32_t v : p1) {
      ASSERT_LT(v, a.rows());
      EXPECT_EQ(seen[v], 0) << "index " << v << " eliminated twice";
      seen[v] = 1;
    }
    const auto p2 = amdOrder(a.rows(), a.rowPtr(), narrowed(a.colIdx()));
    EXPECT_EQ(p1, p2);
  }
}

TEST(Ordering, AmdOrderHandlesEdgePatterns) {
  EXPECT_TRUE(amdOrder(0, {0}, {}).empty());
  // Diagonal-only (fully decoupled) pattern.
  const RCSR d(randomSparse(5, 0.0, 1, 1.0));
  EXPECT_EQ(amdOrder(5, d.rowPtr(), narrowed(d.colIdx())).size(), 5u);
}

TEST(SymbolicOrdering, AmdMatchesNaturalOnRandomSystems) {
  for (const std::uint64_t seed : {300u, 301u, 302u}) {
    const std::size_t n = 80;
    const RCSR a(randomSparse(n, 0.06, seed, 4.0));

    RSymbolicLU nat(a, {.ordering = Ordering::Natural});
    RSymbolicLU amd(a, {.ordering = Ordering::Amd});
    EXPECT_EQ(nat.orderingUsed(), Ordering::Natural);
    EXPECT_EQ(amd.orderingUsed(), Ordering::Amd);
    EXPECT_GE(amd.fillRatio(), 1.0);

    const RVec b = randomVec(n, seed + 5);
    const RVec xn = nat.solve(b);
    const RVec xa = amd.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xa[i], xn[i], 1e-9);

    // The one-shot factorizer runs the same pivot rules: under each
    // ordering it must find the same fill and the same solution up to the
    // summation order of the triangular solves.
    const auto expectAgrees = [&](const RSymbolicLU& sym, Ordering ord) {
      const RSparseLU one(a, {.ordering = ord});
      EXPECT_EQ(one.factorNnz(), sym.factorNnz()) << "seed " << seed;
      const RVec xs = sym.solve(b);
      const RVec xo = one.solve(b);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(xs[i], xo[i], 1e-12 * (1.0 + std::abs(xo[i])));
    };
    expectAgrees(nat, Ordering::Natural);
    expectAgrees(amd, Ordering::Amd);
  }
}

TEST(SymbolicOrdering, OffDiagonalPivotsMatchOneShot) {
  // Rotating the rows by one moves the dominant diagonal off the diagonal,
  // which forces the off-diagonal searches — Natural's full Markowitz
  // scan, AMD's shortest-row choice — where SparseLU is the independent
  // reference for the pivot rules.
  for (const std::uint64_t seed : {300u, 301u, 302u}) {
    const std::size_t n = 80;
    const RTriplets base = randomSparse(n, 0.06, seed, 4.0);
    RTriplets t(n, n);
    for (const auto& e : base.entries())
      t.add((e.row + 1) % n, e.col, e.value);
    const RCSR a(t);
    const RVec b = randomVec(n, seed + 5);
    // preferDiagonal off runs Natural's full Markowitz scan at every step.
    for (const auto& [ord, diag] : {std::pair{Ordering::Natural, true},
                                    std::pair{Ordering::Natural, false},
                                    std::pair{Ordering::Amd, true}}) {
      const RSymbolicLU sym(a, {.preferDiagonal = diag, .ordering = ord});
      const RSparseLU one(a, {.preferDiagonal = diag, .ordering = ord});
      EXPECT_EQ(sym.factorNnz(), one.factorNnz()) << "seed " << seed;
      const RVec x = sym.solve(b);
      RVec r(n);
      a.multiply(x, r);
      for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-9);
    }
  }
}

TEST(SymbolicOrdering, MeshFillAndFlopsPinned) {
  // Reference counts recorded from the hash-map analysis this one
  // replaced: same pivots means the same fill and the same update program.
  const RCSR a(gridLaplacian(24, 11));  // 576 nodes
  const RSymbolicLU nat(a, {.ordering = Ordering::Natural});
  EXPECT_EQ(nat.factorNnz(), 11824u);
  EXPECT_EQ(nat.programFlops(), 91324u);
  const RSymbolicLU amd(a, {.ordering = Ordering::Amd});
  EXPECT_EQ(amd.factorNnz(), 11312u);
  EXPECT_EQ(amd.programFlops(), 82678u);
}

TEST(SymbolicOrdering, AmdMatchesNaturalOnMesh) {
  const std::size_t k = 16;  // 256-node grid
  const RCSR a(gridLaplacian(k, 42));
  RSymbolicLU nat(a, {.ordering = Ordering::Natural});
  RSymbolicLU amd(a, {.ordering = Ordering::Amd});

  const RVec b = randomVec(k * k, 77);
  const RVec xn = nat.solve(b);
  const RVec xa = amd.solve(b);
  for (std::size_t i = 0; i < k * k; ++i)
    EXPECT_NEAR(xa[i], xn[i], 1e-9 * (1.0 + std::abs(xn[i])));

  // Residual check against the matrix itself (independent of pivot order).
  RVec r(k * k);
  a.multiply(xa, r);
  for (std::size_t i = 0; i < k * k; ++i) EXPECT_NEAR(r[i], b[i], 1e-9);
}

TEST(SparseLUOrdering, OneShotAmdMatchesNatural) {
  for (const std::uint64_t seed : {500u, 501u}) {
    const std::size_t n = 70;
    const auto t = randomSparse(n, 0.07, seed, 4.0);
    RSparseLU nat(t, {.ordering = Ordering::Natural});
    RSparseLU amd(t, {.ordering = Ordering::Amd});
    const RVec b = randomVec(n, seed + 9);
    const RVec xn = nat.solve(b);
    const RVec xa = amd.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xa[i], xn[i], 1e-9);
  }
}

TEST(SymbolicOrdering, RepivotFallbackUnderPermutation) {
  // Collapse a recorded pivot: the replay must detect it, abort without
  // dividing by the bad pivot, and fall back to a fresh full factorization
  // that keeps the AMD column sequence.
  const std::size_t k = 10;
  RCSR a(gridLaplacian(k, 21));
  const std::size_t n = k * k;

  RSymbolicLU lu(a, {.ordering = Ordering::Amd});

  RCSR bad = a;
  for (std::size_t p = bad.rowPtr()[0]; p < bad.rowPtr()[1]; ++p)
    if (bad.colIdx()[p] == 0) bad.values()[p] = 1e-30;  // kill diag (0,0)
  EXPECT_EQ(lu.refactor(bad.values()), diag::SolverStatus::Repivoted);
  EXPECT_TRUE(lu.analyzed());

  const RVec b = randomVec(n, 31);
  const RVec x = lu.solve(b);
  RVec r(n);
  bad.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-8);

  // Healthy values replay cheaply again on the repivoted program.
  EXPECT_EQ(lu.refactor(bad.values()), diag::SolverStatus::Converged);
}

TEST(SymbolicOrdering, SingularRejectionUnchangedUnderAmd) {
  RTriplets t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 2.0);
  const RCSR a(t);
  RSymbolicLU lu(a, {.ordering = Ordering::Amd});
  ASSERT_TRUE(lu.analyzed());

  const std::vector<Real> singular{1.0, 1.0, 1.0, 1.0};  // rank 1
  EXPECT_THROW(lu.refactor(singular), NumericalError);
  EXPECT_FALSE(lu.analyzed());

  // And a singular matrix is rejected up front, exactly as in natural order.
  RTriplets s(2, 2);
  s.add(0, 0, 1.0);
  s.add(0, 1, 1.0);
  s.add(1, 0, 1.0);
  s.add(1, 1, 1.0);
  EXPECT_THROW(RSymbolicLU(RCSR(s), {.ordering = Ordering::Amd}),
               NumericalError);
  EXPECT_THROW(RSparseLU(s, {.ordering = Ordering::Amd}), NumericalError);
}

}  // namespace
}  // namespace rfic::sparse
