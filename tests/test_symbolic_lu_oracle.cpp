// Differential test of SymbolicLU's analysis against a right-looking
// reference: the elimination over the active submatrix that picks the same
// pivots by the same rule. The analysis must reproduce it bit for bit —
// pivots, L and U with their indices, values and stored order, the
// row-wise L index, factorNnz(), programFlops() and whether it throws — on
// a seeded corpus of random matrices (real and complex, AMD and natural
// order, three pivot thresholds, zero diagonals, signed zeros, NaN and
// infinite entries, symmetric and unsymmetric patterns) and on the MNA
// Jacobians of an RC mesh with its source and of a mesh with 0 V ammeter
// branches.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "circuit/mna_workspace.hpp"
#include "circuit/netlist.hpp"
#include "sparse/ordering.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::sparse {

/// Everything an analysis stores, in stored order.
template <class T>
struct Factors {
  std::vector<std::uint32_t> pivRow, pivCol;
  std::vector<T> pivVal;
  std::vector<std::size_t> lPtr, uPtr;
  std::vector<std::uint32_t> lRow, uCol;
  std::vector<T> lVal, uVal;
  std::vector<std::size_t> rowLPtr;
  std::vector<std::uint32_t> rowL;  ///< (col, step, l) triples, flattened
};

struct SymbolicLUTestPeer {
  template <class T>
  static Factors<T> read(const SymbolicLU<T>& lu) {
    Factors<T> f{lu.pivRow_, lu.pivCol_, lu.pivVal_, lu.lPtr_, lu.uPtr_,
                 lu.lRow_,   lu.uCol_,   lu.lVal_,   lu.uVal_, lu.rowLPtr_,
                 {}};
    for (const auto& e : lu.rowL_) f.rowL.insert(f.rowL.end(), {e.col, e.step, e.l});
    return f;
  }
  /// Whether a replay of `vals` keeps the recorded pivots.
  template <class T>
  static bool replays(SymbolicLU<T>& lu, const std::vector<T>& vals) {
    return lu.replay(vals.data());
  }
  template <class T>
  static const std::vector<std::uint32_t>& columnOrder(const SymbolicLU<T>& lu) {
    return lu.colOrder_;
  }
};

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

struct SearchTally {
  std::size_t rowSearches = 0;  ///< steps where the diagonal failed
  std::size_t rowCounts = 0;    ///< row lengths the search compared
  /// Steps a column takes through the supernode path (step j joins j-1,
  /// and the column took j-1 too), those in complex matrices, and the
  /// columns whose run of a supernode starts after its first step.
  std::size_t supernodeSteps = 0;
  std::size_t complexSupernodeSteps = 0;
  std::size_t midSupernodeStarts = 0;
};

/// The supernode path's work, counted from the factors alone: step j joins
/// j-1 when U(j-1) holds column pivCol[j] and |L(j)| + 1 = |L(j-1)|, and
/// column c takes j through the path when U(j) and U(j-1) both hold c.
template <class T>
typename SymbolicLU<T>::SupernodeWork supernodeWork(const Factors<T>& f,
                                                    std::size_t& midStarts) {
  const std::size_t n = f.pivCol.size();
  std::vector<std::vector<std::uint32_t>> cols(n);
  for (std::size_t j = 0; j < n; ++j) {
    cols[j].assign(f.uCol.begin() + static_cast<std::ptrdiff_t>(f.uPtr[j]),
                   f.uCol.begin() + static_cast<std::ptrdiff_t>(f.uPtr[j + 1]));
    std::sort(cols[j].begin(), cols[j].end());
  }
  const auto holds = [&](std::size_t j, std::uint32_t c) {
    return std::binary_search(cols[j].begin(), cols[j].end(), c);
  };
  typename SymbolicLU<T>::SupernodeWork work;
  for (std::size_t j = 1; j < n; ++j) {
    const std::size_t lj = f.lPtr[j + 1] - f.lPtr[j];
    if (!holds(j - 1, f.pivCol[j]) || lj + 1 != f.lPtr[j] - f.lPtr[j - 1])
      continue;
    for (const std::uint32_t c : cols[j]) {
      if (holds(j - 1, c)) {
        ++work.steps;
        work.flops += lj;
      } else {
        ++midStarts;
      }
    }
  }
  return work;
}

/// The right-looking reference: flat per-row and per-column (index, slot)
/// lists of the active submatrix over a slot workspace. Slots [0, nnz) are
/// the input CSR positions in order; fill-in appends. Step k eliminates
/// column colOrder[k]: the diagonal if it is in the active column, nonzero
/// and ≥ threshold·(max over the live column), else the shortest active
/// row among the entries ≥ that tolerance (its length counted with its
/// entry in the pivot column), ties to the larger magnitude, then to the
/// first in column order.
template <class T>
Factors<T> rightLooking(const CSR<T>& a,
                        const std::vector<std::uint32_t>& colOrder,
                        Real threshold, SearchTally& tally) {
  struct Entry {
    std::uint32_t idx;
    std::uint32_t slot;
  };
  const std::size_t n = a.rows();
  const auto& rowPtr = a.rowPtr();
  const auto& colIdx = a.colIdx();
  std::vector<std::vector<Entry>> rows(n), cols(n);
  std::vector<std::size_t> colLen(n, 0);
  std::vector<std::uint32_t> diagSlot(n, kNone), pos(n, kNone);
  std::vector<T> w(a.values().begin(), a.values().end());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p) {
      const auto c = static_cast<std::uint32_t>(colIdx[p]);
      const auto slot = static_cast<std::uint32_t>(p);
      RFIC_REQUIRE(pos[c] == kNone, "SymbolicLU: duplicate position in CSR");
      pos[c] = slot;
      rows[r].push_back({c, slot});
      cols[c].push_back({static_cast<std::uint32_t>(r), slot});
      ++colLen[c];
      if (c == r) diagSlot[r] = slot;
    }
    for (const Entry& e : rows[r]) pos[e.idx] = kNone;
  }

  Factors<T> f;
  std::vector<char> rowActive(n, 1);
  f.pivRow.resize(n);
  f.pivCol.resize(n);
  f.pivVal.resize(n);
  f.lPtr.assign(n + 1, 0);
  f.uPtr.assign(n + 1, 0);
  const auto liveCol = [&](std::size_t c) -> const std::vector<Entry>& {
    auto& col = cols[c];
    if (col.size() != colLen[c])
      std::erase_if(col, [&](const Entry& e) { return !rowActive[e.idx]; });
    return col;
  };
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t pc = colOrder[k];
    Real cmax = 0;
    for (const Entry& e : liveCol(pc)) cmax = std::max(cmax, std::abs(w[e.slot]));
    std::size_t pr = n;
    std::uint32_t pivSlot = kNone;
    if (cmax > 0) {
      const Real tol = threshold * cmax;
      if (rowActive[pc] && diagSlot[pc] != kNone) {
        const Real mag = std::abs(w[diagSlot[pc]]);
        if (mag > 0 && mag >= tol) {
          pr = pc;
          pivSlot = diagSlot[pc];
        }
      }
      if (pr == n) {
        ++tally.rowSearches;
        std::size_t bestLen = std::numeric_limits<std::size_t>::max();
        Real bestMag = 0;
        for (const Entry& e : liveCol(pc)) {
          const Real mag = std::abs(w[e.slot]);
          if (mag < tol) continue;
          ++tally.rowCounts;
          const std::size_t len = rows[e.idx].size();
          if (len < bestLen || (len == bestLen && mag > bestMag)) {
            pr = e.idx;
            pivSlot = e.slot;
            bestLen = len;
            bestMag = mag;
          }
        }
      }
    }
    if (pr == n) failNumerical("SymbolicLU: matrix is singular");

    const T p = w[pivSlot];
    f.pivRow[k] = static_cast<std::uint32_t>(pr);
    f.pivCol[k] = static_cast<std::uint32_t>(pc);
    f.pivVal[k] = p;
    rowActive[pr] = 0;
    for (const Entry& e : rows[pr]) {
      if (e.idx == pc) continue;
      --colLen[e.idx];
      f.uCol.push_back(e.idx);
      f.uVal.push_back(w[e.slot]);
    }
    f.uPtr[k + 1] = f.uVal.size();
    const std::size_t u0 = f.uPtr[k], u1 = f.uPtr[k + 1];
    for (const Entry& e : cols[pc]) {
      const std::size_t i = e.idx;
      if (!rowActive[i]) continue;
      const T m = w[e.slot] / p;
      const bool live = m != T{};
      f.lRow.push_back(e.idx);
      f.lVal.push_back(m);
      auto& row = rows[i];
      std::erase_if(row, [&](const Entry& g) { return g.idx == pc; });
      for (const Entry& g : row) pos[g.idx] = g.slot;
      for (std::size_t q = u0; q < u1; ++q) {
        const std::uint32_t c = f.uCol[q];
        std::uint32_t& s = pos[c];
        if (s == kNone) {
          s = static_cast<std::uint32_t>(w.size());
          if (c == i) diagSlot[i] = s;
          w.push_back(T{});
          row.push_back({c, s});
          cols[c].push_back({static_cast<std::uint32_t>(i), s});
          ++colLen[c];
        }
        if (live) w[s] -= m * f.uVal[q];
      }
      for (const Entry& g : row) pos[g.idx] = kNone;
    }
    f.lPtr[k + 1] = f.lVal.size();
    cols[pc] = {};
    rows[pr] = {};
  }

  std::vector<std::uint32_t> stepOfRow(n);
  for (std::size_t k = 0; k < n; ++k)
    stepOfRow[f.pivRow[k]] = static_cast<std::uint32_t>(k);
  f.rowLPtr.assign(n + 1, 0);
  for (const std::uint32_t r : f.lRow) ++f.rowLPtr[stepOfRow[r] + 1];
  for (std::size_t s = 0; s < n; ++s) f.rowLPtr[s + 1] += f.rowLPtr[s];
  std::vector<std::array<std::uint32_t, 3>> rowL(f.lRow.size());
  std::vector<std::size_t> next(f.rowLPtr.begin(), f.rowLPtr.end() - 1);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t li = f.lPtr[k]; li < f.lPtr[k + 1]; ++li)
      rowL[next[stepOfRow[f.lRow[li]]]++] = {
          f.pivCol[k], static_cast<std::uint32_t>(k),
          static_cast<std::uint32_t>(li)};
  for (const auto& e : rowL) f.rowL.insert(f.rowL.end(), e.begin(), e.end());
  return f;
}

template <class T>
bool sameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Factor `a` both ways; returns false (with a gtest failure) on the first
/// difference. Counts the reference's row searches into `tally`.
template <class T>
bool expectSameAnalysis(const CSR<T>& a, Ordering ord, Real threshold,
                        SearchTally& tally) {
  const typename SymbolicLU<T>::Options opts{.pivotThreshold = threshold,
                                             .ordering = ord};
  SymbolicLU<T> lu;
  std::string luError = "none";
  try {
    lu.factor(a, opts);
  } catch (const std::exception& e) {
    luError = e.what();
  }
  // The column order is a pattern property, computed before any pivot.
  const std::vector<std::uint32_t> order =
      ord == Ordering::Amd
          ? amdOrder(a.rows(), a.rowPtr(),
                     std::vector<std::uint32_t>(a.colIdx().begin(),
                                                a.colIdx().end()))
          : [&] {
              std::vector<std::uint32_t> id(a.rows());
              for (std::size_t i = 0; i < id.size(); ++i)
                id[i] = static_cast<std::uint32_t>(i);
              return id;
            }();
  Factors<T> ref;
  std::string refError = "none";
  try {
    ref = rightLooking(a, order, threshold, tally);
  } catch (const std::exception& e) {
    refError = e.what();
  }
  EXPECT_EQ(luError, refError);
  if (luError != refError) return false;
  if (refError != "none") {
    EXPECT_FALSE(lu.analyzed());
    return true;
  }
  EXPECT_EQ(SymbolicLUTestPeer::columnOrder(lu), order);
  const Factors<T> got = SymbolicLUTestPeer::read(lu);
  EXPECT_EQ(got.pivRow, ref.pivRow);
  EXPECT_EQ(got.pivCol, ref.pivCol);
  EXPECT_TRUE(sameBits(got.pivVal, ref.pivVal));
  EXPECT_EQ(got.lPtr, ref.lPtr);
  EXPECT_EQ(got.lRow, ref.lRow);
  EXPECT_TRUE(sameBits(got.lVal, ref.lVal));
  EXPECT_EQ(got.uPtr, ref.uPtr);
  EXPECT_EQ(got.uCol, ref.uCol);
  EXPECT_TRUE(sameBits(got.uVal, ref.uVal));
  EXPECT_EQ(got.rowLPtr, ref.rowLPtr);
  EXPECT_EQ(got.rowL, ref.rowL);
  std::size_t flops = 0;
  for (std::size_t k = 0; k < a.rows(); ++k)
    flops += (ref.lPtr[k + 1] - ref.lPtr[k]) * (ref.uPtr[k + 1] - ref.uPtr[k]);
  EXPECT_EQ(lu.programFlops(), flops);
  EXPECT_EQ(lu.factorNnz(), a.rows() + ref.lVal.size() + ref.uVal.size());
  const auto work = supernodeWork(ref, tally.midSupernodeStarts);
  EXPECT_EQ(lu.supernodeWork().steps, work.steps);
  EXPECT_EQ(lu.supernodeWork().flops, work.flops);
  tally.supernodeSteps += work.steps;
  if constexpr (std::is_same_v<T, Complex>)
    tally.complexSupernodeSteps += work.steps;
  return !::testing::Test::HasFailure();
}

template <class T>
T scalar(Real re, Real im) {
  if constexpr (std::is_same_v<T, Complex>) {
    return Complex(re, im);
  } else {
    (void)im;
    return re;
  }
}

/// One random test matrix. The seed picks the size, density, a symmetric
/// or unsymmetric pattern, how often the diagonal is absent or zero, and a
/// value style: continuous with a wide magnitude spread (off-diagonal
/// pivots under the stricter thresholds), a few discrete values (ties in
/// magnitude, so the row length and then column order decide), or
/// sprinkled with NaN and ±inf.
template <class T>
CSR<T> randomMatrix(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> coin(0, 1);
  std::uniform_real_distribution<Real> u(-1, 1);
  const std::size_t n = 1 + rng() % 40;
  const Real density = 0.02 + 0.3 * coin(rng);
  const bool symmetric = coin(rng) < 0.5;
  const Real noDiag = coin(rng) < 0.5 ? 0.0 : 0.4 * coin(rng);
  const int style = static_cast<int>(rng() % 3);
  const auto value = [&]() -> T {
    const Real z = coin(rng);
    if (z < 0.08) return T(-0.0);
    if (z < 0.16) return T(0.0);
    if (style == 1) {
      static constexpr Real kLevels[] = {1, -1, 2, -2, 0.5, -0.5};
      return scalar<T>(kLevels[rng() % 6], coin(rng) < 0.5 ? 0.0 : kLevels[rng() % 6]);
    }
    if (style == 2 && z < 0.19) {
      static constexpr Real kOdd[] = {std::numeric_limits<Real>::quiet_NaN(),
                                      std::numeric_limits<Real>::infinity(),
                                      -std::numeric_limits<Real>::infinity()};
      return scalar<T>(kOdd[rng() % 3], coin(rng) < 0.5 ? 0.0 : u(rng));
    }
    const Real scale = std::pow(10.0, 6 * coin(rng) - 3);
    return scalar<T>(scale * u(rng), scale * u(rng));
  };
  Triplets<T> t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (coin(rng) >= noDiag) t.add(i, i, value());
    for (std::size_t j = symmetric ? i + 1 : 0; j < n; ++j) {
      if (j == i || coin(rng) >= density) continue;
      t.add(i, j, value());
      if (symmetric) t.add(j, i, value());
    }
  }
  return CSR<T>(t);
}

template <class T>
void runRandomCorpus(std::uint64_t seed0, std::size_t count, std::size_t& matrices,
                     SearchTally& tally) {
  for (std::uint64_t seed = seed0; seed < seed0 + count; ++seed) {
    const CSR<T> a = randomMatrix<T>(seed);
    for (const Ordering ord : {Ordering::Natural, Ordering::Amd})
      for (const Real thr : {1e-3, 0.5, 1.0}) {
        ++matrices;
        if (!expectSameAnalysis(a, ord, thr, tally)) {
          ADD_FAILURE() << "seed " << seed << " ordering "
                        << (ord == Ordering::Amd ? "amd" : "natural")
                        << " threshold " << thr;
          return;
        }
      }
  }
}

TEST(SymbolicLUOracle, RandomMatricesMatchRightLookingBitwise) {
  std::size_t matrices = 0;
  SearchTally tally;
  runRandomCorpus<Real>(1, 400, matrices, tally);
  runRandomCorpus<Complex>(100001, 400, matrices, tally);
  EXPECT_EQ(matrices, 4800u);
  // The corpus must exercise the row search, not only diagonal pivots.
  EXPECT_GT(tally.rowSearches, 30000u);
  EXPECT_GT(tally.rowCounts, 60000u);
  // And the supernode path, entered at and after a supernode's first step.
  EXPECT_GT(tally.supernodeSteps, 100000u);
  EXPECT_GT(tally.complexSupernodeSteps, 50000u);
  EXPECT_GT(tally.midSupernodeStarts, 2000u);
}

/// RC mesh of k×k nodes driven by V1 at one corner. With `ammeters`,
/// every third horizontal branch whose row and column indices sum to a
/// multiple of 3 is a 0 V source (an ammeter) instead of a resistor: its
/// branch row has no diagonal, so the analysis meets off-diagonal pivots
/// all through the order. Horizontal sources never close a loop.
std::string meshNetlist(std::size_t k, bool ammeters) {
  std::mt19937_64 rng(k);
  std::uniform_real_distribution<Real> spread(0.75, 1.25);
  std::string s = "V1 n0_0 0 SIN(0 1 1meg)\n";
  const auto node = [](std::size_t i, std::size_t j) {
    return "n" + std::to_string(i) + "_" + std::to_string(j);
  };
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::string here = node(i, j);
      if (j + 1 < k)
        s += (ammeters && (i + j) % 3 == 0 ? "VA" : "RH") + here + " " + here +
             " " + node(i, j + 1) + " " +
             (ammeters && (i + j) % 3 == 0 ? std::string("0")
                                           : std::to_string(100 * spread(rng))) +
             "\n";
      if (i + 1 < k)
        s += "RV" + here + " " + here + " " + node(i + 1, j) + " " +
             std::to_string(100 * spread(rng)) + "\n";
      s += "C" + here + " " + here + " 0 " + std::to_string(spread(rng)) + "p\n";
    }
  return s;
}

TEST(SymbolicLUOracle, MnaJacobiansMatchRightLookingBitwise) {
  SearchTally tally;
  std::size_t matrices = 0;
  for (const auto& [k, ammeters] : {std::pair<std::size_t, bool>{24, false},
                                    std::pair<std::size_t, bool>{12, true}}) {
    SCOPED_TRACE(k);
    circuit::Circuit ckt;
    circuit::parseNetlist(meshNetlist(k, ammeters), ckt);
    const circuit::MnaSystem sys(ckt);
    circuit::MnaWorkspace ws(sys);
    ws.eval(numeric::RVec(sys.dim(), 0.0), 0.0, true);
    const auto& g = ws.gValues();
    const auto& c = ws.cValues();
    for (const Ordering ord : {Ordering::Natural, Ordering::Amd})
      for (const Real thr : {1e-3, 0.5, 1.0}) {
        // DC, and the transient Jacobians C/h + G of a few step sizes.
        for (const Real invH : {0.0, 1e6, 1e9, 1e12}) {
          std::vector<Real> v(g.size());
          for (std::size_t p = 0; p < v.size(); ++p) v[p] = invH * c[p] + g[p];
          ++matrices;
          ASSERT_TRUE(expectSameAnalysis(RCSR(ws.pattern(), v), ord, thr, tally))
              << "1/h " << invH;
        }
        // The AC matrices G + jωC.
        for (const Real w : {1e3, 1e8, 1e12}) {
          std::vector<Complex> v(g.size());
          for (std::size_t p = 0; p < v.size(); ++p) v[p] = Complex(g[p], w * c[p]);
          ++matrices;
          ASSERT_TRUE(expectSameAnalysis(CCSR(ws.pattern(), v), ord, thr, tally))
              << "omega " << w;
        }
      }
  }
  EXPECT_EQ(matrices, 84u);
  // Most of them on the ammeter mesh.
  EXPECT_GT(tally.rowSearches, 2500u);
  EXPECT_GT(tally.rowCounts, 5000u);
  EXPECT_GT(tally.supernodeSteps, 60000u);
  EXPECT_GT(tally.complexSupernodeSteps, 25000u);
  EXPECT_GT(tally.midSupernodeStarts, 400u);
}

/// The Jacobians of perfbench's mesh_cold shape: the 24×24 and 60×60 RC
/// meshes at the transient's 1/h = 1e7 under AMD, and their AC matrices.
TEST(SymbolicLUOracle, MeshColdJacobiansMatchRightLookingBitwise) {
  SearchTally tally;
  for (const std::size_t k : {24u, 60u}) {
    SCOPED_TRACE(k);
    circuit::Circuit ckt;
    circuit::parseNetlist(meshNetlist(k, false), ckt);
    const circuit::MnaSystem sys(ckt);
    circuit::MnaWorkspace ws(sys);
    ws.eval(numeric::RVec(sys.dim(), 0.0), 0.0, true);
    const auto& g = ws.gValues();
    const auto& c = ws.cValues();
    std::vector<Real> v(g.size());
    std::vector<Complex> cv(g.size());
    for (std::size_t p = 0; p < v.size(); ++p) {
      v[p] = 1e7 * c[p] + g[p];
      cv[p] = Complex(g[p], 1e8 * c[p]);
    }
    ASSERT_TRUE(expectSameAnalysis(RCSR(ws.pattern(), v), Ordering::Amd, 1e-3, tally));
    ASSERT_TRUE(expectSameAnalysis(CCSR(ws.pattern(), cv), Ordering::Amd, 1e-3, tally));
  }
  EXPECT_GT(tally.supernodeSteps, 60000u);
  EXPECT_GT(tally.complexSupernodeSteps, 30000u);
}

// Replay decisions on values that only the exact magnitudes settle. A
// complex 2×2 [[a, b], [c, d]] analysed with diagonal pivots replays them
// or gives up:
// an input whose |z| overflows (two parts of 1.5e308) or whose part is
// infinite beside a NaN makes max|A| infinite, so the replay gives up; two
// parts of 1e308 keep max|A| finite and the pivots good; a NaN pivot fails
// the floor; a pivot grown past the cap fails the growth limit; a NaN U
// value fails nothing by itself, but its NaN multiplier reaches the pivot.
TEST(SymbolicLUOracle, ReplayDecisionsOnAwkwardComplexValues) {
  constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();
  constexpr Real kInf = std::numeric_limits<Real>::infinity();
  CTriplets t(2, 2);
  t.add(0, 0, Complex(4, 1));
  t.add(0, 1, Complex(1, 0));
  t.add(1, 0, Complex(1, 0));
  t.add(1, 1, Complex(4, -1));
  const CCSR a(t);  // positions: (0,0) (0,1) (1,0) (1,1)
  const std::vector<std::pair<std::vector<Complex>, bool>> cases = {
      {{{1.5e308, 1.5e308}, 1, 1, 4}, false},
      {{{4, 0}, {kInf, kNaN}, 1, 4}, false},
      {{{1e308, 1e308}, 1, 1, {1e308, 0}}, true},
      {{{kNaN, 1}, 1, 1, 4}, false},
      // d − c·b/a = 1 − 1e11 against a cap of 1e10·max|A| = 1e10.
      {{{1e-11, 0}, 1, 1, 1}, false},
      {{{1e-9, 0}, 1, 1, 1}, true},
      // A NaN U value is ignored by the growth check.
      {{4, {kNaN, 0}, 1, 4}, false},
      {{4, {kNaN, 0}, 0, 4}, true}};
  for (const auto& [vals, replays] : cases) {
    CSymbolicLU lu(a, {.ordering = Ordering::Natural});
    ASSERT_EQ(lu.pivotRows(), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(SymbolicLUTestPeer::replays(lu, vals), replays)
        << vals[0] << " " << vals[1] << " " << vals[2] << " " << vals[3];
  }
}

}  // namespace
}  // namespace rfic::sparse
