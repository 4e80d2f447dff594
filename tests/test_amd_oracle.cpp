// Differential test of amdOrder's flat storage against the per-node-vector
// elimination it replaced, kept here as the reference. Both run the same
// approximate-minimum-degree elimination (sparse/ordering.cpp): the flat one
// must return the same permutation, and throw the same RFIC_REQUIRE texts,
// on seeded random patterns (symmetric and unsymmetric, isolated nodes,
// dense rows, duplicate and unsorted entries, n = 0 and 1), on the MNA
// Jacobians of RC meshes and of a mesh with 0 V ammeter branches, and on
// malformed input.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "circuit/mna_workspace.hpp"
#include "circuit/netlist.hpp"
#include "sparse/ordering.hpp"

namespace rfic::sparse {
namespace {

// The reference: adjacency, element and variable lists as one std::vector
// per node.
std::vector<std::uint32_t> amdOrderReference(
    std::size_t n, const std::vector<std::size_t>& rowPtr,
    const std::vector<std::uint32_t>& colIdx) {
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::vector<std::uint32_t> perm;
  perm.reserve(n);
  if (n == 0) return perm;
  RFIC_REQUIRE(rowPtr.size() == n + 1, "amdOrder: rowPtr size mismatch");

  // Symmetrized adjacency, diagonal dropped, duplicates removed.
  std::vector<std::vector<std::uint32_t>> varAdj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p) {
      const std::uint32_t c = colIdx[p];
      RFIC_REQUIRE(c < n, "amdOrder: column index out of range");
      if (c == r) continue;
      varAdj[r].push_back(c);
      varAdj[c].push_back(static_cast<std::uint32_t>(r));
    }
  }
  for (auto& a : varAdj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }

  enum : unsigned char { kVar = 0, kElement = 1, kDead = 2 };
  std::vector<unsigned char> state(n, kVar);
  std::vector<std::vector<std::uint32_t>> elAdj(n);
  std::vector<std::size_t> degree(n);

  // Degree buckets: intrusive doubly-linked lists, one per degree value.
  std::vector<std::uint32_t> head(n, kNone), nxt(n, kNone), prv(n, kNone);
  const auto bucketRemove = [&](std::uint32_t i) {
    const std::uint32_t p = prv[i], x = nxt[i];
    if (p != kNone)
      nxt[p] = x;
    else
      head[degree[i]] = x;
    if (x != kNone) prv[x] = p;
    prv[i] = nxt[i] = kNone;
  };
  const auto bucketInsert = [&](std::uint32_t i) {
    const std::size_t d = degree[i];
    prv[i] = kNone;
    nxt[i] = head[d];
    if (head[d] != kNone) prv[head[d]] = i;
    head[d] = i;
  };
  // Insert in descending index order so each bucket lists smaller indices
  // first — the deterministic tie-break.
  for (std::size_t i = n; i-- > 0;) {
    degree[i] = varAdj[i].size();
    bucketInsert(static_cast<std::uint32_t>(i));
  }

  std::vector<std::uint32_t> markv(n, 0);  // L_p ∪ {p} membership stamps
  std::uint32_t stamp = 0;
  std::vector<std::size_t> wval(n, 0);  // two-pass |L_e \ L_p| counters
  std::vector<std::uint32_t> wstamp(n, 0);
  std::vector<std::uint32_t> lp;
  lp.reserve(64);

  std::size_t mindeg = 0;
  for (std::size_t k = 0; k < n; ++k) {
    while (mindeg < n && head[mindeg] == kNone) ++mindeg;
    RFIC_REQUIRE(mindeg < n, "amdOrder: degree lists exhausted early");
    const std::uint32_t piv = head[mindeg];
    bucketRemove(piv);
    perm.push_back(piv);

    // L_piv = (A_piv ∪ ∪ L_e) \ {piv}, live variables only. Adjacent
    // elements are absorbed into the new element as their lists drain.
    ++stamp;
    markv[piv] = stamp;
    lp.clear();
    for (const std::uint32_t c : varAdj[piv]) {
      if (state[c] != kVar || markv[c] == stamp) continue;
      markv[c] = stamp;
      lp.push_back(c);
    }
    for (const std::uint32_t e : elAdj[piv]) {
      if (state[e] != kElement) continue;
      for (const std::uint32_t c : varAdj[e]) {
        if (state[c] != kVar || markv[c] == stamp) continue;
        markv[c] = stamp;
        lp.push_back(c);
      }
      state[e] = kDead;
      std::vector<std::uint32_t>().swap(varAdj[e]);
    }
    std::vector<std::uint32_t>().swap(elAdj[piv]);
    varAdj[piv] = lp;
    state[piv] = lp.empty() ? kDead : kElement;  // isolated nodes just die
    if (lp.empty()) continue;

    // Pass 1: w[e] = |L_e \ L_piv| for every element touching L_piv.
    const std::uint32_t round = static_cast<std::uint32_t>(k + 1);
    for (const std::uint32_t i : lp) {
      for (const std::uint32_t e : elAdj[i]) {
        if (state[e] != kElement) continue;
        if (wstamp[e] != round) {
          wstamp[e] = round;
          wval[e] = varAdj[e].size();
        }
        --wval[e];  // i ∈ L_e ∩ L_piv
      }
    }

    // Pass 2: prune each i ∈ L_piv and re-estimate its external degree.
    for (const std::uint32_t i : lp) {
      // A_i loses piv, everything covered by the new element, and the dead.
      auto& ai = varAdj[i];
      std::size_t keep = 0;
      for (const std::uint32_t c : ai)
        if (state[c] == kVar && markv[c] != stamp) ai[keep++] = c;
      ai.resize(keep);

      // E_i keeps live elements (aggressively absorbing any with
      // L_e ⊆ L_piv) and gains the new element piv.
      auto& ei = elAdj[i];
      std::size_t ekeep = 0;
      std::size_t d = keep + (lp.size() - 1);
      for (const std::uint32_t e : ei) {
        if (state[e] != kElement) continue;
        const std::size_t we =
            wstamp[e] == round ? wval[e] : varAdj[e].size();
        if (we == 0) {  // L_e ⊆ L_piv — redundant next to element piv
          state[e] = kDead;
          std::vector<std::uint32_t>().swap(varAdj[e]);
          continue;
        }
        d += we;
        ei[ekeep++] = e;
      }
      ei.resize(ekeep);
      ei.push_back(piv);

      const std::size_t cap = n - k - 1;  // live variables besides i
      if (d > cap) d = cap;
      bucketRemove(i);
      degree[i] = d;
      bucketInsert(i);
      if (d < mindeg) mindeg = d;
    }
  }

  RFIC_REQUIRE(perm.size() == n, "amdOrder: incomplete permutation");
  return perm;
}

/// The permutation or the error text of one ordering.
template <class Order>
std::string run(Order&& order, std::size_t n, const std::vector<std::size_t>& rowPtr,
                const std::vector<std::uint32_t>& colIdx,
                std::vector<std::uint32_t>& perm) {
  try {
    perm = order(n, rowPtr, colIdx);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "none";
}

void expectSameOrder(std::size_t n, const std::vector<std::size_t>& rowPtr,
                     const std::vector<std::uint32_t>& colIdx) {
  std::vector<std::uint32_t> got, want;
  const std::string gotError = run(
      [](std::size_t m, const std::vector<std::size_t>& rp,
         const std::vector<std::uint32_t>& ci) { return amdOrder(m, rp, ci); },
      n, rowPtr, colIdx, got);
  const std::string wantError = run(amdOrderReference, n, rowPtr, colIdx, want);
  EXPECT_EQ(gotError, wantError);
  EXPECT_EQ(got, want);
}

/// A random n×n pattern in CSR form. The seed picks the density, a
/// symmetric or unsymmetric pattern, isolated nodes, a few dense rows and
/// columns, and duplicate or unsorted entries within a row.
void randomPattern(std::uint64_t seed, std::size_t n, std::vector<std::size_t>& rowPtr,
                   std::vector<std::uint32_t>& colIdx) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> coin(0, 1);
  const Real density = coin(rng) < 0.3 ? 0.3 * coin(rng) : 4.0 / static_cast<Real>(n + 1);
  const bool symmetric = coin(rng) < 0.5;
  const Real isolated = coin(rng) < 0.5 ? 0.0 : 0.2;
  const std::size_t dense = rng() % 3;  // rows/columns touching every node
  std::vector<std::vector<std::uint32_t>> rows(n);
  std::vector<char> alone(n);
  for (auto& a : alone) a = coin(rng) < isolated;
  for (std::size_t i = 0; i < n; ++i) {
    if (coin(rng) < 0.7) rows[i].push_back(static_cast<std::uint32_t>(i));
    if (alone[i]) continue;
    for (std::size_t j = symmetric ? i + 1 : 0; j < n; ++j) {
      if (j == i || alone[j] || coin(rng) >= density) continue;
      rows[i].push_back(static_cast<std::uint32_t>(j));
      if (symmetric) rows[j].push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t d = 0; d < dense && n > 0; ++d) {
    const std::size_t r = rng() % n;
    for (std::size_t j = 0; j < n; ++j)
      (coin(rng) < 0.5 ? rows[r] : rows[j]).push_back(
          static_cast<std::uint32_t>(coin(rng) < 0.5 ? j : r));
  }
  rowPtr.assign(1, 0);
  colIdx.clear();
  for (auto& r : rows) {
    if (coin(rng) < 0.5) std::shuffle(r.begin(), r.end(), rng);
    if (!r.empty() && coin(rng) < 0.2) r.push_back(r.front());  // duplicate
    colIdx.insert(colIdx.end(), r.begin(), r.end());
    rowPtr.push_back(colIdx.size());
  }
}

TEST(AmdOracle, RandomPatternsMatchTheReference) {
  std::size_t orders = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    const std::size_t n = seed % 50 == 0 ? seed % 2 : 1 + seed % 97 + (seed % 7 == 0 ? 400 : 0);
    std::vector<std::size_t> rowPtr;
    std::vector<std::uint32_t> colIdx;
    randomPattern(seed, n, rowPtr, colIdx);
    SCOPED_TRACE(seed);
    expectSameOrder(n, rowPtr, colIdx);
    ++orders;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(orders, 600u);
}

/// Entries below the diagonal of the Cholesky factor of the symmetrized
/// pattern eliminated in `order`, by plain elimination-graph simulation.
std::size_t choleskyLowerNnz(std::size_t n, const std::vector<std::size_t>& rowPtr,
                             const std::vector<std::uint32_t>& colIdx,
                             const std::vector<std::uint32_t>& order) {
  std::vector<std::set<std::uint32_t>> adj(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p)
      if (colIdx[p] != r) {
        adj[r].insert(colIdx[p]);
        adj[colIdx[p]].insert(static_cast<std::uint32_t>(r));
      }
  std::size_t count = 0;
  for (const std::uint32_t p : order) {
    const std::vector<std::uint32_t> nb(adj[p].begin(), adj[p].end());
    count += nb.size();
    for (const std::uint32_t a : nb) {
      adj[a].erase(p);
      for (const std::uint32_t b : nb)
        if (a != b) adj[a].insert(b);
    }
    adj[p].clear();
  }
  return count;
}

TEST(AmdOracle, ReportsTheCholeskyFactorSize) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::size_t n = 1 + seed % 60;
    std::vector<std::size_t> rowPtr;
    std::vector<std::uint32_t> colIdx;
    randomPattern(seed, n, rowPtr, colIdx);
    std::size_t lowerNnz = 12345;
    const auto order = amdOrder(n, rowPtr, colIdx, &lowerNnz);
    ASSERT_EQ(lowerNnz, choleskyLowerNnz(n, rowPtr, colIdx, order)) << "seed " << seed;
  }
  std::size_t lowerNnz = 12345;
  EXPECT_TRUE(amdOrder(0, {0}, {}, &lowerNnz).empty());
  EXPECT_EQ(lowerNnz, 0u);
}

TEST(AmdOracle, EdgeCasesAndErrorsMatchTheReference) {
  expectSameOrder(0, {0}, {});
  expectSameOrder(0, {}, {});
  expectSameOrder(1, {0, 0}, {});
  expectSameOrder(1, {0, 1}, {0});
  expectSameOrder(3, {0, 0, 0, 0}, {});           // no entries at all
  expectSameOrder(3, {0, 1}, {0});                 // rowPtr too short
  expectSameOrder(3, {0, 1, 2, 3}, {0, 5, 2});     // column out of range
  expectSameOrder(4, {0, 4, 4, 4, 4}, {3, 2, 1, 0});  // one dense row
}

/// The MNA Jacobian pattern of a k×k RC mesh driven at one corner; with
/// `ammeters`, every third horizontal branch is a 0 V source.
std::string meshNetlist(std::size_t k, bool ammeters) {
  std::string s = "V1 n0_0 0 SIN(0 1 1meg)\n";
  const auto node = [](std::size_t i, std::size_t j) {
    return "n" + std::to_string(i) + "_" + std::to_string(j);
  };
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) {
      const std::string here = node(i, j);
      if (j + 1 < k)
        s += (ammeters && (i + j) % 3 == 0 ? "VA" + here + " " + here + " " +
                                                 node(i, j + 1) + " 0\n"
                                           : "RH" + here + " " + here + " " +
                                                 node(i, j + 1) + " 100\n");
      if (i + 1 < k) s += "RV" + here + " " + here + " " + node(i + 1, j) + " 100\n";
      s += "C" + here + " " + here + " 0 1p\n";
    }
  return s;
}

TEST(AmdOracle, MnaMeshesMatchTheReference) {
  using Mesh = std::pair<std::size_t, bool>;
  for (const auto& [k, ammeters] :
       {Mesh{12, false}, Mesh{24, false}, Mesh{60, false}, Mesh{24, true}}) {
    SCOPED_TRACE(k);
    circuit::Circuit ckt;
    circuit::parseNetlist(meshNetlist(k, ammeters), ckt);
    const circuit::MnaSystem sys(ckt);
    circuit::MnaWorkspace ws(sys);
    ws.eval(numeric::RVec(sys.dim(), 0.0), 0.0, true);
    const auto& pat = ws.pattern();
    const std::vector<std::uint32_t> colIdx(pat.colIdx().begin(), pat.colIdx().end());
    expectSameOrder(sys.dim(), pat.rowPtr(), colIdx);
  }
}

}  // namespace
}  // namespace rfic::sparse
