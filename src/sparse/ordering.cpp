#include "sparse/ordering.hpp"

#include <algorithm>
#include <atomic>

#include "diag/resilience.hpp"

namespace rfic::sparse {

namespace {
std::atomic<Ordering> gDefault{Ordering::Amd};
// Innermost per-thread override; Auto = none installed.
thread_local Ordering tlOverride = Ordering::Auto;
}  // namespace

bool parseOrdering(const std::string& s, Ordering& out) {
  if (s == "natural") {
    out = Ordering::Natural;
    return true;
  }
  if (s == "amd") {
    out = Ordering::Amd;
    return true;
  }
  return false;
}

Ordering orderingDefault() { return gDefault.load(std::memory_order_relaxed); }

void setOrderingDefault(Ordering o) {
  RFIC_REQUIRE(o != Ordering::Auto,
               "setOrderingDefault: Auto is not a concrete ordering");
  gDefault.store(o, std::memory_order_relaxed);
}

Ordering effectiveOrdering() {
  const Ordering o = tlOverride;
  return o != Ordering::Auto ? o : orderingDefault();
}

Ordering resolveOrdering(Ordering o) {
  return o != Ordering::Auto ? o : effectiveOrdering();
}

ScopedOrderingOverride::ScopedOrderingOverride(Ordering o) : prev_(tlOverride) {
  RFIC_REQUIRE(o != Ordering::Auto,
               "ScopedOrderingOverride: Auto is not a concrete ordering");
  tlOverride = o;
}

ScopedOrderingOverride::~ScopedOrderingOverride() { tlOverride = prev_; }

// Approximate minimum degree on the quotient graph, after Amestoy, Davis &
// Duff. Eliminated pivots become *elements*; a live variable's structure is
// its pruned direct adjacency A_i plus the union of the variable lists L_e
// of its adjacent elements. Eliminating p forms the new element
// L_p = (A_p ∪ ∪_{e∈E_p} L_e) \ {p}; every element adjacent to p is
// absorbed into it, and the external degree of each i ∈ L_p is re-estimated
// as d_i = |A_i| + |L_p \ {i}| + Σ_{e∈E_i} |L_e \ L_p| — the last term via
// the classic two-pass w[e] computation, so one elimination costs time
// proportional to the structure it touches, not to n.
//
// Everything iterates plain vectors in insertion/index order and ties in
// the degree buckets break toward the smaller node index, so the returned
// permutation is deterministic across runs and platforms.
std::vector<std::uint32_t> amdOrder(std::size_t n,
                                    const std::vector<std::size_t>& rowPtr,
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

}  // namespace rfic::sparse
