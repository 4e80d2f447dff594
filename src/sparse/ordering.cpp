#include "sparse/ordering.hpp"

#include <algorithm>
#include <atomic>
#include <span>

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
// Everything iterates its lists in insertion/index order and ties in the
// degree buckets break toward the smaller node index, so the returned
// permutation is deterministic across runs and platforms.
//
// Storage is flat: the per-node arrays share one allocation, and every list
// (a variable's A_i and E_i, an element's L_e) is a segment of one pool.
// A list only shrinks in place, except E_i, which gains the new element at
// its end: in place while its segment has room, else moved to the pool's
// end with room to spare. A new element's L_p takes its pivot's old A_p
// segment when it fits, else the pool's end. When the pool is full, the
// live segments slide down over the dead ones, and the pool grows if that
// frees too little. No list changes order, so the permutation is the one
// the same elimination over per-node vectors gives.
namespace {

class AmdLists {
 public:
  /// Segments for n nodes over `pool`, which holds the A lists packed in
  /// node order (A_i's length at len[i]) and has room to spare; every E
  /// list starts empty with room for a few elements.
  AmdLists(std::size_t n, std::vector<std::uint32_t> pool,
           std::span<const std::uint32_t> len)
      : seg_(2 * n), pool_(std::move(pool)) {
    placed_.reserve(4 * n);
    std::uint32_t off = 0;
    for (std::size_t i = 0; i < n; ++i) {
      seg_[2 * i] = {off, len[i], len[i]};
      placed_.push_back({static_cast<std::uint32_t>(2 * i), off});
      off += len[i];
    }
    top_ = off;
    for (std::size_t i = 0; i < n; ++i)
      seg_[2 * i + 1] = {place(2 * i + 1, kFirstE), 0, kFirstE};
  }

  /// A_i of a variable, L_i of an element.
  std::span<std::uint32_t> a(std::size_t i) { return view(seg_[2 * i]); }
  /// E_i of a variable.
  std::span<std::uint32_t> e(std::size_t i) { return view(seg_[2 * i + 1]); }
  void truncateA(std::size_t i, std::size_t len) {
    seg_[2 * i].len = static_cast<std::uint32_t>(len);
  }
  void truncateE(std::size_t i, std::size_t len) {
    seg_[2 * i + 1].len = static_cast<std::uint32_t>(len);
  }

  /// A_i := list (the new element's L_i).
  void replaceA(std::size_t i, std::span<const std::uint32_t> list) {
    const auto len = static_cast<std::uint32_t>(list.size());
    if (len > seg_[2 * i].cap) {
      seg_[2 * i].len = 0;  // a compaction in place() need not move it
      seg_[2 * i] = {place(2 * i, len), 0, len};
    }
    seg_[2 * i].len = len;
    std::copy(list.begin(), list.end(), pool_.begin() + seg_[2 * i].off);
  }

  /// E_i gains element x at its end.
  void appendE(std::size_t i, std::uint32_t x) {
    Seg& s = seg_[2 * i + 1];
    if (s.len == s.cap) {
      const std::uint32_t cap = 2 * s.cap + kFirstE;
      const std::uint32_t off = place(2 * i + 1, cap);  // may move s.off
      std::copy(pool_.begin() + s.off, pool_.begin() + s.off + s.len,
                pool_.begin() + off);
      s.off = off;
      s.cap = cap;
    }
    pool_[s.off + s.len++] = x;
  }

 private:
  static constexpr std::uint32_t kFirstE = 2;
  struct Seg {
    std::uint32_t off, len, cap;
  };
  std::span<std::uint32_t> view(const Seg& s) {
    return {pool_.data() + s.off, s.len};
  }

  /// A new segment of `count` slots for segment q at the pool's end.
  std::uint32_t place(std::size_t q, std::uint32_t count) {
    const auto off = static_cast<std::uint32_t>(alloc(count));
    placed_.push_back({static_cast<std::uint32_t>(q), off});
    return off;
  }

  /// `count` slots at the pool's end. When they do not fit, the live
  /// segments first slide down over the dead ones, in the order they were
  /// placed (an A list keeps room only for what it holds: it never grows
  /// in place), and the pool grows if that frees too little.
  std::size_t alloc(std::size_t count) {
    if (top_ + count > pool_.size()) {
      std::uint32_t at = 0;
      std::size_t kept = 0;
      for (const Placed& p : placed_) {
        Seg& s = seg_[p.seg];
        if (s.off != p.off) continue;  // moved since
        if (s.off != at)
          std::copy(pool_.begin() + s.off, pool_.begin() + s.off + s.len,
                    pool_.begin() + at);
        s.off = at;
        if (p.seg % 2 == 0) s.cap = s.len;
        placed_[kept++] = {p.seg, at};
        at += s.cap;
      }
      placed_.resize(kept);
      top_ = at;
      if (2 * (top_ + count) > pool_.size())
        pool_.resize(2 * (top_ + count));
    }
    const std::size_t off = top_;
    top_ += count;
    return off;
  }

  struct Placed {
    std::uint32_t seg, off;
  };
  std::vector<Seg> seg_;  ///< A_i (or L_i) at 2i, E_i at 2i + 1
  std::vector<Placed> placed_;  ///< segments in pool order, some moved since
  std::vector<std::uint32_t> pool_;
  std::size_t top_ = 0;
};

}  // namespace

std::vector<std::uint32_t> amdOrder(std::size_t n,
                                    const std::vector<std::size_t>& rowPtr,
                                    const std::vector<std::uint32_t>& colIdx,
                                    std::size_t* lowerNnz) {
  constexpr std::uint32_t kNone = 0xffffffffu;
  std::vector<std::uint32_t> perm;
  perm.reserve(n);
  if (lowerNnz != nullptr) *lowerNnz = 0;
  if (n == 0) return perm;
  RFIC_REQUIRE(rowPtr.size() == n + 1, "amdOrder: rowPtr size mismatch");

  // Per-node arrays, one allocation.
  std::vector<std::uint32_t> buf(9 * n + 1, 0);
  const std::span<std::uint32_t> all(buf);
  const auto degree = all.subspan(0, n);
  const auto head = all.subspan(n, n);  // one bucket per degree value
  const auto nxt = all.subspan(2 * n, n), prv = all.subspan(3 * n, n);
  const auto markv = all.subspan(4 * n, n);   // L_p ∪ {p} membership stamps
  const auto wval = all.subspan(5 * n, n);    // two-pass |L_e \ L_p| counters
  const auto wstamp = all.subspan(6 * n, n);
  const auto lp = all.subspan(7 * n, n);      // the new element's list
  const auto start = all.subspan(8 * n, n + 1);

  // Symmetrized adjacency, diagonal dropped, duplicates removed, each list
  // ascending: counted, placed, then sorted and compacted in place.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p) {
      const std::uint32_t c = colIdx[p];
      RFIC_REQUIRE(c < n, "amdOrder: column index out of range");
      if (c == r) continue;
      ++start[r + 1];
      ++start[c + 1];
    }
  for (std::size_t i = 0; i < n; ++i) start[i + 1] += start[i];
  // The pool of AmdLists: the A lists, then room for the E lists and the
  // first new elements.
  std::vector<std::uint32_t> adjacency(start[n] + start[n] / 2 + 4 * n + 16);
  std::copy(start.begin(), start.end() - 1, nxt.begin());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p) {
      const std::uint32_t c = colIdx[p];
      if (c == r) continue;
      adjacency[nxt[r]++] = c;
      adjacency[nxt[c]++] = static_cast<std::uint32_t>(r);
    }
  std::size_t packed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = adjacency.begin() + start[i];
    const auto e = adjacency.begin() + start[i + 1];
    std::sort(b, e);
    const auto last = std::unique(b, e);
    const auto len = static_cast<std::uint32_t>(last - b);
    std::copy(b, last, adjacency.begin() + packed);
    packed += len;
    degree[i] = len;
  }
  AmdLists lists(n, std::move(adjacency), degree);

  enum : unsigned char { kVar = 0, kElement = 1, kDead = 2 };
  std::vector<unsigned char> state(n, kVar);

  // Degree buckets: intrusive doubly-linked lists, one per degree value.
  std::fill(head.begin(), head.end(), kNone);
  std::fill(nxt.begin(), nxt.end(), kNone);
  std::fill(prv.begin(), prv.end(), kNone);
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
  for (std::size_t i = n; i-- > 0;) bucketInsert(static_cast<std::uint32_t>(i));

  std::uint32_t stamp = 0;
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
    std::size_t nlp = 0;
    for (const std::uint32_t c : lists.a(piv)) {
      if (state[c] != kVar || markv[c] == stamp) continue;
      markv[c] = stamp;
      lp[nlp++] = c;
    }
    for (const std::uint32_t e : lists.e(piv)) {
      if (state[e] != kElement) continue;
      for (const std::uint32_t c : lists.a(e)) {
        if (state[c] != kVar || markv[c] == stamp) continue;
        markv[c] = stamp;
        lp[nlp++] = c;
      }
      state[e] = kDead;
      lists.truncateA(e, 0);
    }
    lists.truncateE(piv, 0);
    const std::span<const std::uint32_t> lpiv(lp.data(), nlp);
    lists.replaceA(piv, lpiv);
    state[piv] = nlp == 0 ? kDead : kElement;  // isolated nodes just die
    if (lowerNnz != nullptr) *lowerNnz += nlp;
    if (nlp == 0) continue;

    // Pass 1: w[e] = |L_e \ L_piv| for every element touching L_piv.
    const std::uint32_t round = static_cast<std::uint32_t>(k + 1);
    for (const std::uint32_t i : lpiv) {
      for (const std::uint32_t e : lists.e(i)) {
        if (state[e] != kElement) continue;
        if (wstamp[e] != round) {
          wstamp[e] = round;
          wval[e] = static_cast<std::uint32_t>(lists.a(e).size());
        }
        --wval[e];  // i ∈ L_e ∩ L_piv
      }
    }

    // Pass 2: prune each i ∈ L_piv and re-estimate its external degree.
    for (const std::uint32_t i : lpiv) {
      // A_i loses piv, everything covered by the new element, and the dead.
      const auto ai = lists.a(i);
      std::size_t keep = 0;
      for (const std::uint32_t c : ai)
        if (state[c] == kVar && markv[c] != stamp) ai[keep++] = c;
      lists.truncateA(i, keep);

      // E_i keeps live elements (aggressively absorbing any with
      // L_e ⊆ L_piv) and gains the new element piv.
      const auto ei = lists.e(i);
      std::size_t ekeep = 0;
      std::size_t d = keep + (nlp - 1);
      for (const std::uint32_t e : ei) {
        if (state[e] != kElement) continue;
        const std::size_t we =
            wstamp[e] == round ? wval[e] : lists.a(e).size();
        if (we == 0) {  // L_e ⊆ L_piv — redundant next to element piv
          state[e] = kDead;
          lists.truncateA(e, 0);
          continue;
        }
        d += we;
        ei[ekeep++] = e;
      }
      lists.truncateE(i, ekeep);
      lists.appendE(i, piv);

      const std::size_t cap = n - k - 1;  // live variables besides i
      if (d > cap) d = cap;
      bucketRemove(i);
      degree[i] = static_cast<std::uint32_t>(d);
      bucketInsert(i);
      if (d < mindeg) mindeg = d;
    }
  }

  RFIC_REQUIRE(perm.size() == n, "amdOrder: incomplete permutation");
  return perm;
}

}  // namespace rfic::sparse
