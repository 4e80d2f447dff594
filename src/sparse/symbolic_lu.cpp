#include "sparse/symbolic_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <span>

#include "diag/resilience.hpp"
#include "perf/perf.hpp"

namespace rfic::sparse {

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Each off-diagonal half of the factor if every pivot lands on the
/// diagonal: the entries below the diagonal of the Cholesky factor of the
/// symmetrized pattern eliminated in `order`, counted with one row-subtree
/// walk per row over the elimination tree as it grows (O(factor size)).
/// amdOrder reports the same count for its own order. The analysis only
/// uses it to reserve its factor arrays up front: in a cold process growth
/// copies and first-touch page faults cost as much as the elimination
/// itself.
std::size_t diagonalPivotLowerNnz(
    std::size_t n, const std::vector<std::size_t>& rowPtr,
    const std::vector<std::uint32_t>& colIdx,
    const std::vector<std::uint32_t>& order) {
  // One allocation: an analysis of a tiny matrix (an HB harmonic block has
  // a handful of unknowns) costs more in allocations than in arithmetic.
  std::vector<std::uint32_t> buf(6 * n + 1 + rowPtr[n], 0);
  std::uint32_t* const pinv = buf.data();
  std::uint32_t* const lowPtr = pinv + n;        // n + 1
  std::uint32_t* const next = lowPtr + n + 1;    // n
  std::uint32_t* const parent = next + n;        // n
  std::uint32_t* const mark = parent + n;        // n
  std::uint32_t* const below = mark + n;         // n
  std::uint32_t* const low = below + n;          // ≤ nnz
  for (std::size_t k = 0; k < n; ++k)
    pinv[order[k]] = static_cast<std::uint32_t>(k);
  // Strictly lower triangle of the permuted symmetrized pattern, by row
  // (an entry present in both triangles appears twice; the walk below
  // stops at once on the repeat).
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p)
      if (colIdx[p] != r) ++lowPtr[std::max(pinv[r], pinv[colIdx[p]]) + 1];
  for (std::size_t k = 0; k < n; ++k) lowPtr[k + 1] += lowPtr[k];
  std::copy(lowPtr, lowPtr + n, next);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p)
      if (colIdx[p] != r) {
        const std::uint32_t a = pinv[r], b = pinv[colIdx[p]];
        low[next[std::max(a, b)]++] = std::min(a, b);
      }

  // Row k of the factor is the union of the tree paths from each j in
  // low[k] up to k; a root met on the way gets k as its parent.
  std::fill(parent, parent + 2 * n, kNone);  // parent and mark
  for (std::size_t k = 0; k < n; ++k) {
    const auto kk = static_cast<std::uint32_t>(k);
    mark[k] = kk;
    for (std::size_t q = lowPtr[k]; q < lowPtr[k + 1]; ++q)
      for (std::uint32_t r = low[q]; mark[r] != kk; r = parent[r]) {
        mark[r] = kk;
        ++below[r];
        if (parent[r] == kNone) parent[r] = kk;
      }
  }
  std::size_t lowerNnz = 0;
  for (std::size_t r = 0; r < n; ++r) lowerNnz += below[r];
  return lowerNnz;
}

/// Index arrays carved from one allocation, for the same reason.
class IndexArena {
 public:
  explicit IndexArena(std::size_t total) : buf_(total) {}
  std::span<std::uint32_t> take(std::size_t count, std::uint32_t fill) {
    RFIC_REQUIRE(used_ + count <= buf_.size(), "IndexArena: overdrawn");
    const std::span<std::uint32_t> s(buf_.data() + used_, count);
    std::fill(s.begin(), s.end(), fill);
    used_ += count;
    return s;
  }

 private:
  std::vector<std::uint32_t> buf_;
  std::size_t used_ = 0;
};

/// The dense work vector of the column being eliminated. A complex one
/// keeps its real and imaginary parts in separate arrays: every access is
/// then an 8-byte scalar, so an update never reloads a value that was just
/// stored in two halves (which would stall store forwarding).
template <class T>
class WorkColumn;

template <>
class WorkColumn<Real> {
 public:
  explicit WorkColumn(std::size_t n) : v_(n) {}
  Real get(std::size_t i) const { return v_[i]; }
  void set(std::size_t i, Real x) { v_[i] = x; }
  /// x_i -= m·u, from x_i = +0 when `fill`. A zero multiplier skips its
  /// flop, as in replay(): 0·u could turn a -0.0 target into +0.0, or an
  /// infinite u into NaN.
  void update(std::size_t i, bool fill, Real m, Real u) {
    Real xi = fill ? Real(0) : v_[i];
    if (m != Real{}) xi -= m * u;
    v_[i] = xi;
  }
  /// x_i -= m·u on an entry already in the column.
  void subtract(std::size_t i, Real m, Real u) {
    if (m != Real{}) v_[i] -= m * u;
  }

 private:
  std::vector<Real> v_;
};

template <>
class WorkColumn<Complex> {
 public:
  explicit WorkColumn(std::size_t n)
      : parts_(2 * n), re_(parts_.data()), im_(parts_.data() + n) {}
  WorkColumn(const WorkColumn&) = delete;
  WorkColumn& operator=(const WorkColumn&) = delete;
  Complex get(std::size_t i) const { return {re_[i], im_[i]}; }
  void set(std::size_t i, Complex x) {
    re_[i] = x.real();
    im_[i] = x.imag();
  }
  /// As for Real, with the bits of `x -= m * u`: the product is the
  /// textbook (ac − bd, ad + bc) unless that gives NaN, where the
  /// operator's infinity recovery (C Annex G) takes over.
  void update(std::size_t i, bool fill, Complex m, Complex u) {
    Real xr = fill ? Real(0) : re_[i];
    Real xi = fill ? Real(0) : im_[i];
    if (m != Complex{}) {
      Real pr, pi;
      product(m, u, pr, pi);
      xr -= pr;
      xi -= pi;
    }
    re_[i] = xr;
    im_[i] = xi;
  }
  void subtract(std::size_t i, Complex m, Complex u) {
    if (m == Complex{}) return;
    Real pr, pi;
    product(m, u, pr, pi);
    re_[i] -= pr;
    im_[i] -= pi;
  }

 private:
  static void product(Complex m, Complex u, Real& pr, Real& pi) {
    pr = m.real() * u.real() - m.imag() * u.imag();
    pi = m.real() * u.imag() + m.imag() * u.real();
    if (std::isnan(pr) || std::isnan(pi)) {
      const Complex d = m * u;
      pr = d.real();
      pi = d.imag();
    }
  }

  std::vector<Real> parts_;
  Real* re_;
  Real* im_;
};

/// x_i -= l_i·u over the rows of one L column, none of them fill. Unrolled
/// by four: the rows are distinct, so the order among them is immaterial.
template <class T>
void subtractColumn(WorkColumn<T>& x, std::span<const std::uint32_t> rows,
                    const T* l, T u) {
  const std::uint32_t* r = rows.data();
  const std::uint32_t* const end = r + rows.size();
  for (; end - r >= 4; r += 4, l += 4) {
    x.subtract(r[0], l[0], u);
    x.subtract(r[1], l[1], u);
    x.subtract(r[2], l[2], u);
    x.subtract(r[3], l[3], u);
  }
  for (; r != end; ++r, ++l) x.subtract(*r, *l, u);
}

/// The pivot search's one structural question, asked only where the
/// diagonal fails: how many entries does unpivoted row r hold at step k in
/// the columns eliminated at step k or later — its length in the active
/// submatrix of a right-looking elimination, pivot column included. That
/// pattern is row r of A joined with the U rows of the steps whose L
/// column holds r, and the U row of step j is the same pattern of the row
/// pivoted at j. So each row's pattern is kept, as the elimination steps of
/// its columns, and brought up to date when a count needs it: entries
/// below k are dropped and the U rows of the steps not yet merged are
/// joined in. A pivoted row's pattern is final once merged; it is sorted
/// latest step first, so a later count scans only the prefix still
/// active. The patterns share one pool (an update rewrites its row's at
/// the end, and the pool is compacted when half of it is stale), and
/// everything is built lazily: an analysis whose pivots are all diagonal
/// never pays for it.
class ActiveRowCounter {
 public:
  ActiveRowCounter(const std::vector<std::size_t>& rowPtr,
                   const std::vector<std::uint32_t>& colIdx,
                   std::span<const std::uint32_t> stepOfCol,
                   std::span<const std::uint32_t> stepOfRow,
                   const std::vector<std::uint32_t>& pivRow,
                   const std::vector<std::size_t>& lPtr,
                   const std::vector<std::uint32_t>& lRow)
      : rowPtr_(rowPtr),
        colIdx_(colIdx),
        stepOfCol_(stepOfCol),
        stepOfRow_(stepOfRow),
        pivRow_(pivRow),
        lPtr_(lPtr),
        lRow_(lRow) {}

  std::size_t lengthOf(std::uint32_t r, std::uint32_t k) {
    indexL(k);
    // Rows whose final patterns r's merge reads, and theirs in turn. A
    // pivoted row reads only rows pivoted before it, so ascending pivot
    // step brings dependencies up to date first.
    ++stamp_;
    pending_.clear();
    const auto want = [&](std::uint32_t row) {
      for (std::uint32_t li = unmerged(row); li != kNone; li = link_[li].next) {
        const std::uint32_t j = link_[li].step;
        Row& dep = row_[pivRow_[j]];
        if (!final(pivRow_[j]) && dep.rowMark != stamp_) {
          dep.rowMark = stamp_;
          pending_.push_back(j);
        }
      }
    };
    want(r);
    for (std::size_t q = 0; q < pending_.size(); ++q)
      want(pivRow_[pending_[q]]);
    std::sort(pending_.begin(), pending_.end());
    for (const std::uint32_t j : pending_) update(pivRow_[j], k);
    update(r, k);
    return row_[r].len;
  }

 private:
  struct Row {
    std::uint32_t head = kNone, tail = kNone;  ///< its L entries, linked
    std::uint32_t merged = kNone;  ///< last L entry merged into the pattern
    std::uint32_t off = 0, len = 0;  ///< its pattern in pool_
    std::uint32_t rowMark = 0;   ///< indexed by row
    std::uint32_t stepMark = 0;  ///< indexed by step, not by row
    bool started = false, sorted = false;
  };
  struct Link {
    std::uint32_t next, step;
  };

  /// First L entry of `row` not yet merged into its pattern.
  std::uint32_t unmerged(std::uint32_t row) const {
    const Row& s = row_[row];
    return s.merged == kNone ? s.head : link_[s.merged].next;
  }
  bool final(std::uint32_t row) const {
    return row_[row].started && stepOfRow_[row] != kNone &&
           unmerged(row) == kNone;
  }

  /// Bring row's pattern up to date for step k: rewrite it at the end of
  /// the pool without the steps below k, joining in the U rows of the
  /// unmerged L entries. Reads go through indices: the pool may move.
  void update(std::uint32_t row, std::uint32_t k) {
    if (stale_ > pool_.size() / 2) compact();
    Row& s = row_[row];
    const std::uint32_t old = s.off, oldLen = s.len;
    const auto begin = static_cast<std::uint32_t>(pool_.size());
    ++stamp_;
    const auto take = [&](std::uint32_t step) {
      if (row_[step].stepMark != stamp_) {
        row_[step].stepMark = stamp_;
        pool_.push_back(step);
      }
    };
    if (!s.started) {
      s.started = true;
      for (std::size_t q = rowPtr_[row]; q < rowPtr_[row + 1]; ++q)
        if (const std::uint32_t step = stepOfCol_[colIdx_[q]]; step >= k)
          take(step);
    } else {
      for (std::uint32_t q = old; q < old + oldLen; ++q)
        if (pool_[q] >= k) take(pool_[q]);
      stale_ += oldLen;
    }
    for (std::uint32_t li = unmerged(row); li != kNone; li = link_[li].next) {
      const std::uint32_t dep = pivRow_[link_[li].step];
      sortFinal(dep);
      const Row& d = row_[dep];
      for (std::uint32_t q = d.off; q < d.off + d.len && pool_[q] >= k; ++q)
        take(pool_[q]);
      s.merged = li;
    }
    s.off = begin;
    s.len = static_cast<std::uint32_t>(pool_.size()) - begin;
  }

  /// A pivoted row's merged pattern, latest step first.
  void sortFinal(std::uint32_t row) {
    Row& s = row_[row];
    if (s.sorted) return;
    std::sort(pool_.begin() + s.off, pool_.begin() + s.off + s.len,
              std::greater<>());
    s.sorted = true;
  }

  /// Drop the stale copies from the pool.
  void compact() {
    std::vector<std::uint32_t> fresh;
    fresh.reserve(pool_.size() - stale_);
    for (Row& s : row_) {
      if (!s.started) continue;
      const auto at = static_cast<std::uint32_t>(fresh.size());
      fresh.insert(fresh.end(), pool_.begin() + s.off,
                   pool_.begin() + s.off + s.len);
      s.off = at;
    }
    pool_.swap(fresh);
    stale_ = 0;
  }

  /// Link the L entries of steps [indexed_, k) into per-row lists, in
  /// ascending step.
  void indexL(std::uint32_t k) {
    if (row_.empty()) row_.resize(stepOfCol_.size());
    link_.resize(lPtr_[k]);
    for (; indexed_ < k; ++indexed_)
      for (std::size_t li = lPtr_[indexed_]; li < lPtr_[indexed_ + 1]; ++li) {
        Row& s = row_[lRow_[li]];
        const auto l = static_cast<std::uint32_t>(li);
        link_[li] = {kNone, indexed_};
        (s.tail == kNone ? s.head : link_[s.tail].next) = l;
        s.tail = l;
      }
  }

  const std::vector<std::size_t>& rowPtr_;
  const std::vector<std::uint32_t>& colIdx_;
  std::span<const std::uint32_t> stepOfCol_;
  std::span<const std::uint32_t> stepOfRow_;
  const std::vector<std::uint32_t>& pivRow_;
  const std::vector<std::size_t>& lPtr_;
  const std::vector<std::uint32_t>& lRow_;

  std::uint32_t indexed_ = 0;  ///< steps whose L entries are linked
  std::vector<Row> row_;
  std::vector<Link> link_;
  std::vector<std::uint32_t> pool_, pending_;
  std::size_t stale_ = 0;  ///< pool entries no row points at
  std::uint32_t stamp_ = 0;
};

}  // namespace

namespace detail {

// A serial fold carries its max from entry to entry; four lanes do not, and
// the max of magnitudes is exact and ignores a NaN in any order, so they
// give the serial result.
Real maxMagnitude(const Real* v, std::size_t n) {
  Real lane[4] = {0, 0, 0, 0};
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4)
    for (std::size_t j = 0; j < 4; ++j)
      lane[j] = std::max(lane[j], std::abs(v[p + j]));
  for (; p < n; ++p) lane[0] = std::max(lane[0], std::abs(v[p]));
  return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
}

namespace {
constexpr Real kBelow = 0.7;    // 0.7·t ≤ |z|, t = |re| + |im|
constexpr Real kAbove = 1.001;  // |z| ≤ 1.001·t
// Below it the rounding of 0.7·t is no longer relative, so t gives no
// lower bound; above the largest finite value it gives none either.
constexpr Real kTiny = 1e-290;
Real sumOfParts(const Complex& z) {
  return std::abs(z.real()) + std::abs(z.imag());
}
bool boundsBelow(Real t) {
  return t >= kTiny && t <= std::numeric_limits<Real>::max();
}
}  // namespace

// First a lower bound g on the max: some entry's |z| is at least g. Then
// only an entry whose upper bound reaches g can be the max; every other
// magnitude is strictly below it and cannot change the fold. A NaN sum
// compares false, so such an entry is always taken exactly.
Real maxMagnitude(const Complex* v, std::size_t n) {
  Real lane[4] = {0, 0, 0, 0};
  std::size_t p = 0;
  const auto below = [&](std::size_t q) {
    const Real t = sumOfParts(v[q]);
    return boundsBelow(t) ? kBelow * t : Real(0);
  };
  for (; p + 4 <= n; p += 4)
    for (std::size_t j = 0; j < 4; ++j)
      lane[j] = std::max(lane[j], below(p + j));
  for (; p < n; ++p) lane[0] = std::max(lane[0], below(p));
  const Real g =
      std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  Real m = 0;
  for (p = 0; p < n; ++p)
    if (!(kAbove * sumOfParts(v[p]) < g)) m = std::max(m, std::abs(v[p]));
  return m;
}

bool magnitudeAbove(const Complex& z, Real bound) {
  const Real t = sumOfParts(z);
  if (kAbove * t <= bound) return false;
  if (boundsBelow(t) && kBelow * t > bound) return true;
  return std::abs(z) > bound;
}

}  // namespace detail

template <class T>
SymbolicLU<T>::SymbolicLU(const CSR<T>& a, const Options& opts) {
  factor(a, opts);
}

template <class T>
void SymbolicLU<T>::factor(const CSR<T>& a, const Options& opts) {
  RFIC_REQUIRE(a.rows() == a.cols(), "SymbolicLU: square matrix required");
  const perf::Timer timer;
  factoredValid_ = false;
  opts_ = opts;
  n_ = a.rows();
  nnz_ = a.nnz();
  aRowPtr_ = a.rowPtr();
  aColIdx_.assign(a.colIdx().begin(), a.colIdx().end());
  resolved_ = resolveOrdering(opts.ordering);
  std::uint64_t orderingNs = 0;
  if (resolved_ == Ordering::Amd) {
    const perf::Timer orderTimer;
    colOrder_ = amdOrder(n_, aRowPtr_, aColIdx_, &diagonalLowerNnz_);
    orderingNs = orderTimer.ns();
  } else {
    colOrder_.resize(n_);
    std::iota(colOrder_.begin(), colOrder_.end(), std::uint32_t{0});
    diagonalLowerNnz_ = diagonalPivotLowerNnz(n_, aRowPtr_, aColIdx_, colOrder_);
  }
  analyzeFromValues(a.values().data());
  factoredVals_.assign(a.values().begin(), a.values().end());
  factoredValid_ = true;
  // Counted once the analysis succeeded, so the ordering time of a
  // factorization that threw never shows up without its parent.
  auto& ctr = perf::global();
  ctr.addOrdering(orderingNs);
  ctr.addFactorization(timer.ns());
}

// Left-looking elimination that picks the pivots and computes the factors,
// one column at a time over a dense work vector (Gilbert–Peierls). Step k
// scatters column colOrder_[k] of A, applies the earlier steps whose pivot
// row lies in its pattern in ascending step order, picks the pivot row
// from the finished column and records L(k). Only the row is a numeric
// choice: the diagonal if it passes the relative threshold, else the
// shortest active row that does (the Markowitz count with the column
// fixed), ties to the larger magnitude, then to the first in column order.
//
// The result is bit for bit that of a right-looking elimination over the
// active submatrix, stored in the same orders: every entry takes its
// updates in ascending step (a zero multiplier skips its flop but still
// creates the fill), a column's pattern lists its input rows ascending and
// then its fill by creating step and position in that step's L column, and
// a U row lists its input entries in CSR order and then its fill by
// creating step and position in that step's U row. The U entries are
// found column by column and put in that order at the end, without a sort.
template <class T>
void SymbolicLU<T>::analyzeFromValues(const T* vals) {
  analyzed_ = false;
  const std::size_t n = n_;

  IndexArena arena(2 * nnz_ + 10 * n + 3);
  // A by column, rows ascending, with each entry's CSR position.
  const auto colPtr = arena.take(n + 1, 0);
  const auto colRow = arena.take(nnz_, 0), colPos = arena.take(nnz_, 0);
  const auto next = arena.take(n, 0);  // a cursor per row or column
  for (std::size_t p = 0; p < nnz_; ++p) ++colPtr[aColIdx_[p] + 1];
  for (std::size_t c = 0; c < n; ++c) colPtr[c + 1] += colPtr[c];
  std::copy(colPtr.begin(), colPtr.end() - 1, next.begin());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = aRowPtr_[r]; p < aRowPtr_[r + 1]; ++p) {
      const std::size_t c = aColIdx_[p];
      RFIC_REQUIRE(next[c] == colPtr[c] || colRow[next[c] - 1] != r,
                   "SymbolicLU: duplicate position in CSR");
      colRow[next[c]] = static_cast<std::uint32_t>(r);
      colPos[next[c]++] = static_cast<std::uint32_t>(p);
    }
  const auto stepOfCol = arena.take(n, 0);
  for (std::size_t k = 0; k < n; ++k)
    stepOfCol[colOrder_[k]] = static_cast<std::uint32_t>(k);

  pivRow_.resize(n);
  pivCol_.resize(n);
  pivVal_.resize(n);
  lPtr_.assign(n + 1, 0);
  uPtr_.assign(n + 1, 0);  // U entries per step, then offsets
  lRow_.clear();
  lVal_.clear();
  // Each off-diagonal half of the factor, if every pivot is diagonal, with
  // room for the few entries an off-diagonal pivot adds (a voltage
  // source's branch row): a vector that outgrows its reservation copies
  // itself into twice the memory. Room never touched costs no page.
  const std::size_t half = diagonalLowerNnz_ + diagonalLowerNnz_ / 8 + n;
  lRow_.reserve(half);
  lVal_.reserve(half);

  // U entries in the order they are found (column by column): the step
  // that owns each, its column, value and next sibling. Each entry heads a
  // list in `head`: slot p < nnz_ lists the entry found at CSR position p,
  // slot nnz_ + e the fill entries that entry e's update created (the
  // children of one entry lie in distinct rows). The records are RowL
  // words (the sibling in `l`): once the U rows are placed, their buffer
  // becomes rowL_, so its pages are touched once.
  std::vector<RowL> found;
  std::vector<T> uFound;
  std::vector<std::uint32_t> head(nnz_, kNone);
  found.reserve(half);
  uFound.reserve(half);
  head.reserve(nnz_ + half);

  WorkColumn<T> x(n);                         // the column being built
  // 2·(the step whose column holds the row), plus 1 once the row is
  // pivoted: one load answers both questions.
  const auto inCol = arena.take(n, kNone - 1);
  // Its pattern, in list order, split into the unpivoted rows (the L part)
  // and the pivoted ones (the U part); one spare slot each for the
  // branch-free append.
  const auto lRows = arena.take(n + 1, 0), uRows = arena.take(n + 1, 0);
  const auto stepOfRow = arena.take(n, kNone);  // kNone: unpivoted
  // Where a pivoted row's entry in the column came from: its CSR position,
  // or nnz_ + the U entry whose update created it.
  const auto origin = arena.take(n, 0);
  // Supernodes: step j joins step j-1 when step j-1 updated column j and
  // |L(j)| + 1 = |L(j-1)|. Step j-1 put every row of L(j-1) into column j,
  // so the count proves L(j) ∪ {pivRow_[j]} = L(j-1): any column that
  // takes step j-1 then holds every row step j touches.
  const auto joinsPrev = arena.take(n, 0);
  const auto lInRow = arena.take(n, 0);  // L entries per row so far
  // Steps to apply to the column: every step reached from step j is later
  // than j, so a bitset scanned upward applies them in ascending order.
  std::vector<std::uint64_t> toApply((n + 63) / 64, 0);
  ActiveRowCounter rowLength(aRowPtr_, aColIdx_, stepOfCol, stepOfRow, pivRow_,
                             lPtr_, lRow_);
  snWork_ = {};

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t pc = colOrder_[k];
    const auto kk = static_cast<std::uint32_t>(k);
    std::size_t nl = 0, nu = 0;  // lRows[0, nl) and uRows[0, nu)
    std::size_t lo = toApply.size(), hi = 0;  // word range with bits set
    const auto reach = [&](std::uint32_t s) {
      toApply[s / 64] |= std::uint64_t{1} << (s % 64);
      lo = std::min<std::size_t>(lo, s / 64);
      hi = std::max<std::size_t>(hi, s / 64);
    };
    for (std::size_t q = colPtr[pc]; q < colPtr[pc + 1]; ++q) {
      const std::uint32_t r = colRow[q];
      x.set(r, vals[colPos[q]]);
      const std::uint32_t pivoted = inCol[r] & 1;
      inCol[r] = 2 * kk | pivoted;
      if (pivoted != 0) {
        uRows[nu++] = r;
        origin[r] = colPos[q];
        reach(stepOfRow[r]);
      } else {
        lRows[nl++] = r;
      }
    }
    bool tookPrevious = false;  // step k-1 updated this column
    // Row pivRow_[j] has taken every update of the steps before j, so its
    // entry is final: U(j, pc). It is filed under its origin.
    const auto takeU = [&](std::uint32_t j) {
      const std::uint32_t pr = pivRow_[j];
      const T u = x.get(pr);
      const auto e = static_cast<std::uint32_t>(found.size());
      const std::uint32_t o = origin[pr];
      found.push_back({static_cast<std::uint32_t>(pc), j, head[o]});
      head[o] = e;
      head.push_back(kNone);
      uFound.push_back(u);
      ++uPtr_[j + 1];
      return u;
    };
    for (std::size_t wd = lo; wd <= hi && wd < toApply.size(); ++wd)
      while (toApply[wd] != 0) {
        auto j = static_cast<std::uint32_t>(
            wd * 64 + static_cast<std::size_t>(std::countr_zero(toApply[wd])));
        toApply[wd] &= toApply[wd] - 1;
        const auto e = static_cast<std::uint32_t>(found.size());
        const T u = takeU(j);
        // Entries the step creates (fill) join the pattern, branch-free:
        // whether a row is new, or pivoted, does not follow a pattern the
        // branch predictor could learn.
        const std::size_t before = nu;
        for (std::size_t li = lPtr_[j]; li < lPtr_[j + 1]; ++li) {
          const std::uint32_t i = lRow_[li];
          const std::uint32_t held = inCol[i];
          const bool fill = held >> 1 != kk;
          const std::uint32_t pivoted = held & 1;
          inCol[i] = 2 * kk | pivoted;
          lRows[nl] = i;
          uRows[nu] = i;
          nl += fill & (pivoted == 0);
          nu += fill & (pivoted != 0);
          x.update(i, fill, lVal_[li], u);
        }
        // A fill row pivoted before k holds a U entry of this column,
        // created by this step's, and reaches its own step.
        for (std::size_t q = before; q < nu; ++q) {
          origin[uRows[q]] = static_cast<std::uint32_t>(nnz_) + e;
          reach(stepOfRow[uRows[q]]);
        }
        // The rest of j's supernode: the column now holds every row of
        // L(j+1), pivRow_[j+1] included, so step j+1 is the next one and
        // brings no fill, no new reach and no new origin.
        while (j + 1 < k && joinsPrev[j + 1] != 0) {
          ++j;
          toApply[j / 64] &= ~(std::uint64_t{1} << (j % 64));
          const T uj = takeU(j);
          const std::size_t len = lPtr_[j + 1] - lPtr_[j];
          subtractColumn(x, std::span(lRow_).subspan(lPtr_[j], len),
                         lVal_.data() + lPtr_[j], uj);
          ++snWork_.steps;
          snWork_.flops += len;
        }
        tookPrevious |= j + 1 == k;
      }
    const std::span<const std::uint32_t> pattern(lRows.data(), nl);

    // --- Pivot selection over the unpivoted rows of the column.
    Real cmax = 0;
    for (const std::uint32_t r : pattern)
      cmax = std::max(cmax, std::abs(x.get(r)));
    std::size_t pr = n;
    if (cmax > 0) {
      const Real tol = opts_.pivotThreshold * cmax;
      if (inCol[pc] == 2 * kk) {  // in the column, unpivoted
        const Real mag = std::abs(x.get(pc));
        if (mag > 0 && mag >= tol) pr = pc;
      }
      if (pr == n) {
        std::size_t bestLen = std::numeric_limits<std::size_t>::max();
        Real bestMag = 0;
        for (const std::uint32_t r : pattern) {
          const Real mag = std::abs(x.get(r));
          if (mag < tol) continue;
          const std::size_t rowLen = rowLength.lengthOf(r, kk);
          if (rowLen < bestLen || (rowLen == bestLen && mag > bestMag)) {
            pr = r;
            bestLen = rowLen;
            bestMag = mag;
          }
        }
      }
    }
    if (pr == n) failNumerical("SymbolicLU: matrix is singular");

    const T p = x.get(pr);
    pivRow_[k] = static_cast<std::uint32_t>(pr);
    pivCol_[k] = static_cast<std::uint32_t>(pc);
    pivVal_[k] = p;
    stepOfRow[pr] = kk;
    inCol[pr] |= 1;
    for (const std::uint32_t r : pattern)
      if (r != pr) {
        lRow_.push_back(r);
        lVal_.push_back(x.get(r) / p);
        ++lInRow[r];
      }
    lPtr_[k + 1] = lRow_.size();
    joinsPrev[k] = tookPrevious && lPtr_[k + 1] - lPtr_[k] + 1 ==
                                       lPtr_[k] - lPtr_[k - 1];
  }

  // U rows in stored order, with no sort: row j lists its input entries
  // in CSR order, then its fill by creating step and position in that
  // step's U row. So the rows are emitted in step order; once row j is in
  // place, its entries hand their children, in row order, to the fill part
  // of the later rows they belong to, which then fills up in exactly that
  // order. A slot holds its entry's index in `found` until its row is
  // emitted, and then the entry's column.
  for (std::size_t k = 0; k < n; ++k) uPtr_[k + 1] += uPtr_[k];
  const auto fillAt = next;  // next fill slot of each U row
  uCol_.resize(found.size());
  uVal_.resize(found.size());
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t q = uPtr_[k];
    const std::uint32_t r = pivRow_[k];
    for (std::size_t p = aRowPtr_[r]; p < aRowPtr_[r + 1]; ++p)
      if (stepOfCol[aColIdx_[p]] > k) uCol_[q++] = head[p];
    fillAt[k] = static_cast<std::uint32_t>(q);
  }
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t q = uPtr_[k]; q < uPtr_[k + 1]; ++q) {
      const std::uint32_t e = uCol_[q];
      uCol_[q] = found[e].col;
      uVal_[q] = uFound[e];
      for (std::uint32_t f = head[nnz_ + e]; f != kNone; f = found[f].l)
        uCol_[fillAt[found[f].step]++] = f;
    }

  // Row-wise L index: the L entries of the row pivoted at step s, in
  // ascending step — the order in which the elimination updated that row.
  rowLPtr_.resize(n + 1);
  rowLPtr_[0] = 0;
  for (std::size_t s = 0; s < n; ++s)
    rowLPtr_[s + 1] = rowLPtr_[s] + lInRow[pivRow_[s]];
  rowL_.swap(found);
  rowL_.resize(lRow_.size());
  for (std::size_t k = 0; k < n; ++k)
    next[k] = static_cast<std::uint32_t>(rowLPtr_[k]);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t li = lPtr_[k]; li < lPtr_[k + 1]; ++li)
      rowL_[next[stepOfRow[lRow_[li]]]++] = {
          pivCol_[k], static_cast<std::uint32_t>(k),
          static_cast<std::uint32_t>(li)};
  // replay() leaves the accumulator all-zero, so keeping what it holds is
  // the same as clearing it.
  acc_.resize(n);

  analyzed_ = true;
  perf::global().noteFactorFill(factorNnz());
  // Memory budget: charge the stored factorization grow-only, like the
  // workspace that owns it (charge-only contract; no-op without an
  // account). The analysis scratch above is released on return.
  const std::size_t bytes = storedBytes();
  if (bytes > chargedBytes_) {
    diag::memCharge(bytes - chargedBytes_);
    chargedBytes_ = bytes;
  }
}

template <class T>
std::size_t SymbolicLU<T>::programFlops() const {
  std::size_t flops = 0;
  for (std::size_t k = 0; k < n_; ++k)
    flops += (lPtr_[k + 1] - lPtr_[k]) * (uPtr_[k + 1] - uPtr_[k]);
  return flops;
}

template <class T>
std::size_t SymbolicLU<T>::storedBytes() const {
  constexpr std::size_t kIdx = sizeof(std::uint32_t);
  constexpr std::size_t kPtr = sizeof(std::size_t);
  return (aRowPtr_.size() + lPtr_.size() + uPtr_.size() + rowLPtr_.size()) *
             kPtr +
         (aColIdx_.size() + colOrder_.size() + pivRow_.size() +
          pivCol_.size() + lRow_.size() + uCol_.size()) *
             kIdx +
         rowL_.size() * sizeof(RowL) +
         // factoredVals_ holds one value per input position.
         (pivVal_.size() + lVal_.size() + uVal_.size() + acc_.size() + nnz_) *
             sizeof(T);
}

// Row-by-row (up-looking) numeric pass over the stored pattern. Row s —
// input row pivRow_[s] — is scattered into the n-entry accumulator, then
// takes its L entries in ascending step k: m = acc[pivCol_[k]] / pivVal_[k],
// and acc -= m·(U row of step k). Every factor entry thus receives the
// analysis's updates in the analysis's order, so a replay equals a fresh
// factorization with the same pivots bit for bit. Row s ends with its
// pivot and U values, which later rows read. Every entry a row touches is
// zeroed as it is read, so the accumulator is all-zero again on return,
// also when the guards abort. Returns false when the pivots chosen at
// analysis time are no longer numerically acceptable for these values.
template <class T>
bool SymbolicLU<T>::replay(const T* vals) {
  const Real maxIn = detail::maxMagnitude(vals, nnz_);
  if (!(maxIn > 0) || !std::isfinite(maxIn)) return false;
  const Real floor = opts_.pivotFloor * maxIn;
  const Real cap = opts_.growthLimit * maxIn;

  T* const acc = acc_.data();
  for (std::size_t s = 0; s < n_; ++s) {
    const std::uint32_t r = pivRow_[s];
    for (std::size_t q = aRowPtr_[r]; q < aRowPtr_[r + 1]; ++q)
      acc[aColIdx_[q]] = vals[q];
    for (std::size_t e = rowLPtr_[s]; e < rowLPtr_[s + 1]; ++e) {
      const RowL& l = rowL_[e];
      T& num = acc[l.col];
      const T m = num / pivVal_[l.step];
      num = T{};
      lVal_[l.l] = m;
      if (m == T{}) continue;
      // acc -= m·(U row of step l.step), unrolled by four: a row replay
      // runs one short loop per L entry, so loop overhead is a large share
      // of each update. The targets are distinct, so order is immaterial.
      const std::uint32_t* uc = uCol_.data() + uPtr_[l.step];
      const T* uv = uVal_.data() + uPtr_[l.step];
      const T* const uvEnd = uVal_.data() + uPtr_[l.step + 1];
      for (; uvEnd - uv >= 4; uv += 4, uc += 4) {
        acc[uc[0]] -= m * uv[0];
        acc[uc[1]] -= m * uv[1];
        acc[uc[2]] -= m * uv[2];
        acc[uc[3]] -= m * uv[3];
      }
      for (; uv != uvEnd; ++uv, ++uc) acc[*uc] -= m * *uv;
    }
    T& piv = acc[pivCol_[s]];
    const T p = piv;
    piv = T{};
    pivVal_[s] = p;
    // Growth: any U value so far above the cap. Earlier rows passed, so
    // this row's U values and pivot decide; a NaN U value is ignored, as a
    // NaN-ignoring max over them would.
    bool grew = false;
    for (std::size_t q = uPtr_[s]; q < uPtr_[s + 1]; ++q) {
      T& u = acc[uCol_[q]];
      uVal_[q] = u;
      grew |= detail::magnitudeAbove(u, cap);
      u = T{};
    }
    const Real pm = std::abs(p);
    if (!(pm > floor)) return false;          // tiny, zero, or NaN pivot
    if (grew || !(pm <= cap)) return false;  // growth or non-finite
  }
  return true;
}

template <class T>
RFIC_REALTIME diag::SolverStatus SymbolicLU<T>::refactor(
    const std::vector<T>& values) {
  RFIC_REQUIRE(analyzed_, "SymbolicLU::refactor before factor");
  RFIC_REQUIRE(values.size() == nnz_,
               "SymbolicLU::refactor value count mismatch");
  // factor-repivot fault point: pretend the replayed pivots went bad so the
  // fresh-analysis fallback below runs (and callers see Repivoted).
  const bool forceRepivot =
      diag::FaultInjector::global().fire(diag::FaultPoint::FactorRepivot);
  // Refactor skip: a replay of the values the current factors came from
  // would recompute the same factors bit for bit.
  if (!forceRepivot && factoredValid_ &&
      std::memcmp(values.data(), factoredVals_.data(), nnz_ * sizeof(T)) ==
          0) {
    perf::global().addRefactorSkip();
    return diag::SolverStatus::Converged;
  }
  const perf::Timer timer;
  factoredValid_ = false;
  if (!forceRepivot && replay(values.data())) {
    std::copy(values.begin(), values.end(), factoredVals_.begin());
    factoredValid_ = true;
    perf::global().addRefactorization(timer.ns());
    return diag::SolverStatus::Converged;
  }
  // Pivot growth (or a sign/topology change in the values) invalidated the
  // recorded pivot order — redo the full analysis with fresh pivots.
  analyzeFromValues(values.data());  // rt: allow(rt-alloc) cold Repivoted
  // fallback — runs only when the recorded pivots went numerically bad;
  // callers observe it through the returned status and perf counters
  perf::global().addFactorization(timer.ns());
  return diag::SolverStatus::Repivoted;
}

template <class T>
Vec<T> SymbolicLU<T>::solve(const Vec<T>& b) const {
  Vec<T> x, y, z;
  solve(b, x, y, z);
  return x;
}

// The factors satisfy A = Pᵀ·L·U·Qᵀ, with P and Q the pivot row and column
// permutations, so Aᵀ = Q·Uᵀ·Lᵀ·P: forward through Uᵀ in elimination order
// (reading b by pivot column), then backward through the unit Lᵀ,
// scattering by pivot row.
template <class T>
Vec<T> SymbolicLU<T>::solveTransposed(const Vec<T>& b) const {
  RFIC_REQUIRE(analyzed_, "SymbolicLU::solveTransposed before factor");
  RFIC_REQUIRE(b.size() == n_, "SymbolicLU::solveTransposed size mismatch");
  Vec<T> y = b;  // indexed by original column
  Vec<T> z(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const T zk = y[pivCol_[k]] / pivVal_[k];
    z[k] = zk;
    if (zk == T{}) continue;
    for (std::size_t q = uPtr_[k]; q < uPtr_[k + 1]; ++q)
      y[uCol_[q]] -= uVal_[q] * zk;
  }
  Vec<T> x(n_);  // indexed by original row
  for (std::size_t k = n_; k-- > 0;) {
    T s = z[k];
    for (std::size_t q = lPtr_[k]; q < lPtr_[k + 1]; ++q)
      s -= lVal_[q] * x[lRow_[q]];
    x[pivRow_[k]] = s;
  }
  return x;
}

template <class T>
RFIC_REALTIME void SymbolicLU<T>::solve(const Vec<T>& b, Vec<T>& x,
                                        Vec<T>& scratchY,
                                        Vec<T>& scratchZ) const {
  RFIC_REQUIRE(analyzed_, "SymbolicLU::solve before factor");
  RFIC_REQUIRE(b.size() == n_, "SymbolicLU::solve size mismatch");
  // Zero-allocation variant for hot loops: the scratch vectors (and x)
  // grow on first use and are reused verbatim afterwards.
  scratchY.resize(n_);  // rt: allow(rt-alloc) grow-once caller scratch
  scratchZ.resize(n_);  // rt: allow(rt-alloc) grow-once caller scratch
  x.resize(n_);         // rt: allow(rt-alloc) grow-once caller solution
  Vec<T>& y = scratchY;
  Vec<T>& z = scratchZ;
  // Forward: replay the elimination on the right-hand side.
  for (std::size_t i = 0; i < n_; ++i) y[i] = b[i];
  for (std::size_t k = 0; k < n_; ++k) {
    const T zk = y[pivRow_[k]];
    z[k] = zk;
    if (zk == T{}) continue;
    for (std::size_t q = lPtr_[k]; q < lPtr_[k + 1]; ++q)
      y[lRow_[q]] -= lVal_[q] * zk;
  }
  // Backward: solve U in elimination order, scatter by the column perm.
  for (std::size_t k = n_; k-- > 0;) {
    T s = z[k];
    for (std::size_t q = uPtr_[k]; q < uPtr_[k + 1]; ++q)
      s -= uVal_[q] * x[uCol_[q]];
    x[pivCol_[k]] = s / pivVal_[k];
  }
}

template class SymbolicLU<Real>;
template class SymbolicLU<Complex>;

}  // namespace rfic::sparse
