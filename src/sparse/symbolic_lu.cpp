#include "sparse/symbolic_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "diag/resilience.hpp"
#include "perf/perf.hpp"

namespace rfic::sparse {

namespace {

constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// One entry of the active submatrix as seen from its row (`idx` = column)
/// or from its column (`idx` = row), with the workspace slot of its value.
struct Entry {
  std::uint32_t idx;
  std::uint32_t slot;
};

/// Factor size and update-program length if every pivot lands on the
/// diagonal: the Cholesky factor of the symmetrized pattern eliminated in
/// `order`, counted with one row-subtree walk per row over the elimination
/// tree as it grows (O(factor size)). Column r has c_r entries below the
/// diagonal, so the factor holds n + 2·Σc_r entries and step r replays
/// c_r² updates. The analysis only uses it to reserve its two large arrays
/// up front: in a cold process their growth copies and first-touch page
/// faults cost as much as the elimination itself.
struct DiagonalPivotCounts {
  std::size_t factorNnz = 0;
  std::size_t flops = 0;
};

DiagonalPivotCounts diagonalPivotCounts(
    std::size_t n, const std::vector<std::size_t>& rowPtr,
    const std::vector<std::uint32_t>& colIdx,
    const std::vector<std::uint32_t>& order) {
  std::vector<std::uint32_t> pinv(n);
  for (std::size_t k = 0; k < n; ++k)
    pinv[order[k]] = static_cast<std::uint32_t>(k);
  // Strictly lower triangle of the permuted symmetrized pattern, by row
  // (an entry present in both triangles appears twice; the walk below
  // stops at once on the repeat).
  std::vector<std::size_t> lowPtr(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p)
      if (colIdx[p] != r) ++lowPtr[std::max(pinv[r], pinv[colIdx[p]]) + 1];
  for (std::size_t k = 0; k < n; ++k) lowPtr[k + 1] += lowPtr[k];
  std::vector<std::uint32_t> low(lowPtr[n]);
  std::vector<std::size_t> next(lowPtr.begin(), lowPtr.end() - 1);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p)
      if (colIdx[p] != r) {
        const std::uint32_t a = pinv[r], b = pinv[colIdx[p]];
        low[next[std::max(a, b)]++] = std::min(a, b);
      }

  // Row k of the factor is the union of the tree paths from each j in
  // low[k] up to k; a root met on the way gets k as its parent.
  std::vector<std::uint32_t> parent(n, kNoSlot), mark(n, kNoSlot);
  std::vector<std::size_t> below(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto kk = static_cast<std::uint32_t>(k);
    mark[k] = kk;
    for (std::size_t q = lowPtr[k]; q < lowPtr[k + 1]; ++q)
      for (std::uint32_t r = low[q]; mark[r] != kk; r = parent[r]) {
        mark[r] = kk;
        ++below[r];
        if (parent[r] == kNoSlot) parent[r] = kk;
      }
  }
  DiagonalPivotCounts out{n, 0};
  for (const std::size_t c : below) {
    out.factorNnz += 2 * c;
    out.flops += c * c;
  }
  return out;
}

}  // namespace

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
    colOrder_ = amdOrder(n_, aRowPtr_, aColIdx_);
    orderingNs = orderTimer.ns();
  } else {
    colOrder_.resize(n_);
    std::iota(colOrder_.begin(), colOrder_.end(), std::uint32_t{0});
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

// Full elimination recording the slot-level update program for later
// replay. Columns are eliminated in the colOrder_ sequence (AMD's
// fill-reducing order, or the identity under Natural); only the pivot
// *row* is chosen numerically: the diagonal if it passes the relative
// threshold, else the shortest active row that does (the Markowitz count
// with the column fixed), ties to the larger magnitude.
//
// The active submatrix lives in flat per-row (col, slot) and per-column
// (row, slot) lists. Slots [0, nnz_) are the input CSR positions in
// order; fill-in appends. Eliminated rows stay in the column lists until a
// scan compacts them out (rowActive marks the live rows, colLen counts a
// column's live entries); a row is compacted each time it is scattered for
// an update, so an active row's list holds exactly its live entries.
template <class T>
void SymbolicLU<T>::analyzeFromValues(const T* vals) {
  analyzed_ = false;

  std::vector<std::vector<Entry>> rows(n_), cols(n_);
  std::vector<std::size_t> colLen(n_, 0);
  // Slot of each (i, i) while row i and column i are both active.
  std::vector<std::uint32_t> diagSlot(n_, kNoSlot);
  // Column -> slot of the row being scattered (kNoSlot elsewhere).
  std::vector<std::uint32_t> pos(n_, kNoSlot);
  w_.assign(nnz_, T{});
  for (std::size_t r = 0; r < n_; ++r) {
    rows[r].reserve(aRowPtr_[r + 1] - aRowPtr_[r]);
    for (std::size_t p = aRowPtr_[r]; p < aRowPtr_[r + 1]; ++p) {
      const std::uint32_t c = aColIdx_[p];
      const auto slot = static_cast<std::uint32_t>(p);
      RFIC_REQUIRE(pos[c] == kNoSlot, "SymbolicLU: duplicate position in CSR");
      pos[c] = slot;
      rows[r].push_back({c, slot});
      cols[c].push_back({static_cast<std::uint32_t>(r), slot});
      ++colLen[c];
      if (c == r) diagSlot[r] = slot;
      w_[p] = vals[p];
    }
    for (const Entry& e : rows[r]) pos[e.idx] = kNoSlot;
  }

  const DiagonalPivotCounts est =
      diagonalPivotCounts(n_, aRowPtr_, aColIdx_, colOrder_);
  w_.reserve(est.factorNnz);  // every slot ends as one factor entry
  updTarget_.reserve(est.flops);

  std::vector<char> rowActive(n_, 1);
  pivRow_.resize(n_);
  pivCol_.resize(n_);
  pivVal_.resize(n_);
  pivSlot_.resize(n_);
  lPtr_.assign(n_ + 1, 0);
  uPtr_.assign(n_ + 1, 0);
  lRow_.clear();
  uCol_.clear();
  lVal_.clear();
  uVal_.clear();
  lSlot_.clear();
  uSlot_.clear();
  updTarget_.clear();

  // Live entries of column c, in insertion order (input rows ascending,
  // then fill in creation order); drops eliminated rows on the way.
  const auto liveCol = [&](std::size_t c) -> const std::vector<Entry>& {
    auto& col = cols[c];
    if (col.size() != colLen[c])
      std::erase_if(col, [&](const Entry& e) { return !rowActive[e.idx]; });
    return col;
  };
  const auto columnMax = [&](std::size_t c) {
    Real m = 0;
    for (const Entry& e : liveCol(c)) m = std::max(m, std::abs(w_[e.slot]));
    return m;
  };

  for (std::size_t k = 0; k < n_; ++k) {
    // --- Pivot selection: the column is the pre-ordered one, so only the
    // row is a numeric decision.
    const std::size_t pc = colOrder_[k];
    const Real cmax = columnMax(pc);
    std::size_t pr = n_;
    std::uint32_t pivSlot = kNoSlot;
    if (cmax > 0) {
      const Real tol = opts_.pivotThreshold * cmax;
      if (rowActive[pc] && diagSlot[pc] != kNoSlot) {
        const Real mag = std::abs(w_[diagSlot[pc]]);
        if (mag > 0 && mag >= tol) {
          pr = pc;
          pivSlot = diagSlot[pc];
        }
      }
      if (pr == n_) {
        std::size_t bestLen = std::numeric_limits<std::size_t>::max();
        Real bestMag = 0;
        for (const Entry& e : liveCol(pc)) {
          const Real mag = std::abs(w_[e.slot]);
          if (mag < tol) continue;
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
    if (pr == n_) failNumerical("SymbolicLU: matrix is singular");

    const T p = w_[pivSlot];
    pivRow_[k] = static_cast<std::uint32_t>(pr);
    pivCol_[k] = static_cast<std::uint32_t>(pc);
    pivSlot_[k] = pivSlot;
    pivVal_[k] = p;
    rowActive[pr] = 0;

    // Record the U row (pivot entry excluded) in stored order and detach
    // the pivot row from the column counts.
    for (const Entry& e : rows[pr]) {
      if (e.idx == pc) continue;
      --colLen[e.idx];
      uCol_.push_back(e.idx);
      uSlot_.push_back(e.slot);
      uVal_.push_back(w_[e.slot]);
    }
    uPtr_[k + 1] = uVal_.size();

    // Eliminate below the pivot, recording L entries and the flattened
    // (target -= m·source) program. The numeric update runs here too so
    // later pivot choices see the true partial values.
    const std::size_t u0 = uPtr_[k], u1 = uPtr_[k + 1];
    for (const Entry& e : cols[pc]) {
      const std::size_t i = e.idx;
      if (!rowActive[i]) continue;
      const T m = w_[e.slot] / p;
      // A zero multiplier updates nothing, as in replay(): skipping its
      // flops keeps the two bit-identical (0·u could turn a -0.0 target
      // into +0.0, or an infinite u into NaN).
      const bool live = m != T{};
      lRow_.push_back(e.idx);
      lSlot_.push_back(e.slot);
      lVal_.push_back(m);
      // Scatter row i, dropping its entry in the pivot column.
      auto& row = rows[i];
      std::erase_if(row, [&](const Entry& f) { return f.idx == pc; });
      for (const Entry& f : row) pos[f.idx] = f.slot;
      for (std::size_t q = u0; q < u1; ++q) {
        const std::uint32_t c = uCol_[q];
        std::uint32_t& s = pos[c];
        if (s == kNoSlot) {
          s = static_cast<std::uint32_t>(w_.size());
          if (c == i) diagSlot[i] = s;  // diagonal fill-in
          w_.push_back(T{});
          row.push_back({c, s});
          cols[c].push_back({static_cast<std::uint32_t>(i), s});
          ++colLen[c];
        }
        if (live) w_[s] -= m * w_[uSlot_[q]];
        updTarget_.push_back(s);
      }
      for (const Entry& f : row) pos[f.idx] = kNoSlot;
    }
    lPtr_[k + 1] = lVal_.size();
    cols[pc] = std::vector<Entry>();
    rows[pr] = std::vector<Entry>();
  }

  analyzed_ = true;
  perf::global().noteFactorFill(factorNnz());
}

// Pure numeric pass: zero the workspace, scatter the new values, replay the
// recorded flop sequence. Returns false when the pivots recorded at
// analysis time are no longer numerically acceptable for these values.
template <class T>
bool SymbolicLU<T>::replay(const T* vals) {
  w_.assign(w_.size(), T{});  // rt: allow(rt-alloc) same-size overwrite of
  // the analysis-sized slot workspace — never reallocates
  Real maxIn = 0;
  for (std::size_t p = 0; p < nnz_; ++p) {
    w_[p] = vals[p];
    maxIn = std::max(maxIn, std::abs(vals[p]));
  }
  if (!(maxIn > 0) || !std::isfinite(maxIn)) return false;
  const Real floor = opts_.pivotFloor * maxIn;
  const Real cap = opts_.growthLimit * maxIn;

  Real maxU = 0;
  std::size_t up = 0;  // cursor into updTarget_
  for (std::size_t k = 0; k < n_; ++k) {
    const T p = w_[pivSlot_[k]];
    const Real pm = std::abs(p);
    if (!(pm > floor)) return false;  // tiny, zero, or NaN pivot
    pivVal_[k] = p;
    const std::size_t u0 = uPtr_[k], u1 = uPtr_[k + 1];
    for (std::size_t q = u0; q < u1; ++q) {
      const T u = w_[uSlot_[q]];
      uVal_[q] = u;
      maxU = std::max(maxU, std::abs(u));
    }
    maxU = std::max(maxU, pm);
    if (!(maxU <= cap)) return false;  // growth or non-finite
    const std::size_t ulen = u1 - u0;
    for (std::size_t li = lPtr_[k]; li < lPtr_[k + 1]; ++li) {
      const T m = w_[lSlot_[li]] / p;
      lVal_[li] = m;
      if (m == T{}) {
        up += ulen;
        continue;
      }
      for (std::size_t q = u0; q < u1; ++q)
        w_[updTarget_[up++]] -= m * w_[uSlot_[q]];
    }
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
