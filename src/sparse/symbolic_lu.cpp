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

/// Factor size if every pivot lands on the diagonal: the Cholesky factor of
/// the symmetrized pattern eliminated in `order`, counted with one
/// row-subtree walk per row over the elimination tree as it grows
/// (O(factor size)). Column r has c_r entries below the diagonal, so the
/// factor holds n + 2·Σc_r entries. The analysis only uses it to reserve
/// its slot workspace up front: in a cold process its growth copies and
/// first-touch page faults cost as much as the elimination itself.
std::size_t diagonalPivotFactorNnz(
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
  std::size_t factorNnz = n;
  for (const std::size_t c : below) factorNnz += 2 * c;
  return factorNnz;
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

// Full right-looking elimination that picks the pivots and computes the
// factors. Columns are eliminated in the colOrder_ sequence (AMD's
// fill-reducing order, or the identity under Natural); only the pivot
// *row* is chosen numerically: the diagonal if it passes the relative
// threshold, else the shortest active row that does (the Markowitz count
// with the column fixed), ties to the larger magnitude.
//
// The active submatrix lives in flat per-row (col, slot) and per-column
// (row, slot) lists over a slot workspace `w`. Slots [0, nnz_) are the
// input CSR positions in order; fill-in appends. Eliminated rows stay in
// the column lists until a scan compacts them out (rowActive marks the live
// rows, colLen counts a column's live entries); a row is compacted each
// time it is scattered for an update, so an active row's list holds
// exactly its live entries. All of it is local: what outlives the analysis
// is the factors and the row-wise L index replay() walks.
template <class T>
void SymbolicLU<T>::analyzeFromValues(const T* vals) {
  analyzed_ = false;

  std::vector<std::vector<Entry>> rows(n_), cols(n_);
  std::vector<std::size_t> colLen(n_, 0);
  // Slot of each (i, i) while row i and column i are both active.
  std::vector<std::uint32_t> diagSlot(n_, kNoSlot);
  // Column -> slot of the row being scattered (kNoSlot elsewhere).
  std::vector<std::uint32_t> pos(n_, kNoSlot);
  std::vector<T> w;
  // Every slot ends as one factor entry.
  w.reserve(diagonalPivotFactorNnz(n_, aRowPtr_, aColIdx_, colOrder_));
  w.assign(vals, vals + nnz_);
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
    }
    for (const Entry& e : rows[r]) pos[e.idx] = kNoSlot;
  }

  std::vector<char> rowActive(n_, 1);
  pivRow_.resize(n_);
  pivCol_.resize(n_);
  pivVal_.resize(n_);
  lPtr_.assign(n_ + 1, 0);
  uPtr_.assign(n_ + 1, 0);
  lRow_.clear();
  uCol_.clear();
  lVal_.clear();
  uVal_.clear();

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
    for (const Entry& e : liveCol(c)) m = std::max(m, std::abs(w[e.slot]));
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
        const Real mag = std::abs(w[diagSlot[pc]]);
        if (mag > 0 && mag >= tol) {
          pr = pc;
          pivSlot = diagSlot[pc];
        }
      }
      if (pr == n_) {
        std::size_t bestLen = std::numeric_limits<std::size_t>::max();
        Real bestMag = 0;
        for (const Entry& e : liveCol(pc)) {
          const Real mag = std::abs(w[e.slot]);
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

    const T p = w[pivSlot];
    pivRow_[k] = static_cast<std::uint32_t>(pr);
    pivCol_[k] = static_cast<std::uint32_t>(pc);
    pivVal_[k] = p;
    rowActive[pr] = 0;

    // Record the U row (pivot entry excluded) in stored order and detach
    // the pivot row from the column counts.
    for (const Entry& e : rows[pr]) {
      if (e.idx == pc) continue;
      --colLen[e.idx];
      uCol_.push_back(e.idx);
      uVal_.push_back(w[e.slot]);
    }
    uPtr_[k + 1] = uVal_.size();

    // Eliminate below the pivot, recording the L entries. The pivot row
    // is never a target, so its U values are final: the update reads them
    // from uVal_, as replay() does.
    const std::size_t u0 = uPtr_[k], u1 = uPtr_[k + 1];
    for (const Entry& e : cols[pc]) {
      const std::size_t i = e.idx;
      if (!rowActive[i]) continue;
      const T m = w[e.slot] / p;
      // A zero multiplier updates nothing, as in replay(): skipping its
      // flops keeps the two bit-identical (0·u could turn a -0.0 target
      // into +0.0, or an infinite u into NaN).
      const bool live = m != T{};
      lRow_.push_back(e.idx);
      lVal_.push_back(m);
      // Scatter row i, dropping its entry in the pivot column.
      auto& row = rows[i];
      std::erase_if(row, [&](const Entry& f) { return f.idx == pc; });
      for (const Entry& f : row) pos[f.idx] = f.slot;
      for (std::size_t q = u0; q < u1; ++q) {
        const std::uint32_t c = uCol_[q];
        std::uint32_t& s = pos[c];
        if (s == kNoSlot) {
          s = static_cast<std::uint32_t>(w.size());
          if (c == i) diagSlot[i] = s;  // diagonal fill-in
          w.push_back(T{});
          row.push_back({c, s});
          cols[c].push_back({static_cast<std::uint32_t>(i), s});
          ++colLen[c];
        }
        if (live) w[s] -= m * uVal_[q];
      }
      for (const Entry& f : row) pos[f.idx] = kNoSlot;
    }
    lPtr_[k + 1] = lVal_.size();
    cols[pc] = std::vector<Entry>();
    rows[pr] = std::vector<Entry>();
  }

  // Row-wise L index: the L entries of the row pivoted at step s, in
  // ascending step — the order in which the elimination updated that row.
  std::vector<std::uint32_t> stepOfRow(n_);
  for (std::size_t k = 0; k < n_; ++k)
    stepOfRow[pivRow_[k]] = static_cast<std::uint32_t>(k);
  rowLPtr_.assign(n_ + 1, 0);
  for (const std::uint32_t r : lRow_) ++rowLPtr_[stepOfRow[r] + 1];
  for (std::size_t s = 0; s < n_; ++s) rowLPtr_[s + 1] += rowLPtr_[s];
  rowL_.resize(lRow_.size());
  std::vector<std::size_t> next(rowLPtr_.begin(), rowLPtr_.end() - 1);
  for (std::size_t k = 0; k < n_; ++k)
    for (std::size_t li = lPtr_[k]; li < lPtr_[k + 1]; ++li)
      rowL_[next[stepOfRow[lRow_[li]]]++] = {
          pivCol_[k], static_cast<std::uint32_t>(k),
          static_cast<std::uint32_t>(li)};
  // replay() leaves the accumulator all-zero, so keeping what it holds is
  // the same as clearing it.
  acc_.resize(n_);

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
  // max|A| over four lanes: the max of magnitudes is exact and ignores a
  // NaN whatever the order, so the lanes give the serial result without
  // its loop-carried latency.
  Real lane[4] = {0, 0, 0, 0};
  std::size_t p = 0;
  for (; p + 4 <= nnz_; p += 4)
    for (std::size_t j = 0; j < 4; ++j)
      lane[j] = std::max(lane[j], std::abs(vals[p + j]));
  for (; p < nnz_; ++p) lane[0] = std::max(lane[0], std::abs(vals[p]));
  const Real maxIn =
      std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  if (!(maxIn > 0) || !std::isfinite(maxIn)) return false;
  const Real floor = opts_.pivotFloor * maxIn;
  const Real cap = opts_.growthLimit * maxIn;

  T* const acc = acc_.data();
  Real maxU = 0;
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
    Real rowMax = maxU;
    for (std::size_t q = uPtr_[s]; q < uPtr_[s + 1]; ++q) {
      T& u = acc[uCol_[q]];
      uVal_[q] = u;
      rowMax = std::max(rowMax, std::abs(u));
      u = T{};
    }
    const Real pm = std::abs(p);
    if (!(pm > floor)) return false;  // tiny, zero, or NaN pivot
    maxU = std::max(rowMax, pm);
    if (!(maxU <= cap)) return false;  // growth or non-finite
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
