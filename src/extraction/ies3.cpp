#include "extraction/ies3.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "diag/resilience.hpp"
#include "extraction/panel_kernel.hpp"
#include "numeric/lu.hpp"
#include "numeric/qr.hpp"
#include "numeric/svd.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::extraction {

Real IES3Matrix::Cluster::diameter() const {
  return (hi - lo).norm();
}

Real IES3Matrix::clusterDistance(const Cluster& a, const Cluster& b) {
  auto axisGap = [](Real alo, Real ahi, Real blo, Real bhi) {
    if (ahi < blo) return blo - ahi;
    if (bhi < alo) return alo - bhi;
    return 0.0;
  };
  const Real dx = axisGap(a.lo.x, a.hi.x, b.lo.x, b.hi.x);
  const Real dy = axisGap(a.lo.y, a.hi.y, b.lo.y, b.hi.y);
  const Real dz = axisGap(a.lo.z, a.hi.z, b.lo.z, b.hi.z);
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

int IES3Matrix::buildTree(std::vector<Vec3>& pts, std::size_t begin,
                          std::size_t end, const IES3Options& opts) {
  Cluster c;
  c.begin = begin;
  c.end = end;
  c.lo = {1e300, 1e300, 1e300};
  c.hi = {-1e300, -1e300, -1e300};
  for (std::size_t t = begin; t < end; ++t) {
    const Vec3& p = pts[perm_[t]];
    c.lo.x = std::min(c.lo.x, p.x);
    c.lo.y = std::min(c.lo.y, p.y);
    c.lo.z = std::min(c.lo.z, p.z);
    c.hi.x = std::max(c.hi.x, p.x);
    c.hi.y = std::max(c.hi.y, p.y);
    c.hi.z = std::max(c.hi.z, p.z);
  }
  const int self = static_cast<int>(clusters_.size());
  clusters_.push_back(c);
  if (end - begin > opts.leafSize) {
    // Split along the longest box axis at the median.
    const Vec3 ext = c.hi - c.lo;
    auto key = [&](std::size_t orig) {
      const Vec3& p = pts[orig];
      if (ext.x >= ext.y && ext.x >= ext.z) return p.x;
      if (ext.y >= ext.z) return p.y;
      return p.z;
    };
    const std::size_t mid = begin + (end - begin) / 2;
    std::nth_element(perm_.begin() + static_cast<std::ptrdiff_t>(begin),
                     perm_.begin() + static_cast<std::ptrdiff_t>(mid),
                     perm_.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::size_t a, std::size_t b) {
                       return key(a) < key(b);
                     });
    const int l = buildTree(pts, begin, mid, opts);
    const int r = buildTree(pts, mid, end, opts);
    clusters_[static_cast<std::size_t>(self)].left = l;
    clusters_[static_cast<std::size_t>(self)].right = r;
  }
  return self;
}

namespace {

/// Implicit view of one matrix block: global row/column index spans into
/// the tree permutation, with row/column sampling routed through the
/// kernel's batch entry points — one virtual call per sampled row/column
/// instead of one per entry.
struct BlockView {
  const EntryKernel* kernel;
  const std::size_t* rows;  // global indices of the block's rows
  const std::size_t* cols;
  std::size_t m, n;

  void row(std::size_t i, Real* out) const {
    kernel->row(rows[i], cols, n, out);
  }
  void column(std::size_t j, Real* out) const {
    kernel->column(cols[j], rows, m, out);
  }
  void fillDense(RMat& a) const {
    a.resize(m, n);
    for (std::size_t i = 0; i < m; ++i) kernel->row(rows[i], cols, n,
                                                    a.rowPtr(i));
  }
};

// Adaptive cross approximation with partial pivoting on an implicitly
// defined m×n block; returns factors U (m×r), V (n×r) with block ≈ U·Vᵀ.
void acaCompress(const BlockView& blk, Real tol, std::size_t maxRank,
                 RMat& uOut, RMat& vOut) {
  const std::size_t m = blk.m, n = blk.n;
  RFIC_REQUIRE(m > 0 && n > 0, "acaCompress: empty block");
  RFIC_REQUIRE(tol > 0, "acaCompress: tolerance must be positive");
  std::vector<RVec> us, vs;
  std::vector<char> rowUsed(m, 0), colUsed(n, 0);
  Real frob2 = 0;  // running ‖S_k‖²_F estimate
  std::size_t pivotRow = 0;

  for (std::size_t k = 0; k < std::min({m, n, maxRank}); ++k) {
    // Residual row at pivotRow.
    RVec row(n);
    blk.row(pivotRow, row.data());
    for (std::size_t p = 0; p < us.size(); ++p)
      for (std::size_t j = 0; j < n; ++j)
        row[j] -= us[p][pivotRow] * vs[p][j];
    // Column pivot.
    std::size_t pj = n;
    Real best = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (colUsed[j]) continue;
      const Real a = std::abs(row[j]);
      if (a > best) {
        best = a;
        pj = j;
      }
    }
    rowUsed[pivotRow] = 1;
    if (pj == n || best == 0) break;
    colUsed[pj] = 1;

    const Real piv = row[pj];
    RVec v = row;
    v *= 1.0 / piv;
    RVec u(m);
    blk.column(pj, u.data());
    for (std::size_t p = 0; p < us.size(); ++p)
      for (std::size_t i = 0; i < m; ++i) u[i] -= vs[p][pj] * us[p][i];

    const Real nu = numeric::norm2(u), nv = numeric::norm2(v);
    frob2 += nu * nu * nv * nv;
    us.push_back(std::move(u));
    vs.push_back(std::move(v));
    if (nu * nv <= tol * std::sqrt(frob2)) break;

    // Next pivot row: largest unused residual entry of the new column.
    pivotRow = m;
    best = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (rowUsed[i]) continue;
      const Real a = std::abs(us.back()[i]);
      if (a >= best) {
        best = a;
        pivotRow = i;
      }
    }
    if (pivotRow == m) break;
  }

  const std::size_t r = us.size();
  uOut = RMat(m, r);
  vOut = RMat(n, r);
  for (std::size_t p = 0; p < r; ++p) {
    for (std::size_t i = 0; i < m; ++i) uOut(i, p) = us[p][i];
    for (std::size_t j = 0; j < n; ++j) vOut(j, p) = vs[p][j];
  }
}

// SVD recompression of U·Vᵀ to minimal rank at relative tolerance tol.
void svdRecompress(RMat& u, RMat& v, Real tol) {
  const std::size_t r = u.cols();
  if (r == 0 || u.rows() < r || v.rows() < r) return;
  const numeric::ThinQR qu = numeric::thinQR(u);
  const numeric::ThinQR qv = numeric::thinQR(v);
  // Core = Ru · Rvᵀ (r × r).
  const RMat core = qu.r * qv.r.transposed();
  const numeric::SVD dec = numeric::svd(core);
  const std::size_t keep = numeric::numericalRank(dec, tol);
  if (keep >= r) return;  // nothing gained
  // U ← Qu·Us·diag(s)  (m×keep), V ← Qv·Vs  (n×keep).
  RMat usS(r, keep);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t k = 0; k < keep; ++k) usS(i, k) = dec.u(i, k) * dec.s[k];
  RMat vsK(r, keep);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t k = 0; k < keep; ++k) vsK(i, k) = dec.v(i, k);
  u = qu.q * usS;
  v = qv.q * vsK;
}

}  // namespace

void IES3Matrix::planBlocks(const IES3Options& opts,
                            std::vector<BlockTask>& tasks) const {
  // Iterative DFS over the cluster-pair tree, same visit order as the old
  // recursion. Planning touches no matrix entries, so it is cheap; the
  // expensive sampling work lands in the flat task list.
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [rc, cc] = stack.back();
    stack.pop_back();
    const Cluster& a = clusters_[rc];
    const Cluster& b = clusters_[cc];
    const Real dist = clusterDistance(a, b);
    // Admissibility: both clusters separated on the scale of their
    // diameters. The ACA+SVD pass then finds the numerical rank by
    // sampling the actual matrix — the IES³ kernel-independence
    // observation: no multipole expansion and no 1/r assumption involved.
    const Real diam = std::max(a.diameter(), b.diameter());
    if (dist > 0 && diam <= opts.eta * dist) {
      tasks.push_back({rc, cc, true});
      continue;
    }
    const bool aLeaf = a.left < 0, bLeaf = b.left < 0;
    if (aLeaf && bLeaf) {
      tasks.push_back({rc, cc, false});
      continue;
    }
    // Quadtree split: divide both sides when possible so blocks stay
    // roughly square (tall thin blocks compress poorly). Children are
    // pushed in reverse so pop order matches the recursive formulation.
    const auto al = static_cast<std::size_t>(a.left);
    const auto ar = static_cast<std::size_t>(a.right);
    const auto bl = static_cast<std::size_t>(b.left);
    const auto br = static_cast<std::size_t>(b.right);
    if (!aLeaf && !bLeaf) {
      stack.push_back({ar, br});
      stack.push_back({ar, bl});
      stack.push_back({al, br});
      stack.push_back({al, bl});
    } else if (!aLeaf) {
      stack.push_back({ar, cc});
      stack.push_back({al, cc});
    } else {
      stack.push_back({rc, br});
      stack.push_back({rc, bl});
    }
  }
}

void IES3Matrix::buildBlocks(const EntryKernel& kernel,
                             const IES3Options& opts) {
  std::vector<BlockTask> tasks;
  planBlocks(opts, tasks);

  // One output slot per task: blocks are independent, so they compress /
  // fill concurrently, and slot-indexed results keep the final block
  // ordering (and therefore every downstream accumulation) deterministic
  // across thread counts.
  struct Built {
    RMat u, v;  // low-rank factors (admissible tasks)
    RMat a;     // dense leaf (otherwise)
  };
  std::vector<Built> built(tasks.size());
  std::atomic<std::uint64_t> compressNs{0}, denseNs{0};

  struct Ctx {
    IES3Matrix* self;
    const EntryKernel* kernel;
    const IES3Options* opts;
    const std::vector<BlockTask>* tasks;
    std::vector<Built>* built;
    std::atomic<std::uint64_t>* compressNs;
    std::atomic<std::uint64_t>* denseNs;
  } ctx{this, &kernel, &opts, &tasks, &built, &compressNs, &denseNs};

  pool_->parallelFor(tasks.size(), [&ctx](std::size_t ti) {
    const BlockTask& t = (*ctx.tasks)[ti];
    const Cluster& a = ctx.self->clusters_[t.rowCluster];
    const Cluster& b = ctx.self->clusters_[t.colCluster];
    const BlockView view{ctx.kernel, &ctx.self->perm_[a.begin],
                         &ctx.self->perm_[b.begin], a.end - a.begin,
                         b.end - b.begin};
    Built& out = (*ctx.built)[ti];
    perf::Timer timer;
    if (t.admissible) {
      // Sample-and-compress, kernel-independently.
      acaCompress(view, 0.1 * ctx.opts->tolerance, ctx.opts->maxRank, out.u,
                  out.v);
      svdRecompress(out.u, out.v, ctx.opts->tolerance);
      ctx.compressNs->fetch_add(timer.ns(), std::memory_order_relaxed);
    } else {
      view.fillDense(out.a);
      ctx.denseNs->fetch_add(timer.ns(), std::memory_order_relaxed);
    }
  });

  // Serial compaction in task order: deterministic block lists and stats.
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    const BlockTask& t = tasks[ti];
    Built& out = built[ti];
    if (t.admissible) {
      if (out.u.cols() == 0) continue;  // numerically zero block
      const std::size_t rank = out.u.cols();
      storedEntries_ += rank * (out.u.rows() + out.v.rows());
      lowRankBlocks_.push_back(
          {t.rowCluster, t.colCluster, std::move(out.u), std::move(out.v)});
      stats_.rankMax = std::max(stats_.rankMax, rank);
      stats_.rankMean += static_cast<Real>(rank);
      std::size_t bucket = 0;
      while (bucket + 1 < stats_.rankHistogram.size() &&
             (std::size_t{1} << (bucket + 1)) <= rank)
        ++bucket;
      ++stats_.rankHistogram[bucket];
    } else {
      storedEntries_ += out.a.rows() * out.a.cols();
      denseBlocks_.push_back({t.rowCluster, t.colCluster, std::move(out.a)});
    }
  }
  if (!lowRankBlocks_.empty())
    stats_.rankMean /= static_cast<Real>(lowRankBlocks_.size());
  stats_.compressNs = compressNs.load(std::memory_order_relaxed);
  stats_.denseFillNs = denseNs.load(std::memory_order_relaxed);
  stats_.denseBlockCount = denseBlocks_.size();
  stats_.lowRankBlockCount = lowRankBlocks_.size();
  stats_.compressionRatio =
      static_cast<Real>(storedEntries_) /
      (static_cast<Real>(n_) * static_cast<Real>(n_));
}

void IES3Matrix::buildLeafWork() {
  // Leaves in tree order partition [0, n): each phase-2 matvec task owns
  // one leaf's output range, so writes are disjoint and the in-leaf
  // accumulation order is fixed regardless of scheduling.
  std::vector<std::size_t> leafSlot(clusters_.size(), SIZE_MAX);
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (clusters_[c].left >= 0) continue;
    leafSlot[c] = leaves_.size();
    leaves_.push_back(c);
  }
  leafWork_.resize(leaves_.size());
  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    leafWork_[l].begin = clusters_[leaves_[l]].begin;
    leafWork_[l].end = clusters_[leaves_[l]].end;
  }

  // Dense blocks live at leaf×leaf pairs: direct slot lookup.
  for (std::size_t d = 0; d < denseBlocks_.size(); ++d) {
    LeafWork& w = leafWork_[leafSlot[denseBlocks_[d].rowCluster]];
    w.dense.push_back(d);
    w.cost += denseBlocks_[d].a.rows() * denseBlocks_[d].a.cols();
  }
  // A low-rank block's row cluster may be an internal node; its U rows are
  // split across every leaf beneath it. Scratch offsets give each block a
  // private slice for the phase-1 Vᵀx temporary.
  lrOffset_.resize(lowRankBlocks_.size());
  scratchSize_ = 0;
  for (std::size_t k = 0; k < lowRankBlocks_.size(); ++k) {
    lrOffset_[k] = scratchSize_;
    scratchSize_ += lowRankBlocks_[k].u.cols();
    std::vector<std::size_t> stack{lowRankBlocks_[k].rowCluster};
    while (!stack.empty()) {
      const std::size_t c = stack.back();
      stack.pop_back();
      if (clusters_[c].left < 0) {
        LeafWork& w = leafWork_[leafSlot[c]];
        w.lowRank.push_back(k);
        w.cost += (clusters_[c].end - clusters_[c].begin) *
                  lowRankBlocks_[k].u.cols();
      } else {
        stack.push_back(static_cast<std::size_t>(clusters_[c].right));
        stack.push_back(static_cast<std::size_t>(clusters_[c].left));
      }
    }
  }
}

IES3Matrix::IES3Matrix(const std::vector<Vec3>& positions,
                       const EntryKernel& kernel, const IES3Options& opts)
    : n_(positions.size()),
      pool_(opts.pool != nullptr ? opts.pool : &perf::ThreadPool::global()) {
  RFIC_REQUIRE(n_ > 0, "IES3Matrix: empty geometry");
  perf::Timer buildTimer;
  perm_.resize(n_);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  std::vector<Vec3> pts = positions;
  buildTree(pts, 0, n_, opts);
  buildBlocks(kernel, opts);
  buildLeafWork();
  diag_ = RVec(n_);
  for (std::size_t i = 0; i < n_; ++i) diag_[i] = kernel.entry(i, i);
  stats_.buildNs = buildTimer.ns();
  perf::global().addExtractionBuild(stats_.buildNs);
  perf::global().addExtractionCompress(stats_.compressNs);
}

std::unique_ptr<IES3Matrix::Workspace> IES3Matrix::acquireWorkspace() const {
  {
    // rt: allow(rt-lock) uncontended pool handoff — one mutex round-trip
    // per matvec, bounded work under the lock (a vector pop).
    diag::LockGuard lock(wsMu_);
    if (!wsPool_.empty()) {
      auto ws = std::move(wsPool_.back());
      wsPool_.pop_back();
      return ws;
    }
  }
  // Sized to the high-water mark at creation, so a workspace never grows
  // again: steady state recycles pooled instances without touching the
  // allocator, and this counter stays flat.
  wsGrows_.fetch_add(1, std::memory_order_relaxed);
  auto ws = std::make_unique<Workspace>();  // rt: allow(rt-alloc) pool miss
  // only — counted by wsGrows_; the zero-alloc steady-state contract is
  // this counter staying flat (asserted in test_extraction.cpp).
  ws->xt.resize(n_);            // rt: allow(rt-alloc) pool-miss sizing
  ws->yt.resize(n_);            // rt: allow(rt-alloc) pool-miss sizing
  ws->scratch.resize(scratchSize_);  // rt: allow(rt-alloc) pool-miss sizing
  // Memory budget: one pool miss = one workspace allocation, charged
  // against the owning job's account (no-op outside a budgeted job).
  diag::memCharge((2 * n_ + scratchSize_) * sizeof(Real));
  return ws;
}

void IES3Matrix::releaseWorkspace(std::unique_ptr<Workspace> ws) const {
  // rt: allow(rt-lock) uncontended pool handoff (see acquireWorkspace)
  diag::LockGuard lock(wsMu_);
  wsPool_.push_back(std::move(ws));  // rt: allow(rt-alloc) returns a pooled
  // slot popped by acquireWorkspace — capacity was established there
}

RFIC_REALTIME void IES3Matrix::apply(const RVec& x, RVec& y) const {
  RFIC_REQUIRE(x.size() == n_, "IES3Matrix::apply size mismatch");
  perf::Timer timer;
  std::unique_ptr<Workspace> ws = acquireWorkspace();
  RVec& xt = ws->xt;
  for (std::size_t t = 0; t < n_; ++t) xt[t] = x[perm_[t]];

  struct Ctx {
    const IES3Matrix* self;
    Workspace* ws;
  } ctx{this, ws.get()};

  // Phase 1: per-block temporaries t_k = V_kᵀ·x into private scratch
  // slices — independent blocks, disjoint writes.
  pool_->parallelFor(
      lowRankBlocks_.size(),
      [&ctx](std::size_t k) {
        const LowRankBlock& blk = ctx.self->lowRankBlocks_[k];
        const Cluster& b = ctx.self->clusters_[blk.colCluster];
        const std::size_t n = b.end - b.begin;
        const std::size_t r = blk.u.cols();
        const Real* xs = ctx.ws->xt.data() + b.begin;
        Real* t = ctx.ws->scratch.data() + ctx.self->lrOffset_[k];
        for (std::size_t c = 0; c < r; ++c) t[c] = 0;
        for (std::size_t j = 0; j < n; ++j) {
          const Real xj = xs[j];
          if (xj == 0) continue;
          const Real* vrow = blk.v.rowPtr(j);
          for (std::size_t c = 0; c < r; ++c) t[c] += vrow[c] * xj;
        }
      },
      1);

  // Phase 2: per-leaf row accumulation. Leaves partition the output, so
  // writes are disjoint; each leaf folds its dense blocks and the U-row
  // slices of covering low-rank blocks in a fixed order, making the
  // result bitwise independent of the thread count.
  pool_->parallelFor(
      leafWork_.size(),
      [&ctx](std::size_t l) {
        const LeafWork& w = ctx.self->leafWork_[l];
        Real* out = ctx.ws->yt.data() + w.begin;
        const std::size_t rows = w.end - w.begin;
        for (std::size_t i = 0; i < rows; ++i) out[i] = 0;
        for (const std::size_t d : w.dense) {
          const DenseBlock& blk = ctx.self->denseBlocks_[d];
          const Cluster& b = ctx.self->clusters_[blk.colCluster];
          const std::size_t n = b.end - b.begin;
          const Real* xs = ctx.ws->xt.data() + b.begin;
          for (std::size_t i = 0; i < rows; ++i) {
            const Real* row = blk.a.rowPtr(i);
            Real s = 0;
            for (std::size_t j = 0; j < n; ++j) s += row[j] * xs[j];
            out[i] += s;
          }
        }
        for (const std::size_t k : w.lowRank) {
          const LowRankBlock& blk = ctx.self->lowRankBlocks_[k];
          const std::size_t rowBegin =
              ctx.self->clusters_[blk.rowCluster].begin;
          const std::size_t r = blk.u.cols();
          const Real* t = ctx.ws->scratch.data() + ctx.self->lrOffset_[k];
          for (std::size_t i = 0; i < rows; ++i) {
            const Real* urow = blk.u.rowPtr(w.begin - rowBegin + i);
            Real s = 0;
            for (std::size_t c = 0; c < r; ++c) s += urow[c] * t[c];
            out[i] += s;
          }
        }
      },
      1);

  y.resize(n_);  // rt: allow(rt-alloc) no-op once the caller's vector is
                 // sized; first call per RHS establishes capacity
  for (std::size_t t = 0; t < n_; ++t) y[perm_[t]] = ws->yt[t];
  releaseWorkspace(std::move(ws));
  matvecs_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t ns = timer.ns();
  matvecNs_.fetch_add(ns, std::memory_order_relaxed);
  perf::global().addMatvec(ns);
}

namespace {

// Block-Jacobi over the diagonal leaf blocks. Self-contained: owns a copy
// of the tree permutation and the LU factors, so it remains valid if the
// matrix that created it is destroyed. apply() recycles pooled workspaces
// and solves each diagonal segment in place — no steady-state allocation.
class BlockJacobiPrec final : public sparse::LinearOperator<Real> {
 public:
  BlockJacobiPrec(std::size_t n, std::vector<std::size_t> perm,
                  std::vector<std::pair<std::size_t, std::size_t>> ranges,
                  std::vector<numeric::LU<Real>> lus, perf::ThreadPool* pool)
      : n_(n),
        perm_(std::move(perm)),
        ranges_(std::move(ranges)),
        lus_(std::move(lus)),
        pool_(pool) {}

  std::size_t dim() const override { return n_; }
  RFIC_REALTIME void apply(const RVec& x, RVec& y) const override {
    std::unique_ptr<RVec> ws = acquire();
    RVec& yt = *ws;
    // Identity action outside the diagonal blocks (the leaf ranges cover
    // [0, n), so in practice every entry is overwritten below).
    for (std::size_t t = 0; t < n_; ++t) yt[t] = x[perm_[t]];
    struct Ctx {
      const BlockJacobiPrec* self;
      RVec* yt;
    } ctx{this, &yt};
    pool_->parallelFor(
        ranges_.size(),
        [&ctx](std::size_t b) {
          const auto [lo, hi] = ctx.self->ranges_[b];
          (void)hi;
          ctx.self->lus_[b].solveInPlace(ctx.yt->data() + lo);
        },
        1);
    y.resize(n_);  // rt: allow(rt-alloc) no-op once the caller's vector is
                   // sized; first call per RHS establishes capacity
    for (std::size_t t = 0; t < n_; ++t) y[perm_[t]] = yt[t];
    release(std::move(ws));
  }

 private:
  std::unique_ptr<RVec> acquire() const RFIC_EXCLUDES(mu_) {
    {
      // rt: allow(rt-lock) uncontended pool handoff, bounded critical section
      diag::LockGuard lock(mu_);
      if (!pool_ws_.empty()) {
        auto ws = std::move(pool_ws_.back());
        pool_ws_.pop_back();
        return ws;
      }
    }
    return std::make_unique<RVec>(n_);  // rt: allow(rt-alloc) pool miss only;
    // steady state recycles — same contract as IES3Matrix::acquireWorkspace
  }
  void release(std::unique_ptr<RVec> ws) const RFIC_EXCLUDES(mu_) {
    // rt: allow(rt-lock) uncontended pool handoff, bounded critical section
    diag::LockGuard lock(mu_);
    pool_ws_.push_back(std::move(ws));  // rt: allow(rt-alloc) returns a
    // pooled slot popped by acquire — capacity was established there
  }

  std::size_t n_;
  std::vector<std::size_t> perm_;
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;
  std::vector<numeric::LU<Real>> lus_;
  perf::ThreadPool* pool_;
  mutable diag::Mutex mu_;
  mutable std::vector<std::unique_ptr<RVec>> pool_ws_ RFIC_GUARDED_BY(mu_);
};

class DiagPrec final : public sparse::LinearOperator<Real> {
 public:
  explicit DiagPrec(const RVec& d) : inv_(d.size()) {
    for (std::size_t i = 0; i < d.size(); ++i)
      inv_[i] = d[i] != 0 ? 1.0 / d[i] : 1.0;
  }
  std::size_t dim() const override { return inv_.size(); }
  void apply(const RVec& x, RVec& y) const override {
    y.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = inv_[i] * x[i];
  }

 private:
  RVec inv_;
};

}  // namespace

std::unique_ptr<sparse::LinearOperator<Real>> IES3Matrix::makeBlockJacobi()
    const {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<const DenseBlock*> diagBlocks;
  for (const auto& blk : denseBlocks_) {
    if (blk.rowCluster != blk.colCluster) continue;
    const Cluster& c = clusters_[blk.rowCluster];
    ranges.emplace_back(c.begin, c.end);
    diagBlocks.push_back(&blk);
  }
  // Factor the independent diagonal blocks concurrently, slot per block.
  std::vector<numeric::LU<Real>> lus(diagBlocks.size());
  struct Ctx {
    const std::vector<const DenseBlock*>* blocks;
    std::vector<numeric::LU<Real>>* lus;
  } ctx{&diagBlocks, &lus};
  pool_->parallelFor(
      diagBlocks.size(),
      [&ctx](std::size_t b) {
        (*ctx.lus)[b] = numeric::LU<Real>((*ctx.blocks)[b]->a);
      },
      1);
  return std::make_unique<BlockJacobiPrec>(n_, perm_, std::move(ranges),
                                           std::move(lus), pool_);
}

IES3CapacitanceResult extractCapacitanceIES3(const PanelMesh& mesh,
                                             const IES3Options& opts) {
  const std::size_t n = mesh.panels.size();
  const std::size_t nc = mesh.numConductors();
  RFIC_REQUIRE(n > 0 && nc > 0, "extractCapacitanceIES3: empty mesh");
  perf::ThreadPool& pool =
      opts.pool != nullptr ? *opts.pool : perf::ThreadPool::global();

  const PanelPotentialKernel kernel(mesh);
  std::vector<Vec3> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[i] = kernel.centroid(i);
  const IES3Matrix a(pos, kernel, opts);

  IES3CapacitanceResult out;
  out.panelCount = n;
  out.storedEntries = a.storedEntries();
  out.buildStats = a.buildStats();
  out.matrix = RMat(nc, nc);

  const auto prec = a.makeBlockJacobi();
  sparse::IterativeOptions io;
  io.tolerance = 1e-8;
  io.maxIterations = 1000;
  io.restart = 120;

  perf::Timer solveTimer;
  std::vector<RVec> qs(nc, RVec(n));
  std::vector<sparse::IterativeResult> sts(nc);
  auto solveOne = [&](std::size_t k, sparse::GmresWorkspace<Real>& ws,
                      RVec& v) {
    for (std::size_t i = 0; i < n; ++i)
      v[i] = (mesh.panels[i].conductor == static_cast<int>(k)) ? 1.0 : 0.0;
    sts[k] = sparse::gmres(a, v, qs[k], prec.get(), io, &ws);
  };

  if (opts.warmStart) {
    // Serial chain: conductor k starts from conductor k-1's charges. One
    // workspace serves every solve.
    sparse::GmresWorkspace<Real> ws;
    RVec v(n);
    for (std::size_t k = 0; k < nc; ++k) {
      if (k > 0) qs[k] = qs[k - 1];
      solveOne(k, ws, v);
    }
  } else {
    // Concurrent multi-RHS sweep: the nc solves share the operator and
    // preconditioner (both reentrant via pooled workspaces) and differ
    // only in rhs; per-conductor GMRES workspaces keep repeat iterations
    // allocation-free. Zero initial guesses keep each solve's arithmetic
    // identical whatever the thread count.
    std::vector<sparse::GmresWorkspace<Real>> wss(nc);
    std::vector<RVec> vs(nc, RVec(n));
    pool.parallelFor(
        nc, [&](std::size_t k) { solveOne(k, wss[k], vs[k]); }, 1);
  }
  out.solveNs = solveTimer.ns();
  out.matvecs = a.matvecCount();

  for (std::size_t k = 0; k < nc; ++k) {
    if (!sts[k].converged)
      failNumerical("extractCapacitanceIES3: GMRES failed to converge");
    out.gmresIterations += sts[k].iterations;
    const RVec& q = qs[k];
    for (std::size_t i = 0; i < n; ++i)
      out.matrix(static_cast<std::size_t>(mesh.panels[i].conductor), k) +=
          q[i];
  }
  return out;
}

}  // namespace rfic::extraction
