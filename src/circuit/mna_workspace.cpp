#include "circuit/mna_workspace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "diag/resilience.hpp"

namespace rfic::circuit {

namespace {
// Process-wide default for new workspaces; `rficsim --no-batch-eval` and
// the daemon flip it at startup, tests flip it per-case.
std::atomic<bool> gBatchedDefault{true};
}  // namespace

void MnaWorkspace::setBatchedEvalDefault(bool on) {
  gBatchedDefault.store(on, std::memory_order_relaxed);
}

bool MnaWorkspace::batchedEvalDefault() {
  return gBatchedDefault.load(std::memory_order_relaxed);
}

void MnaWorkspace::chargeGrowth(std::uint64_t bytes) {
  diag::memCharge(bytes);
  charged_ += bytes;
}

// First-time pattern layout. Batched mode builds it from the device batch's
// registration pass, compiling the batch in the same pass. The scalar mode
// discovers it as ordinary growth from a diagonal-only pattern (analyses
// add gshunt/gDiag terms on the diagonal, and a structurally present
// diagonal keeps the factorization robust): one scalar walk at the
// caller's point sends every off-diagonal stamp to the overflow lists, and
// growPattern unions them in. Both give the same pattern at the same point.
void MnaWorkspace::ensurePattern(const RVec& x, Real t1, Real t2,
                                 const RVec* xPrev) {
  if (pattern_.rows() == n_ && n_ > 0) return;
  if (batched_) {
    batch_.build(sys_.circuit(), n_, x, xPrev, t1, t2, pattern_, diagSlot_);
    adoptPattern();
    batchVersion_ = patternVersion_;
    noteGrowth();
    chargeGrowth(batch_.bytes());
    return;
  }
  sparse::RTriplets d(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) d.add(i, i, 0.0);
  pattern_ = sparse::RCSR(d);
  gVals_.assign(n_, 0.0);
  cVals_.assign(n_, 0.0);
  gOv_.reset(n_, n_);
  cOv_.reset(n_, n_);
  RVec f(n_), q(n_), b(n_);
  const Stamp::PatternTarget pt{&pattern_, &gVals_, &cVals_, &gOv_, &cOv_};
  Stamp s(f, q, b, pt, t1, t2);
  for (const auto& dev : sys_.circuit().devices()) dev->stamp(x, xPrev, s);
  growPattern();
}

// A device stamped a position outside the cached pattern (discovery, or a
// conditional stamp — e.g. a diode whose junction capacitance was zero
// during discovery). Union the misses into the pattern; the caller
// re-evaluates.
void MnaWorkspace::growPattern() {
  sparse::RTriplets u(n_, n_);
  const auto& rp = pattern_.rowPtr();
  const auto& ci = pattern_.colIdx();
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) u.add(r, ci[p], 0.0);
  for (const auto& en : gOv_.entries()) u.add(en.row, en.col, 0.0);
  for (const auto& en : cOv_.entries()) u.add(en.row, en.col, 0.0);
  pattern_ = sparse::RCSR(u);

  diagSlot_.assign(n_, 0);
  const auto& ci2 = pattern_.colIdx();
  for (std::size_t i = 0; i < n_; ++i)
    diagSlot_[i] = static_cast<std::size_t>(
        std::lower_bound(ci2.begin() + pattern_.rowPtr()[i],
                         ci2.begin() + pattern_.rowPtr()[i + 1], i) -
        ci2.begin());
  adoptPattern();
}

void MnaWorkspace::adoptPattern() {
  ++patternVersion_;
  luPatternCurrent_ = false;
  memo_ = false;
  constMatsHeld_ = false;
  gVals_.assign(pattern_.nnz(), 0.0);
  cVals_.assign(pattern_.nnz(), 0.0);
  noteGrowth();
  // Memory budget: a grown pattern is this workspace's dominant
  // allocation — charge the CSR index arrays, both value arrays, and the
  // diagonal slot map in full against the owning job's account (charge-
  // only contract; no-op without one).
  chargeGrowth(pattern_.nnz() * (2 * sizeof(Real) + sizeof(std::size_t)) +
               (2 * n_ + 1) * sizeof(std::size_t));
}

// (Re)compile the SoA device batch against the current pattern. The compile
// is itself an allocation event — it happens once per pattern version, never
// in steady state, and its footprint is charged like the pattern's.
void MnaWorkspace::maybeCompileBatch(const RVec& x, const RVec* xPrev, Real t1,
                                     Real t2) {
  if (!batched_) return;
  if (batch_.compiled() && batchVersion_ == patternVersion_) return;
  // rt: allow(rt-alloc) once-per-pattern-version batch compile
  batch_.compile(sys_.circuit(), pattern_, n_, x, xPrev, t1, t2);
  batchVersion_ = patternVersion_;
  memo_ = false;
  constMatsHeld_ = false;
  noteGrowth();
  chargeGrowth(batch_.bytes());
}

void MnaWorkspace::remember(const RVec& x, Real t1, Real t2, bool reusable,
                            bool matrices) {
  memo_ = reusable;
  if (!reusable) return;
  if (memoX_.size() != n_) {
    chargeGrowth(n_ * sizeof(Real));
    memoX_.resize(n_);  // rt: allow(rt-alloc) grow-once: the first reusable
                        // evaluation sizes the stored state
  }
  std::copy(x.begin(), x.end(), memoX_.begin());
  memoT1_ = t1;
  memoT2_ = t2;
  memoMatrices_ = matrices;
}

namespace {
bool sameBits(Real a, Real b) {
  return std::memcmp(&a, &b, sizeof(Real)) == 0;
}
}  // namespace

void MnaWorkspace::evalBivariate(const RVec& x, Real t1, Real t2,
                                 bool wantMatrices, const RVec* xPrev) {
  RFIC_REQUIRE(x.size() == n_, "MnaWorkspace::eval: state size mismatch");
  const perf::Timer timer;

  // The last evaluation answers a request at its own state (the rule is on
  // evalBivariate); memo_ already holds the batched, generic-free and
  // unlimited conditions.
  if (memo_ && xPrev == nullptr && (!wantMatrices || memoMatrices_) &&
      (n_ == 0 ||
       std::memcmp(x.data(), memoX_.data(), n_ * sizeof(Real)) == 0)) {
    if (!sameBits(t1, memoT1_) || !sameBits(t2, memoT2_)) {
      batch_.stampSources(t1, t2, b_);
      memoT1_ = t1;
      memoT2_ = t2;
    }
    perf::global().addEvalReuse(timer.ns());
    return;
  }

  if (!wantMatrices) {
    // Vector-only evaluation needs no pattern machinery. A stale batch (older
    // pattern version) is fine here: f/q/b assembly never touches CSR slots.
    f_.assign(n_, 0.0);  // rt: allow(rt-alloc) same-size overwrite — the
                         // buffers hold n_ entries after the first call
    q_.assign(n_, 0.0);  // rt: allow(rt-alloc) same-size overwrite
    b_.assign(n_, 0.0);  // rt: allow(rt-alloc) same-size overwrite
    Stamp s(f_, q_, b_, t1, t2);
    const bool useBatch = batched_ && batch_.compiled();
    bool limited = false;
    if (useBatch) {
      limited = batch_.eval(x, xPrev, s, nullptr, nullptr, scratch_, nullptr);
    } else {
      for (const auto& dev : sys_.circuit().devices()) dev->stamp(x, xPrev, s);
    }
    remember(x, t1, t2, useBatch && !batch_.hasGenericOps() && !limited,
             false);
    const auto ns = timer.ns();
    if (useBatch) {
      perf::global().addEvalBatch(1, ns);
    } else {
      perf::global().addEval(ns);
    }
    return;
  }

  // rt: allow(rt-alloc) first-call pattern layout — early-returns once the
  // pattern exists, so steady-state iterations never enter it
  ensurePattern(x, t1, t2, xPrev);
  maybeCompileBatch(x, xPrev, t1, t2);
  const bool useBatch = batched_ && batch_.compiled();
  bool limited = false;
  for (;;) {
    f_.assign(n_, 0.0);  // rt: allow(rt-alloc) same-size overwrite
    q_.assign(n_, 0.0);  // rt: allow(rt-alloc) same-size overwrite
    b_.assign(n_, 0.0);  // rt: allow(rt-alloc) same-size overwrite
    gOv_.reset(n_, n_);
    cOv_.reset(n_, n_);

    const Stamp::PatternTarget pt{&pattern_, &gVals_, &cVals_, &gOv_, &cOv_};
    Stamp s(f_, q_, b_, pt, t1, t2);
    if (useBatch && constMatsHeld_) {
      // gVals_/cVals_ already hold the batch's constant G and C: only f, q
      // and b depend on the state and time.
      Stamp vec(f_, q_, b_, t1, t2);
      limited = batch_.eval(x, xPrev, vec, nullptr, nullptr, scratch_, nullptr);
    } else if (useBatch) {
      // The batch prefills gVals_/cVals_ with the constant linear template
      // (same-size assign), so the zero-fill is skipped on this path.
      limited = batch_.eval(x, xPrev, s, &gVals_, &cVals_, scratch_, nullptr);
    } else {
      std::fill(gVals_.begin(), gVals_.end(), 0.0);
      std::fill(cVals_.begin(), cVals_.end(), 0.0);
      for (const auto& dev : sys_.circuit().devices()) dev->stamp(x, xPrev, s);
    }

    if (gOv_.entries().empty() && cOv_.entries().empty()) break;
    // rt: allow(rt-alloc) self-healing pattern growth — taken only when a
    // device stamps a position outside the cached pattern (rare, and each
    // growth is permanent, so the path is visited a bounded number of times)
    growPattern();
    maybeCompileBatch(x, xPrev, t1, t2);
  }
  constMatsHeld_ = useBatch && batch_.matricesConstant();
  remember(x, t1, t2, useBatch && !batch_.hasGenericOps() && !limited, true);
  const auto ns = timer.ns();
  if (useBatch) {
    perf::global().addEvalBatch(1, ns);
  } else {
    perf::global().addEval(ns);
  }
}

void MnaWorkspace::evalSamples(const numeric::RMat& xs, const Real* t1,
                               const Real* t2, bool wantMatrices,
                               numeric::RMat& fS, numeric::RMat& qS,
                               numeric::RMat& bS,
                               std::vector<std::vector<Real>>* gOut,
                               std::vector<std::vector<Real>>* cOut) {
  const std::size_t S = xs.cols();
  RFIC_REQUIRE(xs.rows() == n_, "MnaWorkspace::evalSamples: state dim");
  RFIC_REQUIRE(fS.rows() == n_ && fS.cols() >= S && qS.rows() == n_ &&
                   qS.cols() >= S && bS.rows() == n_ && bS.cols() >= S,
               "MnaWorkspace::evalSamples: result shape");
  RFIC_REQUIRE(!wantMatrices || (gOut != nullptr && cOut != nullptr &&
                                 gOut->size() >= S && cOut->size() >= S),
               "MnaWorkspace::evalSamples: matrix outputs required");
  if (S == 0) return;
  const perf::Timer timer;

  // Fixed lane count: each lane owns a contiguous chunk of samples, and
  // samples are mutually independent, so the results are bitwise identical
  // whether the chunks run serially or across a pool of any size.
  const std::size_t lanes = std::min<std::size_t>(
      S, sweepPool_ != nullptr ? sweepPool_->concurrency() : 1);
  // One growth event per lane-pool growth, whatever the lane count, so the
  // count does not depend on the pool size.
  if (lanes_.size() < lanes) {
    const std::size_t grown = lanes_.size();
    lanes_.resize(lanes);  // rt: allow(rt-alloc) grow-once lane pool
    for (std::size_t k = grown; k < lanes; ++k) {
      SweepLane& ln = lanes_[k];
      ln.x.assign(n_, 0.0);  // rt: allow(rt-alloc) grow-once lane buffers
      ln.f.assign(n_, 0.0);  // rt: allow(rt-alloc) grow-once lane buffers
      ln.q.assign(n_, 0.0);  // rt: allow(rt-alloc) grow-once lane buffers
      ln.b.assign(n_, 0.0);  // rt: allow(rt-alloc) grow-once lane buffers
      ln.gOv.reset(n_, n_);
      ln.cOv.reset(n_, n_);
      chargeGrowth(4 * n_ * sizeof(Real));
    }
    noteGrowth();
  }

  const std::size_t colS = xs.cols();
  const auto gather = [&](SweepLane& ln, std::size_t s) {
    const Real* xp = xs.data() + s;
    for (std::size_t u = 0; u < n_; ++u, xp += colS) ln.x[u] = *xp;
  };

  if (wantMatrices) {
    gather(lanes_[0], 0);
    // rt: allow(rt-alloc) first-call pattern discovery
    ensurePattern(lanes_[0].x, t1[0], t2[0], nullptr);
    maybeCompileBatch(lanes_[0].x, nullptr, t1[0], t2[0]);
  }
  const bool useBatch = batched_ && batch_.compiled() &&
                        (!wantMatrices || batchVersion_ == patternVersion_);

  // Waveform-value cache: source evaluations depend only on the sample
  // times, which are fixed for a given HB/shooting grid — compute them once
  // and reuse across every Newton iteration of the pass.
  const std::size_t nw = useBatch ? batch_.numWaveforms() : 0;
  const Real* wv = nullptr;
  if (nw > 0) {
    const bool stale =
        waveVersion_ != batchVersion_ || waveT1_.size() != S ||
        !std::equal(waveT1_.begin(), waveT1_.end(), t1) ||
        !std::equal(waveT2_.begin(), waveT2_.end(), t2);
    if (stale) {
      if (waveVals_.size() != S * nw) {
        noteGrowth();
        chargeGrowth((S * nw + 2 * S) * sizeof(Real));
      }
      waveVals_.resize(S * nw);  // rt: allow(rt-alloc) grow-once wave cache
      waveT1_.assign(t1, t1 + S);  // rt: allow(rt-alloc) grow-once wave cache
      waveT2_.assign(t2, t2 + S);  // rt: allow(rt-alloc) grow-once wave cache
      for (std::size_t s = 0; s < S; ++s)
        batch_.evalWaveforms(t1[s], t2[s], waveVals_.data() + s * nw);
      waveVersion_ = batchVersion_;
    }
    wv = waveVals_.data();
  }

  const std::size_t chunk = (S + lanes - 1) / lanes;
  for (;;) {
    const auto runLane = [&](std::size_t k) {
      SweepLane& ln = lanes_[k];
      ln.overflowed = false;
      const std::size_t lo = k * chunk;
      const std::size_t hi = std::min(S, lo + chunk);
      const bool blockVec =
          useBatch && !wantMatrices && !batch_.hasGenericOps();
      for (std::size_t cs = lo; cs < hi; cs += DeviceBatch::kSweepChunk) {
        const std::size_t cn = std::min(DeviceBatch::kSweepChunk, hi - cs);
        // Sample-major kernel phase for the block, then per-sample assembly
        // (blocking is invisible in the results: every (instance, sample)
        // output is an independent kernel call either way).
        if (useBatch) batch_.evalKernelsSweep(xs, cs, cn, wantMatrices, ln.sweep);
        if (blockVec) {
          // Vector-only, all-compiled circuit: assemble the whole block
          // straight into the result rows — no lane buffers, no Stamp.
          batch_.assembleSweepVec(xs, cs, cn, fS, qS, bS, ln.sweep, wv, nw,
                                  t1, t2);
          continue;
        }
        for (std::size_t j = 0; j < cn; ++j) {
          const std::size_t s = cs + j;
          gather(ln, s);
          ln.f.setZero();
          ln.q.setZero();
          ln.b.setZero();
          if (wantMatrices) {
            if (!ln.gOv.entries().empty()) ln.gOv.reset(n_, n_);
            if (!ln.cOv.entries().empty()) ln.cOv.reset(n_, n_);
            const Stamp::PatternTarget pt{&pattern_, &(*gOut)[s],
                                          &(*cOut)[s], &ln.gOv, &ln.cOv};
            Stamp st(ln.f, ln.q, ln.b, pt, t1[s], t2[s]);
            if (useBatch) {
              batch_.assemble(ln.x, st, pt.gVals, pt.cVals, ln.sweep, j,
                              wv != nullptr ? wv + s * nw : nullptr);
            } else {
              // rt: allow(rt-alloc) same-size overwrite after first sweep
              (*gOut)[s].assign(pattern_.nnz(), 0.0);
              // rt: allow(rt-alloc) same-size overwrite after first sweep
              (*cOut)[s].assign(pattern_.nnz(), 0.0);
              for (const auto& dev : sys_.circuit().devices())
                dev->stamp(ln.x, nullptr, st);
            }
            if (!ln.gOv.entries().empty() || !ln.cOv.entries().empty())
              ln.overflowed = true;
          } else {
            Stamp st(ln.f, ln.q, ln.b, t1[s], t2[s]);
            if (useBatch) {
              batch_.assemble(ln.x, st, nullptr, nullptr, ln.sweep, j,
                              wv != nullptr ? wv + s * nw : nullptr);
            } else {
              for (const auto& dev : sys_.circuit().devices())
                dev->stamp(ln.x, nullptr, st);
            }
          }
          Real* fp = fS.data() + s;
          Real* qp = qS.data() + s;
          Real* bp = bS.data() + s;
          const std::size_t fCols = fS.cols(), qCols = qS.cols(),
                            bCols = bS.cols();
          for (std::size_t u = 0; u < n_; ++u) {
            *fp = ln.f[u];
            *qp = ln.q[u];
            *bp = ln.b[u];
            fp += fCols;
            qp += qCols;
            bp += bCols;
          }
        }
      }
    };
    if (sweepPool_ != nullptr && lanes > 1) {
      sweepPool_->parallelFor(lanes, runLane, 1);
    } else {
      for (std::size_t k = 0; k < lanes; ++k) runLane(k);
    }

    bool overflow = false;
    for (std::size_t k = 0; k < lanes; ++k) overflow |= lanes_[k].overflowed;
    if (!overflow) break;

    // rt: allow(rt-alloc) self-healing pattern growth — merge every lane's
    // misses, grow once, recompile the batch, and restart the sweep so all
    // samples see the same (final) pattern
    gOv_.reset(n_, n_);
    cOv_.reset(n_, n_);
    for (std::size_t k = 0; k < lanes; ++k) {
      for (const auto& en : lanes_[k].gOv.entries())
        gOv_.add(en.row, en.col, 0.0);
      for (const auto& en : lanes_[k].cOv.entries())
        cOv_.add(en.row, en.col, 0.0);
    }
    growPattern();
    gather(lanes_[0], 0);
    maybeCompileBatch(lanes_[0].x, nullptr, t1[0], t2[0]);
  }

  const auto ns = timer.ns();
  if (useBatch) {
    perf::global().addEvalBatch(S, ns);
  } else {
    perf::global().addEvals(S, ns);
  }
}

diag::SolverStatus MnaWorkspace::factorJacobian(Real cCoeff, Real gCoeff,
                                                Real gDiag) {
  RFIC_REQUIRE(pattern_.rows() == n_,
               "MnaWorkspace::factorJacobian before matrix evaluation");
  const std::size_t nnz = pattern_.nnz();
  if (jVals_.size() < nnz)
    chargeGrowth((nnz - jVals_.size()) * sizeof(Real));
  jVals_.resize(nnz);  // rt: allow(rt-alloc) grow-once — nnz only changes
                       // when the pattern grows
  for (std::size_t p = 0; p < nnz; ++p)
    jVals_[p] = cCoeff * cVals_[p] + gCoeff * gVals_[p];
  if (gDiag != 0.0)  // lint: allow-float-eq (exact sentinel for "no shunt")
    for (std::size_t i = 0; i < n_; ++i) jVals_[diagSlot_[i]] += gDiag;

  // !lu_.analyzed() covers a previous factorization attempt that threw on a
  // singular matrix: the workspace pattern is still current, but the LU
  // holds no usable program to replay. SymbolicLU counts both paths.
  if (!luPatternCurrent_ || !lu_.analyzed()) {
    sparse::RCSR j = pattern_;
    j.values() = jVals_;
    sparse::RSymbolicLU::Options o;
    o.ordering = ordering_;
    lu_.factor(j, o);  // rt: allow(rt-alloc) cold path: the one full
    // analysis per pattern; every later call replays it through refactor()
    luPatternCurrent_ = true;
    return diag::SolverStatus::Converged;
  }
  return lu_.refactor(jVals_);
}

RVec MnaWorkspace::solve(const RVec& rhs) {
  const perf::Timer timer;
  RVec x = lu_.solve(rhs);
  perf::global().addSolve(timer.ns());
  return x;
}

RFIC_REALTIME void MnaWorkspace::solve(const RVec& rhs, RVec& x) {
  const perf::Timer timer;
  lu_.solve(rhs, x, solveY_, solveZ_);
  perf::global().addSolve(timer.ns());
}

void scatterDense(const sparse::RCSR& pattern, const std::vector<Real>& vals,
                  numeric::RMat& out, Real scale, std::size_t row0,
                  std::size_t col0) {
  const auto& rp = pattern.rowPtr();
  const auto& ci = pattern.colIdx();
  for (std::size_t r = 0; r < pattern.rows(); ++r)
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p)
      out(row0 + r, col0 + ci[p]) += scale * vals[p];
}

}  // namespace rfic::circuit
