#include "hb/hb_jacobian.hpp"

#include "hb/harmonic_balance.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::hb {

using numeric::CMat;
using numeric::RVec;

HBOperator::HBOperator(const HarmonicBalance& engine,
                       const sparse::RCSR& pattern,
                       const std::vector<std::vector<Real>>& gSampleVals,
                       const std::vector<std::vector<Real>>& cSampleVals)
    : eng_(engine), pat_(pattern), g_(gSampleVals), c_(cSampleVals) {
  RFIC_REQUIRE(g_.size() == eng_.msamp_ && c_.size() == eng_.msamp_,
               "HBOperator: sample Jacobian count mismatch");
}

std::size_t HBOperator::dim() const { return eng_.n_ * eng_.nc_; }

RFIC_REALTIME void HBOperator::apply(const RVec& y, RVec& out) const {
  // J·y = Γ G(t) Γ⁻¹ y + Ω Γ C(t) Γ⁻¹ y, evaluated sample by sample.
  // Every buffer lives in the engine workspace and every transform replays
  // a cached plan, so a steady-state application is allocation-free — this
  // is the inner loop of every GMRES iteration.
  auto& W = eng_.work_;
  eng_.unpackReal(y, W.ySpec);
  eng_.spectrumToTime(W.ySpec, W.ySamp);

  const std::size_t n = eng_.n_, ms = eng_.msamp_;
  W.need(W.gy, n, ms);
  W.need(W.cy, n, ms);
  // The per-sample G/C multiplies are independent; fan out over the pool
  // with per-thread gather/scatter scratch. The grain keeps dispatch
  // overhead negligible for small sample counts.
  perf::ThreadPool::global().parallelFor(
      ms,
      [&](std::size_t s) {
        thread_local RVec xs, tmp;
        xs.resize(n);   // rt: allow(rt-alloc) grow-once thread-local gather
                        // scratch; no-op at steady state (same n every call)
        tmp.resize(n);  // rt: allow(rt-alloc) grow-once thread-local scratch
        for (std::size_t u = 0; u < n; ++u) xs[u] = W.ySamp(u, s);
        pat_.multiplyWith(g_[s], xs, tmp);
        for (std::size_t u = 0; u < n; ++u) W.gy(u, s) = tmp[u];
        pat_.multiplyWith(c_[s], xs, tmp);
        for (std::size_t u = 0; u < n; ++u) W.cy(u, s) = tmp[u];
      },
      /*grain=*/64);
  eng_.timeToSpectrum(W.gy, W.gSpec);
  eng_.timeToSpectrum(W.cy, W.cSpec);
  W.need(W.rSpec, n, eng_.indices_.size());
  for (std::size_t j = 0; j < eng_.indices_.size(); ++j) {
    const Complex jw(0.0, eng_.omega(j));
    for (std::size_t u = 0; u < n; ++u)
      W.rSpec(u, j) = W.gSpec(u, j) + jw * W.cSpec(u, j);
  }
  eng_.packReal(W.rSpec, out);
}

HBBlockPreconditioner::HBBlockPreconditioner(const HarmonicBalance& engine)
    : eng_(engine), blocks_(engine.indices_.size()) {}

void HBBlockPreconditioner::update(const sparse::RTriplets& gAvg,
                                   const sparse::RTriplets& cAvg) {
  const std::size_t n = eng_.n_;
  // Pack Ḡ and C̄ into one complex CSR over their union pattern: the real
  // part accumulates g, the imaginary part c, so block κ's value array is
  // simply Complex(g_p, ω_κ·c_p).
  sparse::CTriplets packedT(n, n);
  for (const auto& en : gAvg.entries())
    packedT.add(en.row, en.col, Complex(en.value, 0.0));
  for (const auto& en : cAvg.entries())
    packedT.add(en.row, en.col, Complex(0.0, en.value));
  sparse::CCSR packed(packedT);

  const bool samePattern = havePattern_ &&
                           packed.rowPtr() == packed_.rowPtr() &&
                           packed.colIdx() == packed_.colIdx();
  packed_ = std::move(packed);
  if (!samePattern) {
    // A device started (or stopped) stamping a position — the recorded
    // block pivots no longer match; rebuild from scratch.
    blocks_.assign(eng_.indices_.size(), sparse::CSymbolicLU());
    havePattern_ = true;
  }
  if (blockVals_.size() != blocks_.size()) blockVals_.resize(blocks_.size());

  const std::size_t nnz = packed_.nnz();
  const auto& pv = packed_.values();
  // Resolve the ordering on the calling thread: per-job ScopedOrderingOverride
  // is thread-local and would not be visible from the pool's workers.
  sparse::CSymbolicLU::Options luOpts;
  luOpts.ordering = sparse::effectiveOrdering();
  auto& pool = perf::ThreadPool::global();
  pool.parallelFor(blocks_.size(), [&](std::size_t j) {
    const Real w = eng_.omega(j);
    // Persistent per-block value array: after the first Newton iteration
    // this is a plain overwrite, not an allocation.
    std::vector<Complex>& vals = blockVals_[j];
    vals.resize(nnz);
    for (std::size_t p = 0; p < nnz; ++p)
      vals[p] = Complex(pv[p].real(), w * pv[p].imag());
    if (blocks_[j].analyzed()) {
      // Either outcome is usable; SymbolicLU counts the replay or repivot.
      (void)blocks_[j].refactor(vals);
    } else {
      sparse::CCSR block = packed_;
      block.values() = vals;
      blocks_[j].factor(block, luOpts);
    }
  });
}

std::size_t HBBlockPreconditioner::dim() const { return eng_.n_ * eng_.nc_; }

RFIC_REALTIME void HBBlockPreconditioner::apply(const RVec& r, RVec& z) const {
  auto& W = eng_.work_;
  eng_.unpackReal(r, W.pcSpec);
  const std::size_t n = eng_.n_;
  const std::size_t nidx = eng_.indices_.size();
  W.need(W.pzSpec, n, nidx);
  const perf::Timer timer;
  // One independent (Ḡ + jω_κ C̄) solve per harmonic; each writes its own
  // pzSpec column. Per-thread scratch makes steady-state applications
  // allocation-free.
  perf::ThreadPool::global().parallelFor(nidx, [&](std::size_t j) {
    thread_local numeric::CVec rhs, sol, scratchY, scratchZ;
    rhs.resize(n);  // rt: allow(rt-alloc) grow-once thread-local rhs gather;
                    // no-op at steady state (same n every call)
    for (std::size_t u = 0; u < n; ++u) rhs[u] = W.pcSpec(u, j);
    blocks_[j].solve(rhs, sol, scratchY, scratchZ);
    for (std::size_t u = 0; u < n; ++u) W.pzSpec(u, j) = sol[u];
  });
  perf::global().addSolve(timer.ns());
  // The DC block solve may produce a residual imaginary part from packing
  // round trips; packReal drops it, which is exactly the projection we want.
  eng_.packReal(W.pzSpec, z);
}

}  // namespace rfic::hb
