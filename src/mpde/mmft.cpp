#include "mpde/mmft.hpp"

#include "circuit/mna_workspace.hpp"
#include "diag/contracts.hpp"

namespace rfic::mpde {

namespace {

// Stacked fast-axis system: block m holds x̂(t1_m, t2); the slow derivative
// ∂q/∂t1 becomes the spectral matrix D applied across blocks. One
// workspace evaluates every block, as in EnvelopeInner.
class MMFTStacked final : public FastSystem {
 public:
  MMFTStacked(const MnaSystem& sys, Real slowPeriod, Real fastPeriod,
              std::size_t m1, std::size_t m2)
      : ws_(sys),
        n_(sys.dim()),
        m1_(m1),
        m2_(m2),
        T1_(slowPeriod),
        T2_(fastPeriod),
        d_(spectralDifferentiation(m1, slowPeriod)) {}

  std::size_t dim() const override { return n_ * m1_; }
  std::size_t samples() const override { return m2_; }
  Real period() const override { return T2_; }

  void eval(const numeric::RVec& y, std::size_t j, FastEval& e,
            bool wantMatrices) const override {
    const std::size_t nd = dim();
    e.f.assign(nd, 0.0);
    e.q.assign(nd, 0.0);
    e.b.assign(nd, 0.0);
    if (wantMatrices) {
      e.G = numeric::RMat(nd, nd);
      e.C = numeric::RMat(nd, nd);
    }
    const Real t2 = T2_ * static_cast<Real>(j % m2_) / static_cast<Real>(m2_);

    // Per-block circuit evaluations. Block l's G lands on the diagonal
    // block and its C on column block l through the coupling Jacobian
    // ∂/∂y_l of D(m,l)·q(y_l) = D(m,l)·C_l, so each block's matrices are
    // consumed before the next evaluation overwrites the workspace.
    numeric::RVec xm(n_);
    for (std::size_t l = 0; l < m1_; ++l) {
      const Real t1 = T1_ * static_cast<Real>(l) / static_cast<Real>(m1_);
      for (std::size_t u = 0; u < n_; ++u) xm[u] = y[l * n_ + u];
      ws_.evalBivariate(xm, t1, t2, wantMatrices);
      for (std::size_t u = 0; u < n_; ++u) {
        e.f[l * n_ + u] = ws_.f()[u];
        e.q[l * n_ + u] = ws_.q()[u];
        e.b[l * n_ + u] = ws_.b()[u];
      }
      if (!wantMatrices) continue;
      const auto& pat = ws_.pattern();
      circuit::scatterDense(pat, ws_.gValues(), e.G, 1.0, l * n_, l * n_);
      circuit::scatterDense(pat, ws_.cValues(), e.C, 1.0, l * n_, l * n_);
      for (std::size_t m = 0; m < m1_; ++m) {
        const Real dml = d_(m, l);
        if (diag::exactlyZero(dml)) continue;
        circuit::scatterDense(pat, ws_.cValues(), e.G, dml, m * n_, l * n_);
      }
    }
    // f block + spectral slow-derivative coupling Σ_l D(m,l)·q_l.
    for (std::size_t m = 0; m < m1_; ++m) {
      for (std::size_t u = 0; u < n_; ++u) {
        Real fv = e.f[m * n_ + u];
        for (std::size_t l = 0; l < m1_; ++l)
          fv += d_(m, l) * e.q[l * n_ + u];
        e.f[m * n_ + u] = fv;
      }
    }
  }

 private:
  mutable circuit::MnaWorkspace ws_;
  std::size_t n_, m1_, m2_;
  Real T1_, T2_;
  numeric::RMat d_;
};

}  // namespace

MMFTResult runMMFT(const MnaSystem& sys, Real slowFreq, Real fastFreq,
                   const numeric::RVec& dcOp, const MMFTOptions& opts) {
  RFIC_REQUIRE(slowFreq > 0 && fastFreq > 0, "runMMFT: bad frequencies");
  RFIC_REQUIRE(dcOp.size() == sys.dim(), "runMMFT: DC point size mismatch");
  const std::size_t n = sys.dim();
  const std::size_t m1 = 2 * opts.slowHarmonics + 1;
  const std::size_t m2 = opts.fastSteps;

  MMFTStacked stacked(sys, 1.0 / slowFreq, 1.0 / fastFreq, m1, m2);

  numeric::RVec guess(n * m1);
  for (std::size_t m = 0; m < m1; ++m)
    for (std::size_t u = 0; u < n; ++u) guess[m * n + u] = dcOp[u];

  const FastPeriodicResult inner =
      solveFastPeriodic(stacked, guess, opts.inner);

  MMFTResult res;
  res.shootingIterations = inner.newtonIterations;
  res.converged = inner.converged;
  res.grid = BivariateGrid(n, m1, m2, 1.0 / slowFreq, 1.0 / fastFreq);
  for (std::size_t j = 0; j < m2 && j < inner.waveform.size(); ++j)
    for (std::size_t m = 0; m < m1; ++m)
      for (std::size_t u = 0; u < n; ++u)
        res.grid.at(u, m, j) = inner.waveform[j][m * n + u];
  return res;
}

}  // namespace rfic::mpde
