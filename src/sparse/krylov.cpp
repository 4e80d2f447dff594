#include "sparse/krylov.hpp"

#include <cmath>
#include <vector>

#include "diag/contracts.hpp"

namespace rfic::sparse {

using diag::SolverStatus;

namespace {

inline Real conjIfComplex(Real v) { return v; }
inline Complex conjIfComplex(const Complex& v) { return std::conj(v); }

template <class T>
void applyOrCopy(const LinearOperator<T>* prec, const Vec<T>& x, Vec<T>& y) {
  if (prec) {
    y.resize(x.size());
    prec->apply(x, y);
  } else {
    y = x;
  }
}

std::size_t stagnationWindowOf(const IterativeOptions& opts) {
  if (opts.stagnationWindow != 0) return opts.stagnationWindow;
  return std::max<std::size_t>(50, opts.maxIterations / 10);
}

// Shared entry hook: the krylov-stall fault point makes the next solver
// call report Stagnated without touching x, exercising every caller's
// stall-recovery path deterministically.
bool injectStall(IterativeResult& res) {
  if (diag::FaultInjector::global().fire(diag::FaultPoint::KrylovStall)) {
    res.status = SolverStatus::Stagnated;
    return true;
  }
  return false;
}

}  // namespace

template <class T>
IterativeResult gmres(const LinearOperator<T>& a, const Vec<T>& b, Vec<T>& x,
                      const LinearOperator<T>* rightPrec,
                      const IterativeOptions& opts, GmresWorkspace<T>* ws) {
  const std::size_t n = a.dim();
  RFIC_REQUIRE(b.size() == n, "gmres: rhs size mismatch");
  if (x.size() != n) x = Vec<T>(n);

  const Real bnorm = numeric::norm2(b);
  diag::checkFinite(bnorm, "gmres: rhs norm");
  IterativeResult res;
  if (injectStall(res)) return res;
  if (diag::exactlyZero(bnorm)) {
    x.setZero();
    res.converged = true;
    res.status = SolverStatus::Converged;
    return res;
  }
  const Real target = opts.tolerance * bnorm;

  const std::size_t m = std::max<std::size_t>(1, opts.restart);
  // All state lives in the (possibly caller-owned) workspace; every buffer
  // grows to its high-water mark once and is then reused, so repeated
  // calls with a persistent workspace never touch the allocator.
  GmresWorkspace<T> transient;
  GmresWorkspace<T>& W = ws ? *ws : transient;
  if (W.v.size() < m + 1) W.v.resize(m + 1);
  W.h.resize(m + 1, m);
  W.cs.resize(m);
  W.sn.resize(m);
  W.g.resize(m + 1);
  W.w.resize(n);
  W.tmp.resize(n);
  W.r.resize(n);
  W.du.resize(n);
  std::vector<Vec<T>>& v = W.v;  // Arnoldi basis
  numeric::Mat<T>& h = W.h;
  std::vector<T>& cs = W.cs;
  std::vector<T>& sn = W.sn;
  std::vector<T>& g = W.g;
  Vec<T>& w = W.w;
  Vec<T>& tmp = W.tmp;
  Vec<T>& r = W.r;

  std::size_t totalIt = 0;
  Real lastRestartResidual = -1;  // true residual at the previous restart
  while (totalIt < opts.maxIterations) {
    // r = b - A x  (A applied to the true x; preconditioning is right-sided)
    a.apply(x, w);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - w[i];
    Real beta = numeric::norm2(r);
    res.residualNorm = beta;
    if (!diag::isFinite(beta)) {
      res.status = SolverStatus::Diverged;
      return res;
    }
    if (beta <= target) {
      res.converged = true;
      res.status = SolverStatus::Converged;
      return res;
    }
    // A restart cycle that produced no residual reduction at all means the
    // Krylov space is exhausted (singular or inconsistent system): x is
    // already the least-squares-optimal point reachable, and further
    // restarts would spin on identical iterates until the iteration cap.
    if (lastRestartResidual >= 0 && beta >= lastRestartResidual) {
      res.status = SolverStatus::Stagnated;
      return res;
    }
    lastRestartResidual = beta;

    v[0].resize(n);
    {
      const T inv = T(1.0 / beta);
      for (std::size_t i = 0; i < n; ++i) v[0][i] = r[i] * inv;
    }
    std::fill(g.begin(), g.end(), T{});
    g[0] = beta;
    h.setZero();

    std::size_t j = 0;
    for (; j < m && totalIt < opts.maxIterations; ++j, ++totalIt) {
      if (opts.budget) opts.budget->chargeKrylov();
      if (diag::budgetExceeded(opts.budget)) {
        res.status = SolverStatus::BudgetExceeded;
        return res;  // x holds the last restart's partial iterate
      }
      // w = A M^{-1} v_j
      applyOrCopy(rightPrec, v[j], tmp);
      a.apply(tmp, w);
      // Modified Gram-Schmidt.
      for (std::size_t i = 0; i <= j; ++i) {
        const T hij = numeric::dot(v[i], w);
        h(i, j) = hij;
        numeric::axpy(-hij, v[i], w);
      }
      const Real wnorm = numeric::norm2(w);
      RFIC_CHECK_FINITE(wnorm, "gmres: Arnoldi vector norm");
      h(j + 1, j) = wnorm;
      if (wnorm > 0) {
        Vec<T>& vj1 = v[j + 1];
        vj1.resize(n);
        const T inv = T(1.0 / wnorm);
        for (std::size_t i = 0; i < n; ++i) vj1[i] = w[i] * inv;
      }
      // Apply accumulated Givens rotations to the new column.
      for (std::size_t i = 0; i < j; ++i) {
        const T t1 = h(i, j), t2 = h(i + 1, j);
        h(i, j) = conjIfComplex(cs[i]) * t1 + conjIfComplex(sn[i]) * t2;
        h(i + 1, j) = -sn[i] * t1 + cs[i] * t2;
      }
      // New rotation to annihilate h(j+1, j).
      const T f = h(j, j), gg = h(j + 1, j);
      const Real denom = std::sqrt(std::norm(Complex(f)) + std::norm(Complex(gg)));
      if (diag::exactlyZero(denom)) {
        cs[j] = T(1);
        sn[j] = T(0);
      } else {
        cs[j] = f / static_cast<T>(denom) ;
        sn[j] = gg / static_cast<T>(denom);
      }
      h(j, j) = conjIfComplex(cs[j]) * f + conjIfComplex(sn[j]) * gg;
      h(j + 1, j) = T(0);
      const T t = g[j];
      g[j] = conjIfComplex(cs[j]) * t;
      g[j + 1] = -sn[j] * t;
      res.residualNorm = std::abs(g[j + 1]);
      ++res.iterations;
      if (res.residualNorm <= target || wnorm == 0) {
        ++j;
        break;
      }
    }

    // Solve the small triangular system and update x. A zero diagonal in
    // the projected triangular factor means the Krylov space hit a
    // singular direction; skip that component rather than dividing by it.
    W.y.resize(j);
    std::vector<T>& y = W.y;
    for (std::size_t i = j; i-- > 0;) {
      T s = g[i];
      for (std::size_t k = i + 1; k < j; ++k) s -= h(i, k) * y[k];
      y[i] = diag::exactlyZero(h(i, i)) ? T(0) : s / h(i, i);
    }
    Vec<T>& du = W.du;
    du.setZero();
    for (std::size_t i = 0; i < j; ++i) numeric::axpy(y[i], v[i], du);
    applyOrCopy(rightPrec, du, tmp);
    x += tmp;

    if (res.residualNorm <= target) {
      // The Givens recurrence estimate |g(j+1)| is unreliable once a zero
      // appears on the projected Hessenberg diagonal (happy breakdown on a
      // singular system drives it to exactly 0 while the true residual is
      // stuck at the least-squares distance). Never declare convergence on
      // the estimate alone — confirm with a true residual.
      a.apply(x, w);
      for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - w[i];
      const Real trueRes = numeric::norm2(r);
      res.residualNorm = trueRes;
      if (trueRes <= target) {
        res.converged = true;
        res.status = SolverStatus::Converged;
        return res;
      }
      // Otherwise fall through: the restart loop re-enters and the
      // stagnation detector classifies a system that cannot improve.
    }
  }
  res.status = SolverStatus::MaxIterations;
  return res;
}

IterativeResult conjugateGradient(const LinearOperator<Real>& a,
                                  const Vec<Real>& b, Vec<Real>& x,
                                  const IterativeOptions& opts) {
  const std::size_t n = a.dim();
  RFIC_REQUIRE(b.size() == n, "cg: rhs size mismatch");
  if (x.size() != n) x = Vec<Real>(n);

  IterativeResult res;
  if (injectStall(res)) return res;
  const Real bnorm = numeric::norm2(b);
  diag::checkFinite(bnorm, "cg: rhs norm");
  if (diag::exactlyZero(bnorm)) {
    x.setZero();
    res.converged = true;
    res.status = SolverStatus::Converged;
    return res;
  }
  const Real target = opts.tolerance * bnorm;

  Vec<Real> r(n), p(n), ap(n);
  a.apply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  p = r;
  Real rs = numeric::dot(r, r);
  const std::size_t window = stagnationWindowOf(opts);
  Real bestRes = std::sqrt(rs);
  std::size_t sinceImprovement = 0;
  for (std::size_t it = 0; it < opts.maxIterations; ++it) {
    if (opts.budget) opts.budget->chargeKrylov();
    if (diag::budgetExceeded(opts.budget)) {
      res.status = SolverStatus::BudgetExceeded;
      return res;
    }
    a.apply(p, ap);
    const Real pap = numeric::dot(p, ap);
    if (std::abs(pap) < 1e-300) {
      res.status = SolverStatus::Breakdown;  // ⟨p, A·p⟩ ≈ 0: A not SPD
      return res;
    }
    const Real alpha = rs / pap;
    numeric::axpy(alpha, p, x);
    numeric::axpy(-alpha, ap, r);
    const Real rsNew = numeric::dot(r, r);
    res.residualNorm = std::sqrt(rsNew);
    ++res.iterations;
    if (!diag::isFinite(res.residualNorm)) {
      res.status = SolverStatus::Diverged;
      return res;
    }
    if (res.residualNorm <= target) {
      res.converged = true;
      res.status = SolverStatus::Converged;
      return res;
    }
    if (res.residualNorm < bestRes) {
      bestRes = res.residualNorm;
      sinceImprovement = 0;
    } else if (++sinceImprovement >= window) {
      res.status = SolverStatus::Stagnated;
      return res;
    }
    p *= rsNew / rs;
    p += r;
    rs = rsNew;
  }
  res.status = SolverStatus::MaxIterations;
  return res;
}

template <class T>
JacobiPreconditioner<T>::JacobiPreconditioner(const CSR<T>& a)
    : invDiag_(a.rows(), T(1)) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t p = a.rowPtr()[r]; p < a.rowPtr()[r + 1]; ++p) {
      if (a.colIdx()[p] == r && !diag::exactlyZero(a.values()[p])) {
        invDiag_[r] = T(1) / a.values()[p];
        break;
      }
    }
  }
}

template <class T>
void JacobiPreconditioner<T>::apply(const Vec<T>& x, Vec<T>& y) const {
  y.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = invDiag_[i] * x[i];
}

template IterativeResult gmres<Real>(const LinearOperator<Real>&,
                                     const Vec<Real>&, Vec<Real>&,
                                     const LinearOperator<Real>*,
                                     const IterativeOptions&,
                                     GmresWorkspace<Real>*);
template IterativeResult gmres<Complex>(const LinearOperator<Complex>&,
                                        const Vec<Complex>&, Vec<Complex>&,
                                        const LinearOperator<Complex>*,
                                        const IterativeOptions&,
                                        GmresWorkspace<Complex>*);
template class JacobiPreconditioner<Real>;
template class JacobiPreconditioner<Complex>;

}  // namespace rfic::sparse
