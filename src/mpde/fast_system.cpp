#include "mpde/fast_system.hpp"

#include <cmath>

#include "diag/newton.hpp"
#include "numeric/lu.hpp"

namespace rfic::mpde {

namespace {

// One BE step of the fast system from (j, y0) to sample j+1; propagates the
// dense sensitivity S ← (∂y1/∂y0)·S when provided. False when the step's
// Newton solve fails, including on a singular BE Jacobian.
bool beStep(const FastSystem& sys, std::size_t j, const RVec& y0, RVec& y1,
            RMat* sens, const FastPeriodicOptions& opts) {
  const std::size_t n = sys.dim();
  const Real h = sys.period() / static_cast<Real>(sys.samples());
  FastEval e0, e1;
  sys.eval(y0, j, e0, sens != nullptr);

  y1 = y0;
  RVec r(n), dy;
  // BE Jacobian C + h·G at the current evaluation.
  const auto jacobian = [&] {
    RMat jmat = e1.C;
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b) jmat(a, b) += h * e1.G(a, b);
    return jmat;
  };
  const diag::NewtonResult nr = diag::runNewton(
      {.maxIterations = opts.maxNewtonPerStep, .pollBudget = false},
      [&](std::size_t, const diag::NewtonSeams&) {
        sys.eval(y1, j + 1, e1, true);
        for (std::size_t i = 0; i < n; ++i)
          r[i] = e1.q[i] - e0.q[i] + h * (e1.f[i] - e1.b[i]);
        const Real rnorm = numeric::normInf(r);
        return diag::NewtonCheck{rnorm, rnorm < opts.stepTolerance * h};
      },
      [&](const diag::NewtonSeams&) {
        dy = numeric::solveDense(jacobian(), r);
      },
      [&](Real) -> diag::NewtonStop {
        y1 -= dy;
        const Real scale = 1.0 + numeric::norm2(y1);
        if (numeric::norm2(dy) < opts.stepTolerance * scale)
          return diag::SolverStatus::Converged;
        return std::nullopt;
      });
  if (nr.status != diag::SolverStatus::Converged) return false;

  if (sens) {
    sys.eval(y1, j + 1, e1, true);
    const RMat rhs = e0.C * (*sens);
    RMat out(n, sens->cols());
    RVec col(n);
    try {
      numeric::LU<Real> lu(jacobian());
      for (std::size_t c = 0; c < rhs.cols(); ++c) {
        for (std::size_t i = 0; i < n; ++i) col[i] = rhs(i, c);
        const RVec sol = lu.solve(col);
        for (std::size_t i = 0; i < n; ++i) out(i, c) = sol[i];
      }
    } catch (const NumericalError&) {
      return false;  // singular C + h·G that a converged loop never factored
    }
    *sens = std::move(out);
  }
  return true;
}

}  // namespace

FastPeriodicResult solveFastPeriodic(const FastSystem& sys, const RVec& guess,
                                     const FastPeriodicOptions& opts) {
  const std::size_t n = sys.dim();
  RFIC_REQUIRE(guess.size() == n, "solveFastPeriodic: guess size mismatch");
  const std::size_t m = sys.samples();

  // Retry ladder: failed attempts restart from the original guess with the
  // inner BE step tolerance tightened 100× per rung (inner integration
  // error contaminating the monodromy is the usual failure mode).
  FastPeriodicResult res;
  FastPeriodicOptions attemptOpts = opts;
  RVec y0, g, dy;
  res.status = diag::restartLadder(
      opts.maxRetries, res.retries,
      [&] {
        y0 = guess;
        const diag::NewtonResult nr = diag::runNewton(
            {.maxIterations = opts.maxIterations, .budget = opts.budget},
            [&](std::size_t, const diag::NewtonSeams&) {
              res.monodromy = RMat::identity(n);
              res.waveform.assign(1, y0);
              RVec y = y0, y1;
              for (std::size_t j = 0; j < m; ++j) {
                if (!beStep(sys, j, y, y1, &res.monodromy, attemptOpts))
                  return diag::NewtonCheck{
                      .stop = diag::SolverStatus::Breakdown};
                y = y1;
                res.waveform.push_back(y);
              }
              g = res.waveform.back();
              g -= y0;
              const Real gnorm = numeric::norm2(g);
              return diag::NewtonCheck{
                  gnorm, gnorm < opts.tolerance * (1.0 + numeric::norm2(y0))};
            },
            [&](const diag::NewtonSeams& seams) {
              seams.jacobian();
              RMat jac = res.monodromy;
              for (std::size_t i = 0; i < n; ++i) jac(i, i) -= 1.0;
              dy = numeric::solveDense(std::move(jac), g);
            },
            [&](Real) { y0 -= dy; });
        res.newtonIterations += nr.iterations;
        return nr.status;
      },
      [&] { attemptOpts.stepTolerance *= 0.01; });
  res.converged = res.status == diag::SolverStatus::Converged;
  return res;
}

RMat spectralDifferentiation(std::size_t m, Real period) {
  RFIC_REQUIRE(m % 2 == 1, "spectralDifferentiation: odd grid size required");
  RFIC_REQUIRE(period > 0, "spectralDifferentiation: period must be positive");
  // D = Γ⁻¹ diag(j k ω) Γ; for odd m the result is the real matrix
  // D(i,l) = (2ω/m)·Σ_{k=1..K} −k·sin(2πk(i−l)/m)  … equivalently the
  // classic cotangent formula. Assemble via the explicit Fourier sum.
  const std::size_t kmax = (m - 1) / 2;
  const Real w = kTwoPi / period;
  RMat d(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t l = 0; l < m; ++l) {
      // D(i,l) = −(2ω/m) Σ_{k=1..K} k·sin(2πk(i−l)/m)
      Real s = 0;
      for (std::size_t k = 1; k <= kmax; ++k) {
        const Real ang = kTwoPi * static_cast<Real>(k) *
                         (static_cast<Real>(i) - static_cast<Real>(l)) /
                         static_cast<Real>(m);
        s -= 2.0 * static_cast<Real>(k) * w * std::sin(ang) /
             static_cast<Real>(m);
      }
      d(i, l) = s;
    }
  }
  return d;
}

}  // namespace rfic::mpde
