#include "analysis/shooting.hpp"

#include <cmath>

#include "diag/contracts.hpp"
#include "diag/newton.hpp"
#include "numeric/lu.hpp"

namespace rfic::analysis {

namespace {

// Integrate one period from x0 with sensitivity propagation; fills the
// trajectory and returns the monodromy matrix in `sens`. The workspace
// persists across periods (and Newton iterations), so every step after the
// very first refactors on the cached pattern instead of refactoring
// symbolically.
bool sweepPeriod(circuit::MnaWorkspace& ws, Real t0, Real period,
                 const RVec& x0, const ShootingOptions& opts, Real innerTol,
                 std::vector<Real>& times, std::vector<RVec>& traj,
                 RMat& sens) {
  const std::size_t n = ws.dim();
  const std::size_t m = opts.stepsPerPeriod;
  const Real h = period / static_cast<Real>(m);
  sens = RMat::identity(n);
  times.assign(1, t0);
  traj.assign(1, x0);
  RVec x = x0, x1;
  for (std::size_t k = 0; k < m; ++k) {
    const Real t = t0 + h * static_cast<Real>(k);
    if (!integrateStep(ws, opts.method, t, h, x, nullptr, x1, &sens, 50,
                       innerTol)) {
      return false;
    }
    x = x1;
    times.push_back(t + h);
    traj.push_back(x);
  }
  return true;
}

// ẋ at state x, time t, assuming invertible C: C·ẋ = b − f.
RVec stateDerivative(circuit::MnaWorkspace& ws, const RVec& x, Real t) {
  ws.eval(x, t, true);
  const std::size_t n = ws.dim();
  RVec rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = ws.b()[i] - ws.f()[i];
  numeric::RMat c(n, n);
  circuit::scatterDense(ws.pattern(), ws.cValues(), c);
  return numeric::solveDense(std::move(c), rhs);
}

// The shooting Newton solve on g(x0) = x(T) − x0 inside its retry ladder:
// each failed attempt restarts from `init()` with the inner Newton tolerance
// tightened 100× — integration error contaminating the monodromy is the
// usual reason the outer Newton breaks down or spins. `solve` (which reads
// g) and `update` are the kernel phases of the call site.
template <class Init, class Solve, class Update>
void shoot(circuit::MnaWorkspace& ws, const ShootingOptions& opts,
           PSSResult& res, RVec& g, Init&& init, Solve&& solve,
           Update&& update) {
  Real innerTol = opts.newtonTol;
  const auto attempt = [&] {
    init();
    const diag::NewtonResult nr = diag::runNewton(
        {.maxIterations = opts.maxIterations, .budget = opts.budget},
        [&](std::size_t, const diag::NewtonSeams&) {
          if (!sweepPeriod(ws, 0.0, res.period, res.x0, opts, innerTol,
                           res.times, res.trajectory, res.monodromy))
            return diag::NewtonCheck{.stop = diag::SolverStatus::Breakdown};
          g = res.trajectory.back();
          g -= res.x0;
          const Real gnorm = numeric::norm2(g);
          return diag::NewtonCheck{
              gnorm, gnorm < opts.tolerance * (1.0 + numeric::norm2(res.x0))};
        },
        solve, update);
    res.newtonIterations += nr.iterations;
    return nr.status;
  };
  res.status = diag::restartLadder(opts.maxRetries, res.retries, attempt,
                                   [&] { innerTol *= 0.01; });
  res.converged = res.status == diag::SolverStatus::Converged;
}

}  // namespace

PSSResult shootingPSS(const circuit::MnaSystem& sys, Real period,
                      const RVec& guess, const ShootingOptions& opts) {
  RFIC_REQUIRE(period > 0, "shootingPSS: period must be positive");
  const std::size_t n = sys.dim();
  RFIC_REQUIRE(guess.size() == n, "shootingPSS: guess size mismatch");

  PSSResult res;
  res.period = period;
  res.method = opts.method;

  circuit::MnaWorkspace ws(sys);
  RVec g, dx;
  shoot(
      ws, opts, res, g, [&] { res.x0 = guess; },
      // Solve (M − I)·dx = −g. A singular (M − I) — a +1 Floquet
      // multiplier, or an injected singular-jacobian fault — is a clean
      // Breakdown, not an escaping exception.
      [&](const diag::NewtonSeams& seams) {
        seams.jacobian();
        RMat j = res.monodromy;
        for (std::size_t i = 0; i < n; ++i) j(i, i) -= 1.0;
        dx = numeric::solveDense(std::move(j), g);
      },
      [&](Real) { res.x0 -= dx; });
  return res;
}

PSSResult shootingOscillatorPSS(const circuit::MnaSystem& sys,
                                Real periodGuess, const RVec& guess,
                                std::size_t anchorIndex, Real anchorValue,
                                const ShootingOptions& opts) {
  RFIC_REQUIRE(periodGuess > 0, "shootingOscillatorPSS: bad period guess");
  const std::size_t n = sys.dim();
  RFIC_REQUIRE(guess.size() == n && anchorIndex < n,
               "shootingOscillatorPSS: bad arguments");

  PSSResult res;
  res.method = opts.method;

  circuit::MnaWorkspace ws(sys);
  RVec g, d;
  shoot(
      ws, opts, res, g,
      [&] {
        res.period = periodGuess;
        res.x0 = guess;
        res.x0[anchorIndex] = anchorValue;
      },
      // Augmented Newton system:
      //   [ M − I   ẋ(T) ] [dx]   [ −g ]
      //   [ e_aᵀ      0  ] [dT] = [  0 ]
      [&](const diag::NewtonSeams& seams) {
        seams.jacobian();
        const RVec xdotT =
            stateDerivative(ws, res.trajectory.back(), res.period);
        RMat j(n + 1, n + 1);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t k = 0; k < n; ++k) j(i, k) = res.monodromy(i, k);
          j(i, i) -= 1.0;
          j(i, n) = xdotT[i];
        }
        j(n, anchorIndex) = 1.0;
        RVec rhs(n + 1);
        for (std::size_t i = 0; i < n; ++i) rhs[i] = g[i];
        rhs[n] = res.x0[anchorIndex] - anchorValue;
        d = numeric::solveDense(std::move(j), rhs);
      },
      // Damped update guards against period sign flips far from the orbit;
      // a collapsed period restarts the ladder rather than aborting.
      [&](Real) -> diag::NewtonStop {
        Real alpha = 1.0;
        if (std::abs(d[n]) > 0.3 * res.period)
          alpha = 0.3 * res.period / std::abs(d[n]);
        for (std::size_t i = 0; i < n; ++i) res.x0[i] -= alpha * d[i];
        res.period -= alpha * d[n];
        if (!(res.period > 0)) return diag::SolverStatus::Diverged;
        return std::nullopt;
      });
  return res;
}

Real estimatePeriod(const TransientResult& tran, std::size_t index,
                    Real level) {
  RFIC_REQUIRE(tran.x.size() >= 4, "estimatePeriod: trajectory too short");
  std::vector<Real> crossings;
  for (std::size_t k = 1; k < tran.x.size(); ++k) {
    const Real a = tran.x[k - 1][index] - level;
    const Real b = tran.x[k][index] - level;
    if (a < 0 && b >= 0) {
      const Real w = a / (a - b);
      crossings.push_back(tran.time[k - 1] +
                          w * (tran.time[k] - tran.time[k - 1]));
    }
  }
  RFIC_REQUIRE(crossings.size() >= 2,
               "estimatePeriod: fewer than two rising crossings");
  // Average the intervals over the last half of the crossings (startup
  // transient discarded).
  const std::size_t first = crossings.size() / 2;
  const std::size_t count = crossings.size() - 1 - first;
  RFIC_REQUIRE(count >= 1, "estimatePeriod: not enough steady crossings");
  return (crossings.back() - crossings[first]) / static_cast<Real>(count);
}

}  // namespace rfic::analysis
