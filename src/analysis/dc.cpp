#include "analysis/dc.hpp"

#include <cmath>
#include <optional>

#include "diag/newton.hpp"

namespace rfic::analysis {

namespace {

// SPICE-style componentwise KCL check: every residual entry small against
// the local current level.
bool residualConverged(const RVec& r, const RVec& f, const RVec& b,
                       Real sourceScale, const DCOptions& opts) {
  for (std::size_t i = 0; i < r.size(); ++i) {
    const Real level = std::abs(f[i]) + std::abs(sourceScale * b[i]);
    if (std::abs(r[i]) > opts.tolRelative * level + opts.tolResidual)
      return false;
  }
  return true;
}

}  // namespace

bool dcNewton(circuit::MnaWorkspace& ws, RVec& x, Real sourceScale,
              Real gshunt, const DCOptions& opts, std::size_t& itersOut,
              diag::SolverStatus* statusOut) {
  const std::size_t n = ws.dim();
  RVec xPrev = x;
  // The componentwise relative test alone is satisfiable by garbage iterates
  // whose device currents are astronomically large (r ≈ f there); require
  // the last Newton update to have settled as well, SPICE-style.
  Real lastUpdate = 1e300;
  RVec r(n), rTrue(n), rt(n), dx, trial;
  const diag::NewtonResult res = diag::runNewton(
      {.maxIterations = opts.maxIterations, .budget = opts.budget},
      [&](std::size_t it, const diag::NewtonSeams& seams) {
        // Convergence is judged on the TRUE residual (no junction
        // limiting): the limited evaluation can look perfectly
        // KCL-consistent while the actual iterate is far from a solution.
        ws.eval(x, 0.0, false);
        for (std::size_t i = 0; i < n; ++i)
          rTrue[i] = ws.f()[i] - sourceScale * ws.b()[i] + gshunt * x[i];
        if (residualConverged(rTrue, ws.f(), ws.b(), sourceScale, opts)) {
          const bool updateSettled =
              lastUpdate < opts.tolUpdate * (1.0 + numeric::normInf(x));
          if (updateSettled || numeric::norm2(rTrue) < opts.tolResidual)
            return diag::NewtonCheck{.stop = diag::SolverStatus::Converged};
        }
        // The Newton step itself uses the limited evaluation.
        ws.eval(x, 0.0, true, it > 0 ? &xPrev : nullptr);
        for (std::size_t i = 0; i < n; ++i)
          r[i] = ws.f()[i] - sourceScale * ws.b()[i] + gshunt * x[i];
        return diag::NewtonCheck{seams.residual(numeric::norm2(r))};
      },
      // J = G + gshunt·I over the cached pattern; after the first iteration
      // this is a numeric refactorization (SolverStatus::Repivoted when the
      // recorded pivots went stale).
      [&](const diag::NewtonSeams& seams) {
        seams.jacobian();
        ws.factorJacobian(0.0, 1.0, gshunt);
        dx = ws.solve(r);
      },
      // Damped update: halve the step until the residual stops blowing up.
      // Junction limiting makes the evaluated residual differ from the pure
      // Newton model, so any non-diverging finite trial is accepted.
      [&](Real rnorm) -> diag::NewtonStop {
        xPrev = x;
        const std::optional<Real> alpha =
            diag::dampedStep(8, rnorm, 2.0, [&](Real a) {
              trial = x;
              numeric::axpy(-a, dx, trial);
              ws.eval(trial, 0.0, false, &xPrev);
              for (std::size_t i = 0; i < n; ++i)
                rt[i] = ws.f()[i] - sourceScale * ws.b()[i] + gshunt * trial[i];
              return numeric::norm2(rt);
            });
        if (!alpha) return diag::SolverStatus::Diverged;
        x = trial;
        lastUpdate = *alpha * numeric::normInf(dx);
        return std::nullopt;
      });
  itersOut = res.iterations;
  if (statusOut) *statusOut = res.status;
  return res.status == diag::SolverStatus::Converged;
}

namespace {

// The strategy ladder behind dcOperatingPoint, run under its counter scope.
DCResult dcLadder(const MnaSystem& sys, const DCOptions& opts) {
  DCResult res;
  res.x = RVec(sys.dim(), 0.0);

  // One workspace for all strategies: the circuit's pattern and pivot order
  // carry across Newton restarts and continuation ramps. A caller-supplied
  // workspace extends that reuse across whole solves (engine context cache).
  std::optional<circuit::MnaWorkspace> local;
  if (opts.workspace != nullptr)
    RFIC_REQUIRE(&opts.workspace->system() == &sys,
                 "dcOperatingPoint: workspace bound to a different system");
  circuit::MnaWorkspace& ws =
      opts.workspace != nullptr ? *opts.workspace : local.emplace(sys);

  diag::SolverStatus status = diag::SolverStatus::NotRun;
  const auto budgetAbort = [&](const RVec& partial, const char* strategy) {
    res.x = partial;
    res.converged = false;
    res.status = diag::SolverStatus::BudgetExceeded;
    res.strategy = strategy;
    return res;
  };

  // Strategy 1: plain Newton from zero.
  if (dcNewton(ws, res.x, 1.0, 0.0, opts, res.iterations, &status)) {
    res.converged = true;
    res.status = diag::SolverStatus::Converged;
    res.strategy = "newton";
    return res;
  }
  if (status == diag::SolverStatus::BudgetExceeded)
    return budgetAbort(res.x, "newton");

  // Strategy 2: gmin stepping.
  perf::global().addFallback();
  {
    RVec x(sys.dim(), 0.0);
    bool ok = true;
    std::size_t iters = 0;
    for (std::size_t k = 0; k <= opts.gminSteps; ++k) {
      const Real g = (k == opts.gminSteps)
                         ? 0.0
                         : opts.initialGmin * std::pow(0.1, static_cast<Real>(k));
      std::size_t it = 0;
      if (!dcNewton(ws, x, 1.0, g, opts, it, &status)) {
        ok = false;
        break;
      }
      iters += it;
    }
    if (ok) {
      res.x = x;
      res.converged = true;
      res.status = diag::SolverStatus::Converged;
      res.iterations = iters;
      res.strategy = "gmin";
      return res;
    }
    if (status == diag::SolverStatus::BudgetExceeded)
      return budgetAbort(x, "gmin");
  }

  // Strategy 3: source stepping.
  perf::global().addFallback();
  {
    RVec x(sys.dim(), 0.0);
    bool ok = true;
    std::size_t iters = 0;
    for (std::size_t k = 1; k <= opts.sourceSteps; ++k) {
      const Real scale =
          static_cast<Real>(k) / static_cast<Real>(opts.sourceSteps);
      std::size_t it = 0;
      if (!dcNewton(ws, x, scale, 0.0, opts, it, &status)) {
        ok = false;
        break;
      }
      iters += it;
    }
    if (ok) {
      res.x = x;
      res.converged = true;
      res.status = diag::SolverStatus::Converged;
      res.iterations = iters;
      res.strategy = "source";
      return res;
    }
    if (status == diag::SolverStatus::BudgetExceeded)
      return budgetAbort(x, "source");
  }

  failNumerical("dcOperatingPoint: no convergence with any strategy");
}

}  // namespace

DCResult dcOperatingPoint(const MnaSystem& sys, const DCOptions& opts) {
  RFIC_REQUIRE(sys.dim() > 0, "dcOperatingPoint: empty system");
  RFIC_REQUIRE(opts.maxIterations > 0, "dcOperatingPoint: maxIterations == 0");
  return perf::measured([&] { return dcLadder(sys, opts); });
}

}  // namespace rfic::analysis
