// The one Newton kernel behind every analysis: DC, transient and noisy
// transient, HB, MFDTD, and the fast-axis and PSS shooting. runNewton owns
// the iteration cap, one budget charge per iteration and the poll, the fault
// seams, the finite-residual check and the SolverStatus. The call site
// supplies check(it, seams) -> NewtonCheck (residual norm and convergence
// test), solve(seams) (linearize and solve, under the NumericalError ->
// Breakdown catch) and update(rnorm); solve and update return void or a
// NewtonStop. Each site calls a seam where its loop always fired that
// fault, so FaultInjector countdowns land where they did (DESIGN.md §6).
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "common.hpp"
#include "diag/convergence.hpp"
#include "diag/resilience.hpp"
#include "perf/perf.hpp"

namespace rfic::diag {

/// A status ends the solve with it; std::nullopt lets the iteration go on.
using NewtonStop = std::optional<SolverStatus>;

/// The residual norm (non-finite ends the solve Diverged) and the call
/// site's convergence test, or a status that ends the solve before them.
struct NewtonCheck {
  Real norm = 0;
  bool converged = false;
  NewtonStop stop{};
};

struct NewtonLoop {
  std::size_t maxIterations = 0;
  RunBudget* budget = nullptr;  ///< charged once per iteration when set
  bool pollBudget = true;       ///< poll budgetExceeded() every iteration
};

struct NewtonResult {
  SolverStatus status = SolverStatus::NotRun;
  std::size_t iterations = 0;  ///< iterations entered, each charged once
};

/// The fault seams of one Newton iteration.
struct NewtonSeams {
  /// nan-in-residual: NaN in place of `norm` when the point fires, as if a
  /// residual entry had been poisoned.
  Real residual(Real norm) const {
    return FaultInjector::global().fire(FaultPoint::NanInResidual)
               ? std::numeric_limits<Real>::quiet_NaN()
               : norm;
  }
  /// singular-jacobian: fail as a singular factorization would.
  void jacobian() const {
    if (FaultInjector::global().fire(FaultPoint::SingularJacobian))
      failNumerical("injected singular Jacobian");
  }
};

namespace detail {
// A phase that returns void never ends the solve.
template <class Phase, class... Args>
NewtonStop runPhase(Phase& phase, Args&&... args) {
  if constexpr (std::is_void_v<std::invoke_result_t<Phase&, Args...>>) {
    phase(std::forward<Args>(args)...);
    return std::nullopt;
  } else {
    return phase(std::forward<Args>(args)...);
  }
}
}  // namespace detail

/// One Newton solve: Converged, Diverged (non-finite residual norm),
/// Breakdown (a NumericalError from solve), BudgetExceeded, MaxIterations
/// at the cap, or the status a phase ended it with.
template <class Check, class Solve, class Update>
NewtonResult runNewton(const NewtonLoop& loop, Check&& check, Solve&& solve,
                       Update&& update) {
  const NewtonSeams seams;
  for (std::size_t it = 0; it < loop.maxIterations; ++it) {
    const auto end = [it](SolverStatus s) { return NewtonResult{s, it + 1}; };
    if (loop.budget != nullptr) loop.budget->chargeNewton();
    if (loop.pollBudget && budgetExceeded(loop.budget))
      return end(SolverStatus::BudgetExceeded);
    const NewtonCheck c = check(it, seams);
    if (c.stop) return end(*c.stop);
    // A NaN/Inf residual means the iterate left the models' domain; riding
    // it through the linear solve would poison every later iterate.
    if (!std::isfinite(c.norm)) return end(SolverStatus::Diverged);
    if (c.converged) return end(SolverStatus::Converged);
    try {
      if (const NewtonStop s = detail::runPhase(solve, seams)) return end(*s);
    } catch (const NumericalError&) {
      return end(SolverStatus::Breakdown);
    }
    if (const NewtonStop s = detail::runPhase(update, c.norm)) return end(*s);
  }
  return {SolverStatus::MaxIterations, loop.maxIterations};
}

/// Backtracking damping: tries α = 1, ½, ¼, … down to 2^-maxHalvings;
/// `trialNorm(α)` forms the trial iterate and returns its residual norm.
/// Takes the first finite trial within `growth`·rnorm, or at the last α any
/// finite trial, never a non-finite one. A trial whose evaluation throws
/// NumericalError (a finite-value contract on the models' outputs) counts
/// as non-finite. Returns the α taken, or nullopt.
template <class TrialNorm>
std::optional<Real> dampedStep(int maxHalvings, Real rnorm, Real growth,
                               TrialNorm&& trialNorm) {
  Real alpha = 1.0;
  for (int k = 0; k <= maxHalvings; ++k) {
    Real tn = std::numeric_limits<Real>::quiet_NaN();
    try {
      tn = trialNorm(alpha);
    } catch (const NumericalError&) {
    }
    if (std::isfinite(tn) && (tn <= growth * rnorm || k == maxHalvings))
      return alpha;
    alpha *= 0.5;
  }
  return std::nullopt;
}

/// The restart-and-tighten ladder of the shooting-type solvers: runs
/// `attempt()` (one Newton solve from the original guess, returning its
/// status) until it converges, the budget trips or `maxRetries` restarts
/// have run; before each restart `tighten()` tightens the inner tolerances
/// and the retry is counted in `retries` and perf. Returns the last status.
template <class Attempt, class Tighten>
SolverStatus restartLadder(std::size_t maxRetries, std::size_t& retries,
                           Attempt&& attempt, Tighten&& tighten) {
  for (std::size_t rung = 0;; ++rung) {
    const SolverStatus s = attempt();
    if (s == SolverStatus::Converged || s == SolverStatus::BudgetExceeded ||
        rung >= maxRetries)
      return s;
    tighten();
    ++retries;
    perf::global().addRetry();
  }
}

}  // namespace rfic::diag
