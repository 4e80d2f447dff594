// Structured convergence reporting shared by every iterative solver.
//
// The project rule (enforced by tools/numerics_lint.py) is that no
// iterative process may silently return: GMRES, CG, the shooting
// and HB Newton loops, and DC continuation all classify *why* they stopped,
// not just whether the residual target was met. Callers that previously
// read only the `converged` bool keep working; callers that need to
// distinguish "hit the iteration cap while still contracting" from "the
// recurrence broke down on a singular system" now can.
#pragma once

namespace rfic::diag {

/// Why an iterative solver stopped.
enum class SolverStatus {
  NotRun = 0,     ///< solver was never entered (default-constructed result)
  Converged,      ///< residual target met
  MaxIterations,  ///< iteration cap hit before the target
  Breakdown,      ///< recurrence broke down (e.g. pᵀAp ≈ 0 in CG);
                  ///< typical of singular or near-singular systems
  Stagnated,      ///< residual stopped improving (Krylov space exhausted)
  Diverged,       ///< residual became non-finite (NaN/Inf)
  Repivoted,      ///< pattern-reusing refactorization hit excessive pivot
                  ///< growth and fell back to a fresh full factorization
  BudgetExceeded, ///< cooperative RunBudget (wall-clock deadline or global
                  ///< iteration cap) tripped; partial results returned
  StepLimit,      ///< step control collapsed (dt cut below dtMin with the
                  ///< Newton solve still failing)
  BudgetExceededMemory, ///< the RunBudget's byte budget tripped (a workspace
                        ///< grow site crossed maxBytes); partial results
                        ///< returned, job exit code 6. Solvers report plain
                        ///< BudgetExceeded — the engine refines it to this
                        ///< via RunBudget::memoryExceeded().
};

/// Stable human-readable name for logs and error messages.
inline const char* toString(SolverStatus s) {
  switch (s) {
    case SolverStatus::NotRun: return "not-run";
    case SolverStatus::Converged: return "converged";
    case SolverStatus::MaxIterations: return "max-iterations";
    case SolverStatus::Breakdown: return "breakdown";
    case SolverStatus::Stagnated: return "stagnated";
    case SolverStatus::Diverged: return "diverged";
    case SolverStatus::Repivoted: return "repivoted";
    case SolverStatus::BudgetExceeded: return "budget-exceeded";
    case SolverStatus::StepLimit: return "step-limit";
    case SolverStatus::BudgetExceededMemory:
      return "budget-exceeded-memory";
  }
  return "unknown";
}

}  // namespace rfic::diag
