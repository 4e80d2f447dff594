// DC operating-point analysis: damped Newton with gmin stepping and source
// stepping continuation — the robustness workhorse every other analysis
// starts from.
#pragma once

#include "circuit/mna.hpp"
#include "circuit/mna_workspace.hpp"
#include "diag/convergence.hpp"
#include "diag/resilience.hpp"
#include "perf/perf.hpp"

namespace rfic::analysis {

using circuit::MnaSystem;
using numeric::RVec;

struct DCOptions {
  std::size_t maxIterations = 200;
  Real tolResidual = 1e-12;  ///< absolute residual floor [A] (KCL abstol)
  Real tolRelative = 1e-6;   ///< relative residual vs local current level
  Real tolUpdate = 1e-9;     ///< absolute update norm target [V]
  std::size_t gminSteps = 10;    ///< decades of gmin continuation
  std::size_t sourceSteps = 10;  ///< source-stepping ramp points
  Real initialGmin = 1e-2;
  /// Optional cooperative budget: Newton iterations are charged against it
  /// and the solve returns SolverStatus::BudgetExceeded (instead of
  /// escalating strategies or throwing) once it trips.
  diag::RunBudget* budget = nullptr;
  /// Optional caller-owned workspace (must be built on the same MnaSystem).
  /// When set, the solve reuses its cached sparsity pattern and SymbolicLU
  /// pivot order — this is how the engine layer makes repeat-topology jobs
  /// refactor instead of re-discovering the pattern from scratch.
  circuit::MnaWorkspace* workspace = nullptr;
};

struct DCResult {
  RVec x;
  bool converged = false;
  diag::SolverStatus status = diag::SolverStatus::NotRun;
  std::size_t iterations = 0;
  std::string strategy;  ///< "newton", "gmin", or "source"
  perf::Snapshot perf;   ///< pipeline counters for the whole solve
};

/// Solve f(x) = b(0). Tries plain Newton, then gmin stepping, then source
/// stepping. Throws NumericalError if all strategies fail — except under a
/// tripped RunBudget, which returns the partial result with
/// SolverStatus::BudgetExceeded instead.
DCResult dcOperatingPoint(const MnaSystem& sys, const DCOptions& opts = {});

/// Newton solve of f(x) = scale·b(0) + gshunt·x-leak starting from x0, on
/// a workspace shared across calls — the gmin and source continuation
/// strategies reuse the same factorization pattern for every ramp point.
/// `statusOut` (optional) reports why the loop stopped: Converged,
/// MaxIterations, Breakdown (singular Jacobian), Diverged (non-finite
/// residual with no finite damped step), or BudgetExceeded.
bool dcNewton(circuit::MnaWorkspace& ws, RVec& x, Real sourceScale,
              Real gshunt, const DCOptions& opts, std::size_t& itersOut,
              diag::SolverStatus* statusOut = nullptr);

}  // namespace rfic::analysis
