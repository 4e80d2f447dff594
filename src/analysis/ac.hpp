// Small-signal AC analysis: linearize at an operating point and solve
// (G + jωC)·x = u over a frequency sweep.
#pragma once

#include <vector>

#include "circuit/mna.hpp"
#include "circuit/mna_workspace.hpp"
#include "circuit/sources.hpp"
#include "diag/convergence.hpp"
#include "diag/resilience.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::analysis {

using circuit::MnaSystem;
using numeric::CVec;
using numeric::RVec;

struct ACResult {
  std::vector<Real> freq;  ///< the frequencies solved (a prefix on a trip)
  std::vector<CVec> x;     ///< one solution vector per frequency
  /// Converged, or BudgetExceeded when the run budget tripped mid-sweep.
  diag::SolverStatus status = diag::SolverStatus::Converged;
};

/// Evaluate G and C at operating point xop (one matrix evaluation); the
/// shared linearization of the AC, noise and S-parameter analyses. Throws
/// InvalidArgument when xop does not match the workspace dimension.
void linearizeAt(circuit::MnaWorkspace& ws, const RVec& xop);

/// G + j·2πf·C on the pattern of a workspace evaluated by linearizeAt().
/// The pattern always holds the diagonal.
sparse::CCSR acMatrix(const circuit::MnaWorkspace& ws, Real freqHz);

/// Factor G + j·2πf·C into `lu` for one point of a sweep over a workspace
/// evaluated by linearizeAt(). The first call analyses (pivots, fill);
/// later calls replay those pivots on the new values, with the Repivoted
/// fallback as the numeric backstop. `vals` is the caller's reused value
/// buffer.
void factorAt(sparse::CSymbolicLU& lu, const circuit::MnaWorkspace& ws,
              Real freqHz, std::vector<Complex>& vals);

/// True for ground (any negative index) or an unknown index below sys.dim().
inline bool nodeInRange(const MnaSystem& sys, int node) {
  return node < 0 || static_cast<std::size_t>(node) < sys.dim();
}

/// Sweep a list of frequencies: one linearization, one analysis at the
/// first point and a replay per later point (factorAt). The optional
/// budget is polled once per frequency; on a trip the result holds the
/// points solved so far and status BudgetExceeded.
ACResult acSweep(const MnaSystem& sys, const RVec& xop,
                 const std::vector<Real>& freqs, const CVec& stimulus,
                 diag::RunBudget* budget = nullptr);

/// Unit AC stimulus applied through an existing voltage source (its branch
/// equation right-hand side becomes `amplitude`).
CVec acStimulusVSource(const MnaSystem& sys, const circuit::VSource& src,
                       Complex amplitude = {1.0, 0.0});

/// Unit AC current injected between two nodes (np → nm through the source,
/// SPICE convention).
CVec acStimulusCurrent(const MnaSystem& sys, int nodePlus, int nodeMinus,
                       Complex amplitude = {1.0, 0.0});

/// Logarithmically spaced frequency grid [fStart, fStop] with n points.
std::vector<Real> logspace(Real fStart, Real fStop, std::size_t n);

}  // namespace rfic::analysis
