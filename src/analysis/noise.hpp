// Stationary small-signal noise analysis via the adjoint method.
//
// For each frequency one adjoint solve (G + jωC)ᵀ w = e_out, with the
// factors of the AC matrix itself, yields the transfer from *every* device
// noise generator to the output at once: w(k) = [(G + jωC)⁻¹](out, k). The
// output PSD is then  Σ_sources |w(n+) − w(n−)|² · S_source(f).
// This is the per-source sensitivity capability the paper highlights in
// Sections 3 and 5, in its simplest (non-cyclostationary) form; the
// oscillator-specific machinery lives in src/phasenoise.
#pragma once

#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "diag/convergence.hpp"
#include "diag/resilience.hpp"

namespace rfic::analysis {

using circuit::MnaSystem;
using numeric::RVec;

struct NoiseContribution {
  std::string label;
  Real psd = 0;  ///< contribution to output PSD [V²/Hz]
};

struct NoiseResult {
  std::vector<Real> freq;  ///< the frequencies solved (a prefix on a trip)
  std::vector<Real> totalPsd;  ///< output voltage PSD per frequency [V²/Hz]
  std::vector<std::vector<NoiseContribution>> contributions;
  /// Converged, or BudgetExceeded when the run budget tripped mid-sweep.
  diag::SolverStatus status = diag::SolverStatus::Converged;
};

/// Output-referred noise PSD at `outNode`, linearized at xop. The optional
/// budget is polled once per frequency, as in acSweep().
NoiseResult noiseAnalysis(const MnaSystem& sys, const RVec& xop, int outNode,
                          const std::vector<Real>& freqs,
                          diag::RunBudget* budget = nullptr);

}  // namespace rfic::analysis
