// Fast-axis periodic boundary-value solver shared by the multi-time
// methods of Section 2.2.
//
// MMFT, TD-ENV, and hierarchical shooting all reduce to the same inner
// problem: a (possibly stacked/modified) DAE along the fast time axis t2,
//     d/dt2 Q(y) + F(y, t2) = B(t2),
// solved with periodic boundary conditions y(0) = y(T2) by shooting with
// dense sensitivity propagation. The abstraction below lets each method
// supply its own coupling terms (spectral differentiation for MMFT, BE
// slow-derivative terms for envelope/HS) while sharing the solver.
#pragma once

#include <vector>

#include "diag/convergence.hpp"
#include "diag/resilience.hpp"
#include "numeric/dense.hpp"

namespace rfic::mpde {

using numeric::RMat;
using numeric::RVec;

/// One evaluation of a fast-axis system at fast sample index j.
struct FastEval {
  RVec f, q, b;
  RMat G, C;  ///< dense Jacobians ∂f/∂y, ∂q/∂y (filled when requested)
};

/// A DAE along the fast axis, time-parameterized by sample index on a
/// uniform grid of `samples()` points covering one fast period.
class FastSystem {
 public:
  virtual ~FastSystem() = default;
  virtual std::size_t dim() const = 0;
  virtual std::size_t samples() const = 0;  ///< fast grid size m2
  virtual Real period() const = 0;          ///< T2
  /// Evaluate at state y and fast sample index j (t2 = j·T2/m2; index m2
  /// refers to the wrap-around point t2 = T2, identical sources to j = 0).
  virtual void eval(const RVec& y, std::size_t j, FastEval& e,
                    bool wantMatrices) const = 0;
};

struct FastPeriodicOptions {
  std::size_t maxIterations = 40;
  Real tolerance = 1e-9;
  std::size_t maxNewtonPerStep = 40;
  Real stepTolerance = 1e-10;
  /// Retry ladder depth: a failed shooting solve is re-attempted from the
  /// original guess with stepTolerance tightened 100× per rung.
  std::size_t maxRetries = 1;
  /// Optional cooperative budget (outer iterations charged; a trip returns
  /// SolverStatus::BudgetExceeded and suppresses retries).
  diag::RunBudget* budget = nullptr;
};

struct FastPeriodicResult {
  bool converged = false;
  /// Converged, Breakdown (inner BE step or singular shooting Jacobian),
  /// Diverged (non-finite defect), MaxIterations, or BudgetExceeded.
  diag::SolverStatus status = diag::SolverStatus::NotRun;
  std::vector<RVec> waveform;  ///< m2+1 states, waveform[0] == waveform[m2]
  std::size_t newtonIterations = 0;  ///< outer (shooting) iterations
  std::size_t retries = 0;           ///< tightened-tolerance re-attempts
  RMat monodromy;
};

/// Solve the periodic BVP by backward-Euler shooting (BE chosen for the
/// same DAE-sensitivity reason as in analysis/shooting.hpp).
FastPeriodicResult solveFastPeriodic(const FastSystem& sys, const RVec& guess,
                                     const FastPeriodicOptions& opts = {});

/// Build the (real, antisymmetric-spectrum) Fourier spectral
/// differentiation matrix D on an m-point uniform periodic grid with period
/// T: (D u)_i ≈ du/dt at sample i, exact for trigonometric polynomials up
/// to harmonic (m−1)/2. m must be odd for an exactly real D.
RMat spectralDifferentiation(std::size_t m, Real period);

}  // namespace rfic::mpde
