// Time-domain transient analysis: backward Euler, trapezoidal, and Gear-2
// integration with Newton inner loops and optional local-truncation-error
// step control.
//
// The paper's Section 2 argument starts here: for an RF circuit driven at
// 1.62 GHz with an 80 kHz baseband, a conventional transient must resolve
// hundreds of thousands of carrier cycles to see one baseband period. The
// transient engine is therefore both a substrate (initial conditions,
// shooting, Monte-Carlo noise ensembles) and the baseline the multi-scale
// methods are measured against (Fig. 5).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/mna_workspace.hpp"
#include "diag/convergence.hpp"
#include "diag/resilience.hpp"
#include "perf/perf.hpp"

namespace rfic::analysis {

using circuit::MnaSystem;
using numeric::RVec;

enum class IntegrationMethod { backwardEuler, trapezoidal, gear2 };

struct TransientOptions {
  Real tstart = 0.0;
  Real tstop = 0.0;
  Real dt = 0.0;                 ///< base (maximum) step
  IntegrationMethod method = IntegrationMethod::trapezoidal;
  bool adaptive = false;         ///< LTE-based step control
  Real reltol = 1e-4;
  Real abstol = 1e-9;
  Real dtMin = 0.0;              ///< 0 → dt/1e6
  std::size_t maxNewton = 50;
  Real newtonTol = 1e-9;
  bool storeWaveforms = true;    ///< keep every accepted point
  Real noiseScale = 1.0;         ///< PSD multiplier in runNoisyTransient
  /// Optional caller-owned workspace (must be built on the same MnaSystem;
  /// nullptr = a workspace local to the run). The engine layer passes a
  /// per-topology cached workspace here so repeat jobs skip pattern
  /// discovery and reuse the recorded SymbolicLU pivot order.
  circuit::MnaWorkspace* workspace = nullptr;
  /// Optional cooperative budget, polled at every step boundary and charged
  /// with the Newton iterations of each attempt. On trip the run saves a
  /// checkpoint (if checkpointPath is set) and returns the partial
  /// trajectory with SolverStatus::BudgetExceeded.
  diag::RunBudget* budget = nullptr;
  /// Checkpoint file ("" = checkpointing off). Written atomically on budget
  /// expiry and, when checkpointInterval > 0, every that-many wall seconds.
  std::string checkpointPath;
  Real checkpointInterval = 0.0;  ///< wall seconds between periodic saves
  /// Load checkpointPath before stepping and continue from its state
  /// (bit-identically: the checkpoint carries the full stepping recurrence
  /// input). Throws InvalidArgument if the file is missing or malformed.
  bool resume = false;
};

struct TransientResult {
  std::vector<Real> time;
  std::vector<RVec> x;
  bool ok = false;
  /// Why the sweep ended: Converged (reached tstop), StepLimit (dt cut
  /// below dtMin with the step still failing), BudgetExceeded, or, on the
  /// noisy path, how its Newton loop failed (MaxIterations, Diverged on a
  /// non-finite residual, Breakdown on a singular Jacobian).
  diag::SolverStatus status = diag::SolverStatus::NotRun;
  std::size_t steps = 0;
  std::size_t newtonIterations = 0;
  std::size_t retries = 0;  ///< failed/rejected step attempts (dt cuts, LTE)
  perf::Snapshot perf;  ///< pipeline counters of the run's workspace
};

/// Integrate the circuit DAE from x0. If opts.storeWaveforms is false only
/// the final state is kept (trajectory has one entry).
TransientResult runTransient(const MnaSystem& sys, const RVec& x0,
                             const TransientOptions& opts);

/// Per-step buffers of integrateStep, owned by the caller so that a sweep's
/// steps allocate nothing: every vector is sized to the circuit's
/// dimension by the constructor.
struct StepScratch {
  explicit StepScratch(std::size_t n)
      : q0(n), f0(n), b0(n), qPrev(n), xIter(n), r(n), dx(n) {}
  RVec q0, f0, b0;  ///< history q, f, b at (x0, t0)
  RVec qPrev;       ///< Gear-2 history q one step back
  RVec xIter;       ///< previous Newton iterate (junction limiting)
  RVec r, dx;       ///< residual and Newton update
};

/// One integration step from (t0, x0) to t0+h into x1, both of dim()
/// entries, with caller-owned buffers: the allocation-free form the
/// transient sweep runs. Gear-2 uses `xPrevStep` as its history (nullptr
/// falls back to BE). Newton iterations are counted in *newtonIters and
/// charged to `budget`.
RFIC_REALTIME bool integrateStep(circuit::MnaWorkspace& ws,
                                 IntegrationMethod method, Real t0, Real h,
                                 const RVec& x0, const RVec* xPrevStep,
                                 RVec& x1, StepScratch& scratch,
                                 std::size_t maxNewton, Real tol,
                                 std::size_t* newtonIters,
                                 diag::RunBudget* budget);

/// One integration step from (t0, x0) to t0+h. `xPrevStep` supplies the
/// history state for Gear-2 (pass nullptr to fall back to BE on the first
/// step). On return x1 holds the new state; when `sensitivity` is non-null
/// it is updated in place: S ← (∂x1/∂x0)·S, the propagation used to build
/// the monodromy matrix in shooting and Floquet analyses. The workspace's
/// sparsity pattern and LU pivot order persist across calls, so Newton
/// iterations after the first pay only a numeric refactorization. This form
/// sizes x1 and its own step buffers, then runs the allocation-free step
/// above. Newton iterations are counted in *newtonIters and charged to
/// `budget`, which the caller polls at its step boundary.
bool integrateStep(circuit::MnaWorkspace& ws, IntegrationMethod method,
                   Real t0, Real h, const RVec& x0, const RVec* xPrevStep,
                   RVec& x1, numeric::RMat* sensitivity,
                   std::size_t maxNewton = 50, Real tol = 1e-9,
                   std::size_t* newtonIters = nullptr,
                   diag::RunBudget* budget = nullptr);

/// Additive white-noise transient (Euler–Maruyama on top of BE): at each
/// step every device noise generator injects an independent Gaussian
/// current of variance  S(op)/(2·h)  (one-sided PSD → per-step variance).
/// Used by the Monte-Carlo jitter validation of Section 3.
TransientResult runNoisyTransient(const MnaSystem& sys, const RVec& x0,
                                  const TransientOptions& opts,
                                  std::uint64_t seed);

}  // namespace rfic::analysis
