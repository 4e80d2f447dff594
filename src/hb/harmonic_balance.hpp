// Harmonic balance (Section 2.1).
//
// All circuit waveforms are represented in the frequency domain on a
// truncated harmonic set of one or two fundamental tones. The nonlinear
// system  F(X) = Ω·Q(X) + F(X) − B = 0  is solved by Newton; the key to
// RF-IC scale (the paper's central Section 2.1 point) is that the HB
// Jacobian is never formed: its action on a vector is computed with FFTs
// and per-sample device Jacobians, and preconditioned GMRES solves each
// update. A dense "direct" mode exists for small circuits and for the
// ablation bench that reproduces the paper's iterative-vs-direct argument.
//
// Two-tone analysis retains the box |k1| ≤ H1, |k2| ≤ H2 of mix products
// k1·f1 + k2·f2 and evaluates nonlinearities on an (M1 × M2) bivariate
// time grid — the same multi-time representation that underlies the MPDE
// view of Section 2.2. Sources must be tagged with the axis their tone
// lives on (TimeAxis::slow → tone 1, TimeAxis::fast → tone 2).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <string>

#include "circuit/mna.hpp"
#include "diag/convergence.hpp"
#include "diag/resilience.hpp"
#include "diag/thread_annotations.hpp"
#include "numeric/dense.hpp"
#include "perf/perf.hpp"
#include "sparse/krylov.hpp"

namespace rfic::fft {
class Plan;
}  // namespace rfic::fft

namespace rfic::hb {

using circuit::MnaSystem;
using numeric::CMat;

using numeric::RVec;

/// One fundamental tone retained in the analysis.
struct Tone {
  Real freq = 0;              ///< fundamental frequency [Hz]
  std::size_t harmonics = 0;  ///< number of harmonics retained
};

struct HBOptions {
  std::size_t oversample = 4;   ///< time samples per dim ≥ oversample·H, pow2
  std::size_t maxNewton = 80;
  Real tolerance = 1e-9;        ///< residual norm, relative to drive level
  bool useDirectSolver = false; ///< dense Jacobian via probing (ablation)
  sparse::IterativeOptions gmres{1e-10, 600, 80};
  std::size_t continuationSteps = 1;  ///< ramp of non-DC source amplitude
  /// Retry-ladder depth beyond the base attempt. A failed Newton solve is
  /// re-attempted first with a (deeper) source-amplitude ramp, then with
  /// the linear solver escalated — exact dense Jacobian for systems up to
  /// directFallbackMaxUnknowns real unknowns, tightened GMRES above that.
  /// 0 disables the ladder (single attempt, pre-ladder behaviour).
  std::size_t maxRetries = 2;
  std::size_t directFallbackMaxUnknowns = 2048;
  /// Optional cooperative budget: Newton and GMRES iterations are charged;
  /// a trip returns SolverStatus::BudgetExceeded and suppresses retries.
  diag::RunBudget* budget = nullptr;
};

/// Converged HB spectrum plus solver statistics.
struct HBSolution {
  bool converged = false;
  diag::SolverStatus status = diag::SolverStatus::NotRun;
  std::size_t newtonIterations = 0;
  std::size_t gmresIterations = 0;  ///< cumulative inner iterations
  std::size_t realUnknowns = 0;     ///< size of the Newton system
  /// Which ladder rung produced this solution: "base", "source-ramp",
  /// "direct", or "gmres-tight".
  std::string strategy;
  std::size_t retries = 0;          ///< ladder rungs consumed after the base
  perf::Snapshot perf;              ///< pipeline counters for the solve

  std::vector<std::array<int, 2>> indices;  ///< retained (k1, k2), canonical
  std::vector<Real> freqs;                  ///< k1·f1 + k2·f2 per index [Hz]
  CMat coeffs;  ///< (#unknowns × #indices) complex Fourier coefficients

  /// Coefficient of unknown `u` at harmonic (k1, k2); conjugate symmetry is
  /// applied automatically for indices stored mirrored. Returns 0 for
  /// indices outside the truncation box.
  Complex at(std::size_t u, int k1, int k2 = 0) const;
};

/// Harmonic-balance engine bound to a circuit.
class HarmonicBalance {
 public:
  HarmonicBalance(const MnaSystem& sys, std::vector<Tone> tones,
                  HBOptions opts = {});

  /// Solve starting from the DC operating point (pass dcOperatingPoint().x).
  /// Runs the resilience ladder: base options, then a deeper source ramp,
  /// then linear-solver escalation (see HBOptions::maxRetries). The rung
  /// that produced the returned solution is recorded in
  /// HBSolution::strategy; counters accumulate across rungs.
  HBSolution solve(const RVec& dcOperatingPoint) const;

  /// Number of real unknowns of the Newton system (for the cost benches).
  std::size_t numRealUnknowns() const { return n_ * nc_; }
  std::size_t numTimeSamples() const { return msamp_; }
  const std::vector<std::array<int, 2>>& retainedIndices() const {
    return indices_;
  }

  /// Workspace buffer-growth events since construction. Every hot-loop
  /// buffer (spectral grids, Jacobian/preconditioner scratch, GMRES state)
  /// grows to its high-water mark during the first Newton iteration and is
  /// reused verbatim afterwards, so this counter going flat across repeated
  /// operator applications is the zero-allocation steady-state contract —
  /// and what the tests assert, without allocator hooks.
  std::uint64_t workspaceGrowth() const { return work_.grows; }

 private:
  friend class HBOperator;
  friend class HBBlockPreconditioner;

  /// One Newton solve with explicit options — the ladder rungs of solve().
  HBSolution solveAttempt(const RVec& dcOperatingPoint,
                          const HBOptions& opts) const;

  // Grid bookkeeping.
  std::size_t dims() const { return tones_.size(); }
  Real omega(std::size_t idx) const;  ///< angular frequency of indices_[idx]

  // Pack/unpack between the real Newton vector and per-node complex
  // spectra, and between spectra and bivariate time samples.
  void spectrumToTime(const CMat& coeffs, numeric::RMat& samples) const;
  void timeToSpectrum(const numeric::RMat& samples, CMat& coeffs) const;
  void packReal(const CMat& coeffs, RVec& v) const;
  void unpackReal(const RVec& v, CMat& coeffs) const;
  /// Bivariate sample instants of flat sample index s = a·m2 + b.
  std::pair<Real, Real> sampleTimes(std::size_t s) const;

  const MnaSystem& sys_;
  std::vector<Tone> tones_;
  HBOptions opts_;
  std::size_t n_ = 0;      // circuit unknowns
  std::size_t nc_ = 0;     // real coefficients per unknown
  std::size_t m1_ = 1, m2_ = 1, msamp_ = 1;
  std::vector<std::array<int, 2>> indices_;  // canonical retained set

  // Spectral plans, fetched once from the process-wide fft::PlanCache at
  // construction: colPlan_ transforms the m1 (tone-1) axis, rowPlan_ the
  // m2 (tone-2) axis of the bivariate grid.
  std::shared_ptr<const fft::Plan> rowPlan_, colPlan_;

  /// Every buffer the matrix-implicit inner path touches, owned by the
  /// engine so it survives across Newton iterations and GMRES calls.
  /// Buffers grow to their high-water mark once (counted in `grows`) and
  /// are then reused without touching the allocator. Mutable because the
  /// transforms and operator applications are logically const; a
  /// consequence is that one engine instance must not run concurrent
  /// solve() calls — a contract enforced at runtime by workCtx_ (the
  /// workspace handoff between solveAttempt, HBOperator::apply, and
  /// HBBlockPreconditioner::apply all happens inside one exclusive scope).
  struct HBWorkspace {
    numeric::CVec grid;                  ///< batched n×(m1·m2) spectral grids
    numeric::CMat ySpec, gSpec, cSpec;   ///< HBOperator::apply spectra
    numeric::CMat rSpec;                 ///< HBOperator::apply result
    numeric::RMat ySamp, gy, cy;         ///< HBOperator::apply time samples
    numeric::CMat pcSpec, pzSpec;        ///< preconditioner rhs/solution
    numeric::RMat samp, fSamp, qSamp, bSamp;  ///< residual time samples
    numeric::CMat fSpec, qSpec, bSpec;   ///< residual spectra
    numeric::CMat resSpec, trialSpec;    ///< residual combine / damped trial
    sparse::GmresWorkspace<Real> gmres;  ///< Krylov basis + small solves
    std::uint64_t grows = 0;             ///< growth events (steady state: 0)

    // Each grow charges the byte delta against the owning job's memory
    // budget (diag::memCharge; no-op when no MemAccount is installed), so
    // an HB spectrum too big for the job's maxBytes trips exit 6 here
    // instead of OOMing the daemon.
    void need(numeric::CVec& v, std::size_t n) {
      if (v.size() < n) {
        diag::memCharge((n - v.size()) * sizeof(Complex));
        v.resize(n);
        ++grows;
      }
    }
    void need(numeric::RVec& v, std::size_t n) {
      if (v.size() < n) {
        diag::memCharge((n - v.size()) * sizeof(Real));
        v.resize(n);
        ++grows;
      }
    }
    void need(numeric::CMat& m, std::size_t r, std::size_t c) {
      if (m.rows() != r || m.cols() != c) {
        const std::size_t have = m.rows() * m.cols();
        if (r * c > have) diag::memCharge((r * c - have) * sizeof(Complex));
        m.resize(r, c);
        ++grows;
      }
    }
    void need(numeric::RMat& m, std::size_t r, std::size_t c) {
      if (m.rows() != r || m.cols() != c) {
        const std::size_t have = m.rows() * m.cols();
        if (r * c > have) diag::memCharge((r * c - have) * sizeof(Real));
        m.resize(r, c);
        ++grows;
      }
    }
  };
  mutable HBWorkspace work_;
  /// Runtime exclusivity for work_: solveAttempt() enters this context for
  /// its whole duration, so overlapping solves on one engine instance fail
  /// loudly instead of corrupting the shared workspace.
  mutable diag::ExclusiveContext workCtx_;
};

}  // namespace rfic::hb
