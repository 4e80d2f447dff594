#include "hb/harmonic_balance.hpp"

#include <cmath>

#include "circuit/mna_workspace.hpp"
#include "diag/contracts.hpp"
#include "diag/newton.hpp"
#include "fft/plan.hpp"
#include "hb/hb_jacobian.hpp"
#include "numeric/lu.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::hb {

using numeric::RMat;

// ------------------------------------------------------------- HBSolution

Complex HBSolution::at(std::size_t u, int k1, int k2) const {
  if (k2 < 0 || (k2 == 0 && k1 < 0)) return std::conj(at(u, -k1, -k2));
  for (std::size_t j = 0; j < indices.size(); ++j) {
    if (indices[j][0] == k1 && indices[j][1] == k2) return coeffs(u, j);
  }
  return {0.0, 0.0};
}

// -------------------------------------------------------- HarmonicBalance

HarmonicBalance::HarmonicBalance(const MnaSystem& sys, std::vector<Tone> tones,
                                 HBOptions opts)
    : sys_(sys), tones_(std::move(tones)), opts_(std::move(opts)) {
  RFIC_REQUIRE(tones_.size() == 1 || tones_.size() == 2,
               "HarmonicBalance: one or two tones supported");
  for (const auto& t : tones_)
    RFIC_REQUIRE(t.freq > 0 && t.harmonics >= 1,
                 "HarmonicBalance: tones need freq > 0 and harmonics >= 1");
  n_ = sys_.dim();

  const std::size_t h1 = tones_[0].harmonics;
  m1_ = fft::nextPowerOfTwo(std::max<std::size_t>(opts_.oversample * h1, 2 * h1 + 2));
  if (dims() == 2) {
    const std::size_t h2 = tones_[1].harmonics;
    m2_ = fft::nextPowerOfTwo(std::max<std::size_t>(opts_.oversample * h2, 2 * h2 + 2));
  }
  msamp_ = m1_ * m2_;

  // Canonical retained set: DC first, then k2 = 0 row with k1 > 0, then all
  // k2 > 0 rows with full k1 range.
  indices_.push_back({0, 0});
  const int ih1 = static_cast<int>(h1);
  for (int k1 = 1; k1 <= ih1; ++k1) indices_.push_back({k1, 0});
  if (dims() == 2) {
    const int ih2 = static_cast<int>(tones_[1].harmonics);
    for (int k2 = 1; k2 <= ih2; ++k2)
      for (int k1 = -ih1; k1 <= ih1; ++k1) indices_.push_back({k1, k2});
  }
  nc_ = 1 + 2 * (indices_.size() - 1);

  // Fetch the spectral plans once: every transform this engine ever runs
  // replays these tables. rowPlan_ covers the m2 (tone-2) axis, colPlan_
  // the m1 (tone-1) axis of the bivariate grid.
  rowPlan_ = fft::PlanCache::global().get(m2_);
  colPlan_ = fft::PlanCache::global().get(m1_);
}

Real HarmonicBalance::omega(std::size_t idx) const {
  const auto& k = indices_[idx];
  Real f = static_cast<Real>(k[0]) * tones_[0].freq;
  if (dims() == 2) f += static_cast<Real>(k[1]) * tones_[1].freq;
  return kTwoPi * f;
}

std::pair<Real, Real> HarmonicBalance::sampleTimes(std::size_t s) const {
  const std::size_t a = s / m2_;
  const std::size_t b = s % m2_;
  const Real t1 = static_cast<Real>(a) /
                  (static_cast<Real>(m1_) * tones_[0].freq);
  const Real t2 = dims() == 2 ? static_cast<Real>(b) /
                                    (static_cast<Real>(m2_) * tones_[1].freq)
                              : t1;
  return {t1, t2};
}

void HarmonicBalance::spectrumToTime(const CMat& coeffs, RMat& samples) const {
  RFIC_CHECK_DIMS(coeffs.rows(), n_, "HB::spectrumToTime coeffs rows");
  RFIC_CHECK_DIMS(coeffs.cols(), indices_.size(),
                  "HB::spectrumToTime coeffs cols");
  RFIC_CHECK_FINITE(coeffs, "HB::spectrumToTime coeffs");
  work_.need(samples, n_, msamp_);
  work_.need(work_.grid, n_ * msamp_);
  const Real scale = static_cast<Real>(msamp_);
  // Each unknown owns a disjoint grid slice, so the per-unknown
  // scatter/transform/gather pipeline fans out across the pool; the grid2D
  // call below detects the nesting and runs its own sweep inline.
  perf::ThreadPool::global().parallelFor(n_, [&](std::size_t u) {
    Complex* grid = work_.grid.data() + u * msamp_;
    std::fill(grid, grid + msamp_, Complex{});
    for (std::size_t j = 0; j < indices_.size(); ++j) {
      const int k1 = indices_[j][0], k2 = indices_[j][1];
      const std::size_t a = static_cast<std::size_t>((k1 % static_cast<int>(m1_) + static_cast<int>(m1_))) % m1_;
      const std::size_t b = static_cast<std::size_t>((k2 % static_cast<int>(m2_) + static_cast<int>(m2_))) % m2_;
      grid[a * m2_ + b] += coeffs(u, j) * scale;
      if (j != 0) {
        const std::size_t am = (m1_ - a) % m1_;
        const std::size_t bm = (m2_ - b) % m2_;
        grid[am * m2_ + bm] += std::conj(coeffs(u, j)) * scale;
      }
    }
    fft::transformGrid2D(*rowPlan_, *colPlan_, grid, m1_, m2_, true);
    for (std::size_t s = 0; s < msamp_; ++s) samples(u, s) = grid[s].real();
  });
}

void HarmonicBalance::timeToSpectrum(const RMat& samples, CMat& coeffs) const {
  RFIC_CHECK_DIMS(samples.rows(), n_, "HB::timeToSpectrum samples rows");
  RFIC_CHECK_DIMS(samples.cols(), msamp_, "HB::timeToSpectrum samples cols");
  RFIC_CHECK_FINITE(samples, "HB::timeToSpectrum samples");
  work_.need(coeffs, n_, indices_.size());
  work_.need(work_.grid, n_ * msamp_);
  const Real inv = 1.0 / static_cast<Real>(msamp_);
  perf::ThreadPool::global().parallelFor(n_, [&](std::size_t u) {
    Complex* grid = work_.grid.data() + u * msamp_;
    for (std::size_t s = 0; s < msamp_; ++s) grid[s] = samples(u, s);
    fft::transformGrid2D(*rowPlan_, *colPlan_, grid, m1_, m2_, false);
    for (std::size_t j = 0; j < indices_.size(); ++j) {
      const int k1 = indices_[j][0], k2 = indices_[j][1];
      const std::size_t a = static_cast<std::size_t>((k1 % static_cast<int>(m1_) + static_cast<int>(m1_))) % m1_;
      const std::size_t b = static_cast<std::size_t>((k2 % static_cast<int>(m2_) + static_cast<int>(m2_))) % m2_;
      coeffs(u, j) = grid[a * m2_ + b] * inv;
    }
  });
}

void HarmonicBalance::packReal(const CMat& coeffs, RVec& v) const {
  v.resize(n_ * nc_);  // rt: allow(rt-alloc) grow-once — every caller
                       // passes a persistent workspace vector
  for (std::size_t u = 0; u < n_; ++u) {
    Real* base = v.data() + u * nc_;
    base[0] = coeffs(u, 0).real();
    for (std::size_t j = 1; j < indices_.size(); ++j) {
      base[1 + 2 * (j - 1)] = coeffs(u, j).real();
      base[2 + 2 * (j - 1)] = coeffs(u, j).imag();
    }
  }
}

void HarmonicBalance::unpackReal(const RVec& v, CMat& coeffs) const {
  RFIC_REQUIRE(v.size() == n_ * nc_, "HB::unpackReal size mismatch");
  work_.need(coeffs, n_, indices_.size());
  for (std::size_t u = 0; u < n_; ++u) {
    const Real* base = v.data() + u * nc_;
    coeffs(u, 0) = Complex(base[0], 0.0);
    for (std::size_t j = 1; j < indices_.size(); ++j)
      coeffs(u, j) = Complex(base[1 + 2 * (j - 1)], base[2 + 2 * (j - 1)]);
  }
}

HBSolution HarmonicBalance::solve(const RVec& dcOp) const {
  RFIC_REQUIRE(dcOp.size() == n_, "HB::solve: DC operating point size mismatch");

  // Resilience ladder. Rung 1 runs the caller's options as-is. Rung 2
  // re-attempts with a (deeper) source-amplitude ramp — the classic cure
  // for Newton divergence at full drive. Rung 3 escalates the linear
  // solver: exact dense Jacobian for small systems (the strongest
  // "preconditioner" there is), tightened longer-restart GMRES for large
  // ones. A tripped budget stops the ladder immediately; iteration totals
  // accumulate across rungs, and one counter scope covers every rung.
  const auto fold = [](HBSolution& total, HBSolution&& next,
                       const char* strategy) {
    const std::size_t newton = total.newtonIterations + next.newtonIterations;
    const std::size_t gm = total.gmresIterations + next.gmresIterations;
    const std::size_t retries = total.retries + 1;
    total = std::move(next);
    total.newtonIterations = newton;
    total.gmresIterations = gm;
    total.retries = retries;
    total.strategy = strategy;
  };
  const auto escalate = [] {
    perf::global().addRetry();
    perf::global().addFallback();
  };

  return perf::measured([&] {
    HBSolution sol = solveAttempt(dcOp, opts_);
    sol.strategy = "base";
    if (sol.converged || sol.status == diag::SolverStatus::BudgetExceeded ||
        opts_.maxRetries < 1)
      return sol;

    HBOptions rampOpts = opts_;
    rampOpts.continuationSteps = std::max<std::size_t>(
        4, 4 * std::max<std::size_t>(1, opts_.continuationSteps));
    escalate();
    fold(sol, solveAttempt(dcOp, rampOpts), "source-ramp");
    if (sol.converged || sol.status == diag::SolverStatus::BudgetExceeded ||
        opts_.maxRetries < 2)
      return sol;

    HBOptions escOpts = rampOpts;
    const char* strategy;
    if (!escOpts.useDirectSolver &&
        numRealUnknowns() <= opts_.directFallbackMaxUnknowns) {
      escOpts.useDirectSolver = true;
      strategy = "direct";
    } else {
      escOpts.gmres.tolerance *= 1e-2;
      escOpts.gmres.maxIterations *= 4;
      escOpts.gmres.restart =
          std::min(numRealUnknowns(), 2 * escOpts.gmres.restart);
      strategy = "gmres-tight";
    }
    escalate();
    fold(sol, solveAttempt(dcOp, escOpts), strategy);
    return sol;
  });
}

HBSolution HarmonicBalance::solveAttempt(const RVec& dcOp,
                                         const HBOptions& opts) const {
  // The engine workspace (work_) is handed between this Newton loop, the
  // GMRES operator, and the preconditioner without locks; the exclusive
  // scope turns a second concurrent solve on this instance into an
  // immediate structured error instead of silent corruption.
  const diag::ExclusiveContext::Scope exclusive(workCtx_,
                                                "HarmonicBalance::solve");
  HBSolution sol;
  sol.indices = indices_;
  sol.freqs.resize(indices_.size());
  for (std::size_t j = 0; j < indices_.size(); ++j)
    sol.freqs[j] = omega(j) / kTwoPi;
  sol.realUnknowns = n_ * nc_;

  // Initial spectrum: DC slots carry the operating point.
  CMat coeffs(n_, indices_.size());
  for (std::size_t u = 0; u < n_; ++u) coeffs(u, 0) = dcOp[u];

  // One workspace for the whole solve: every sample stamps into the same
  // cached pattern, so the per-sample Jacobians are plain value arrays.
  circuit::MnaWorkspace ws(sys_);
  // Samples are independent: fan the per-sample sweep over the process
  // pool (fixed chunking keeps results thread-count invariant).
  ws.setSweepPool(&perf::ThreadPool::global());

  // Hot-loop buffers live in the engine workspace: they grow to their
  // high-water mark on the first solve and are then reused — steady-state
  // Newton iterations (and repeat solves) perform no heap allocation.
  RMat& samples = work_.samp;
  RMat& fS = work_.fSamp;
  RMat& qS = work_.qSamp;
  RMat& bS = work_.bSamp;
  CMat& fSpec = work_.fSpec;
  CMat& qSpec = work_.qSpec;
  CMat& bSpec = work_.bSpec;
  CMat& rc = work_.resSpec;
  CMat& trial = work_.trialSpec;
  RVec xs(n_);
  RVec r, bPack, xPack, xNew, dx, dxp;
  std::vector<Real> gAvgVals, cAvgVals;
  std::vector<Real> tS1, tS2;  // per-sample (slow, fast) times, filled once

  // Evaluate the packed HB residual at `coeffs`; when gOut/cOut are given
  // also collect the per-sample Jacobian values (over ws.pattern()) and
  // their time averages.
  auto residual = [&](const CMat& x, Real lambda, RVec& rOut,
                      std::vector<std::vector<Real>>* gOut,
                      std::vector<std::vector<Real>>* cOut,
                      sparse::RTriplets* gAvg, sparse::RTriplets* cAvg) {
    spectrumToTime(x, samples);
    work_.need(fS, n_, msamp_);
    work_.need(qS, n_, msamp_);
    work_.need(bS, n_, msamp_);
    const bool wantMat = gOut != nullptr;
    const Real avgW = 1.0 / static_cast<Real>(msamp_);
    if (ws.batchedEval()) {
      // Batched path: one multi-sample sweep through the SoA engine. The
      // sweep handles pattern growth internally, so no restart loop is
      // needed; the time averages accumulate in the same (s, then p) order
      // as the scalar walk below for bitwise-identical results.
      if (tS1.size() != msamp_) {
        tS1.resize(msamp_);
        tS2.resize(msamp_);
        for (std::size_t s = 0; s < msamp_; ++s) {
          const auto [t1, t2] = sampleTimes(s);
          tS1[s] = t1;
          tS2[s] = t2;
        }
      }
      ws.evalSamples(samples, tS1.data(), tS2.data(), wantMat, fS, qS, bS,
                     gOut, cOut);
      if (wantMat) {
        gAvgVals.assign(ws.pattern().nnz(), 0.0);
        cAvgVals.assign(ws.pattern().nnz(), 0.0);
        for (std::size_t s = 0; s < msamp_; ++s) {
          const std::vector<Real>& gv = (*gOut)[s];
          const std::vector<Real>& cv = (*cOut)[s];
          for (std::size_t p = 0; p < gAvgVals.size(); ++p) {
            gAvgVals[p] += gv[p] * avgW;
            cAvgVals[p] += cv[p] * avgW;
          }
        }
      }
    } else {
      // Scalar reference path (`rficsim --no-batch-eval`): per-sample
      // evaluations through the virtual stamp walk.
      for (bool done = false; !done;) {
        // The pattern can grow mid-sweep (conditional device stamps); value
        // arrays copied before a growth are stale, so restart the sweep.
        std::size_t ver = 0;
        done = true;
        for (std::size_t s = 0; s < msamp_; ++s) {
          for (std::size_t u = 0; u < n_; ++u) xs[u] = samples(u, s);
          const auto [t1, t2] = sampleTimes(s);
          ws.evalBivariate(xs, t1, t2, wantMat);
          for (std::size_t u = 0; u < n_; ++u) {
            fS(u, s) = ws.f()[u];
            qS(u, s) = ws.q()[u];
            bS(u, s) = ws.b()[u];
          }
          if (!wantMat) continue;
          if (s == 0) {
            ver = ws.patternVersion();
            gAvgVals.assign(ws.pattern().nnz(), 0.0);
            cAvgVals.assign(ws.pattern().nnz(), 0.0);
          } else if (ws.patternVersion() != ver) {
            done = false;
            break;
          }
          (*gOut)[s] = ws.gValues();
          (*cOut)[s] = ws.cValues();
          for (std::size_t p = 0; p < gAvgVals.size(); ++p) {
            gAvgVals[p] += ws.gValues()[p] * avgW;
            cAvgVals[p] += ws.cValues()[p] * avgW;
          }
        }
      }
    }
    if (wantMat && gAvg) {
      gAvg->reset(n_, n_);
      cAvg->reset(n_, n_);
      const auto& rp = ws.pattern().rowPtr();
      const auto& ci = ws.pattern().colIdx();
      for (std::size_t row = 0; row < n_; ++row) {
        for (std::size_t p = rp[row]; p < rp[row + 1]; ++p) {
          gAvg->add(row, ci[p], gAvgVals[p]);
          cAvg->add(row, ci[p], cAvgVals[p]);
        }
      }
    }
    timeToSpectrum(fS, fSpec);
    timeToSpectrum(qS, qSpec);
    timeToSpectrum(bS, bSpec);
    work_.need(rc, n_, indices_.size());
    for (std::size_t j = 0; j < indices_.size(); ++j) {
      const Complex jw(0.0, omega(j));
      const Real lam = (j == 0) ? 1.0 : lambda;
      for (std::size_t u = 0; u < n_; ++u)
        rc(u, j) = fSpec(u, j) + jw * qSpec(u, j) - lam * bSpec(u, j);
    }
    packReal(rc, rOut);
  };

  // Drive level for the convergence scale.
  std::vector<std::vector<Real>> gS(msamp_), cS(msamp_);
  sparse::RTriplets gAvg(n_, n_), cAvg(n_, n_);
  // Persistent preconditioner: after the first Newton iteration every
  // update() is a parallel numeric refactorization of the harmonic blocks.
  HBBlockPreconditioner prec(*this);

  sparse::IterativeOptions gmresOpts = opts.gmres;
  gmresOpts.budget = opts.budget;

  const std::size_t ramp = std::max<std::size_t>(1, opts.continuationSteps);
  for (std::size_t stage = 1; stage <= ramp; ++stage) {
    const Real lambda = static_cast<Real>(stage) / static_cast<Real>(ramp);
    const diag::NewtonResult out = diag::runNewton(
        {.maxIterations = opts.maxNewton, .budget = opts.budget},
        [&](std::size_t, const diag::NewtonSeams& seams) {
          residual(coeffs, lambda, r, &gS, &cS, &gAvg, &cAvg);
          const Real rnorm = seams.residual(numeric::norm2(r));
          packReal(bSpec, bPack);
          const Real scale = 1e-12 + numeric::norm2(bPack);
          return diag::NewtonCheck{rnorm, rnorm < opts.tolerance * scale};
        },
        [&](const diag::NewtonSeams& seams) -> diag::NewtonStop {
          const HBOperator jac(*this, ws.pattern(), gS, cS);
          dx.resize(n_ * nc_);
          seams.jacobian();
          if (opts.useDirectSolver) {
            // Probe the operator column by column — exact dense Jacobian.
            const std::size_t nr = n_ * nc_;
            numeric::RMat jd(nr, nr);
            RVec e(nr), col(nr);
            for (std::size_t cidx = 0; cidx < nr; ++cidx) {
              e.setZero();
              e[cidx] = 1.0;
              jac.apply(e, col);
              for (std::size_t rr = 0; rr < nr; ++rr) jd(rr, cidx) = col[rr];
            }
            dx = numeric::solveDense(std::move(jd), r);
            return std::nullopt;
          }
          prec.update(gAvg, cAvg);
          dx.setZero();
          const auto stat =
              sparse::gmres(jac, r, dx, &prec, gmresOpts, &work_.gmres);
          sol.gmresIterations += stat.iterations;
          if (stat.status == diag::SolverStatus::BudgetExceeded)
            return diag::SolverStatus::BudgetExceeded;
          // A stalled GMRES (MaxIterations or Stagnated, including an
          // injected krylov-stall) falls through to the damped update with
          // whatever direction it produced.
          return std::nullopt;
        },
        // Damped update on the packed spectrum: up to five halvings; the
        // last rung takes any finite trial, and a solve whose every trial
        // is non-finite has left the models' domain.
        [&](Real rnorm) -> diag::NewtonStop {
          packReal(coeffs, xPack);
          const std::optional<Real> alpha =
              diag::dampedStep(5, rnorm, 1.0, [&](Real a) {
                xNew = xPack;
                numeric::axpy(-a, dx, xNew);
                unpackReal(xNew, trial);
                residual(trial, lambda, dxp, nullptr, nullptr, nullptr,
                         nullptr);
                return numeric::norm2(dxp);
              });
          if (!alpha) return diag::SolverStatus::Diverged;
          coeffs = trial;
          return std::nullopt;
        });
    sol.newtonIterations += out.iterations;
    // A stage out of iterations hands its iterate to the next, stronger
    // drive; any other failure goes to the ladder in solve().
    if (out.status != diag::SolverStatus::Converged &&
        (out.status != diag::SolverStatus::MaxIterations || stage == ramp)) {
      sol.status = out.status;
      sol.coeffs = coeffs;
      return sol;  // converged flag stays false
    }
  }

  sol.converged = true;
  sol.status = diag::SolverStatus::Converged;
  sol.coeffs = coeffs;
  return sol;
}

}  // namespace rfic::hb
