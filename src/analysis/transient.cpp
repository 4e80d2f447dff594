#include "analysis/transient.hpp"

#include "diag/contracts.hpp"
#include "diag/newton.hpp"
#include "diag/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>

namespace rfic::analysis {

namespace {

// Time-discretization residual and Jacobian combination J = jacQ·C + jacG·G
// for one Newton iterate — the one shared assembly for BE / trapezoidal /
// Gear-2.
void assembleResidual(IntegrationMethod method, Real h, bool haveGearHist,
                      const RVec& q1, const RVec& f1, const RVec& b1,
                      const RVec& q0, const RVec& f0, const RVec& b0,
                      const RVec& qPrev, RVec& r, Real& jacQ, Real& jacG) {
  const std::size_t n = q1.size();
  switch (method) {
    case IntegrationMethod::backwardEuler:
      for (std::size_t i = 0; i < n; ++i)
        r[i] = q1[i] - q0[i] + h * (f1[i] - b1[i]);
      jacQ = 1.0;
      jacG = h;
      break;
    case IntegrationMethod::trapezoidal:
      for (std::size_t i = 0; i < n; ++i)
        r[i] = q1[i] - q0[i] + 0.5 * h * (f1[i] - b1[i] + f0[i] - b0[i]);
      jacQ = 1.0;
      jacG = 0.5 * h;
      break;
    case IntegrationMethod::gear2:
      if (haveGearHist) {
        for (std::size_t i = 0; i < n; ++i)
          r[i] = 1.5 * q1[i] - 2.0 * q0[i] + 0.5 * qPrev[i] +
                 h * (f1[i] - b1[i]);
        jacQ = 1.5;
        jacG = h;
      } else {  // BDF1 start-up step
        for (std::size_t i = 0; i < n; ++i)
          r[i] = q1[i] - q0[i] + h * (f1[i] - b1[i]);
        jacQ = 1.0;
        jacG = h;
      }
      break;
  }
}

// The transient inner step: one Gear-2/trapezoidal Newton solve. Every
// buffer it writes is the caller's (x1 and the StepScratch), so the whole
// body is allocation-free. `historyEvaluated`: the workspace already holds
// the evaluation at (x0, t0) without limiting, so the step reads its
// history from it instead of evaluating again.
RFIC_REALTIME bool newtonStep(circuit::MnaWorkspace& ws,
                              IntegrationMethod method, Real t0, Real h,
                              const RVec& x0, const RVec* xPrevStep, RVec& x1,
                              StepScratch& sc, std::size_t maxNewton, Real tol,
                              std::size_t* newtonIters,
                              diag::RunBudget* budget, bool historyEvaluated) {
  const std::size_t n = ws.dim();
  RFIC_REQUIRE(x0.size() == n && x1.size() == n && sc.q0.size() == n,
               "integrateStep: x0, x1 and the scratch must hold dim() entries");
  const Real t1 = t0 + h;

  // History evaluation at (x0, t0); the workspace buffers are reused every
  // evaluation, so the history vectors are copied out.
  if (!historyEvaluated) ws.eval(x0, t0, false);
  std::copy(ws.q().begin(), ws.q().end(), sc.q0.begin());
  std::copy(ws.f().begin(), ws.f().end(), sc.f0.begin());
  std::copy(ws.b().begin(), ws.b().end(), sc.b0.begin());
  const bool haveGearHist =
      method == IntegrationMethod::gear2 && xPrevStep != nullptr;
  if (haveGearHist) {
    ws.eval(*xPrevStep, t0 - h, false);
    std::copy(ws.q().begin(), ws.q().end(), sc.qPrev.begin());
  }

  std::copy(x0.begin(), x0.end(), x1.begin());
  std::copy(x0.begin(), x0.end(), sc.xIter.begin());
  RVec& xIter = sc.xIter;
  Real jacQ = 0, jacG = 0;
  // Set after a small-update iterate: the next residual evaluation (cheap —
  // no factorization) confirms the step instead of accepting it blind.
  bool confirmPending = false;
  Real confirmRnorm = 0;
  const diag::NewtonResult res = diag::runNewton(
      {.maxIterations = maxNewton, .budget = budget, .pollBudget = false},
      [&](std::size_t it, const diag::NewtonSeams& seams) {
        ws.eval(x1, t1, true, it > 0 ? &xIter : nullptr);
        assembleResidual(method, h, haveGearHist, ws.q(), ws.f(), ws.b(),
                         sc.q0, sc.f0, sc.b0, sc.qPrev, sc.r, jacQ, jacG);
        const Real rnorm = seams.residual(numeric::normInf(sc.r));
        // Residual is in charge units; scale tolerance by h to make it a
        // current tolerance. A confirming evaluation accepts if the final
        // update did not make the residual worse.
        const bool converged = rnorm < tol * std::max(h, 1e-30) ||
                               (confirmPending && rnorm <= 2.0 * confirmRnorm);
        confirmPending = false;
        return diag::NewtonCheck{rnorm, converged};
      },
      // First call factors symbolically; later iterations (and steps)
      // replay the stored pivots on the new values, and the solve writes
      // into the scratch — no per-iteration allocation.
      [&](const diag::NewtonSeams& seams) {
        seams.jacobian();
        ws.factorJacobian(jacQ, jacG);
        ws.solve(sc.r, sc.dx);
      },
      [&](Real rnorm) {
        xIter = x1;
        x1 -= sc.dx;
        if (numeric::norm2(sc.dx) < tol * (1.0 + numeric::norm2(x1))) {
          confirmPending = true;
          confirmRnorm = rnorm;
        }
      });
  if (newtonIters) *newtonIters += res.iterations;
  return res.status == diag::SolverStatus::Converged;
}

}  // namespace

RFIC_REALTIME bool integrateStep(circuit::MnaWorkspace& ws,
                                 IntegrationMethod method, Real t0, Real h,
                                 const RVec& x0, const RVec* xPrevStep,
                                 RVec& x1, StepScratch& sc,
                                 std::size_t maxNewton, Real tol,
                                 std::size_t* newtonIters,
                                 diag::RunBudget* budget) {
  return newtonStep(ws, method, t0, h, x0, xPrevStep, x1, sc, maxNewton, tol,
                    newtonIters, budget, false);
}

bool integrateStep(circuit::MnaWorkspace& ws, IntegrationMethod method,
                   Real t0, Real h, const RVec& x0, const RVec* xPrevStep,
                   RVec& x1, numeric::RMat* sensitivity,
                   std::size_t maxNewton, Real tol, std::size_t* newtonIters,
                   diag::RunBudget* budget) {
  const std::size_t n = ws.dim();
  RFIC_REQUIRE(sensitivity == nullptr || method != IntegrationMethod::gear2 ||
                   xPrevStep == nullptr,
               "integrateStep: Gear-2 does not propagate sensitivities");
  // The sensitivity path keeps C0/G0 at (x0, t0), and the step reads its
  // history from the same evaluation.
  std::vector<Real> c0Vals, g0Vals;
  std::size_t c0Version = 0;
  if (sensitivity) {
    ws.eval(x0, t0, true);
    c0Vals = ws.cValues();
    g0Vals = ws.gValues();
    c0Version = ws.patternVersion();
  }
  StepScratch sc(n);
  x1.resize(n);
  if (!newtonStep(ws, method, t0, h, x0, xPrevStep, x1, sc, maxNewton, tol,
                  newtonIters, budget, sensitivity != nullptr))
    return false;

  if (sensitivity) {
    // dx1/dx0 from the converged step:
    //   BE:   (C1 + h·G1)·dx1 = C0·dx0
    //   trap: (C1 + h/2·G1)·dx1 = (C0 − h/2·G0)·dx0
    const Real gw = (method == IntegrationMethod::trapezoidal) ? 0.5 * h : h;
    const Real t1 = t0 + h;
    // The pattern may have grown during the Newton loop; the cached C0/G0
    // value arrays must match the pattern the final Jacobian uses.
    for (;;) {
      if (c0Version != ws.patternVersion()) {
        ws.eval(x0, t0, true);
        c0Vals = ws.cValues();
        g0Vals = ws.gValues();
        c0Version = ws.patternVersion();
      }
      ws.eval(x1, t1, true);
      if (ws.patternVersion() == c0Version) break;
    }
    ws.factorJacobian(1.0, gw);

    const auto& pat = ws.pattern();
    numeric::RMat out(n, sensitivity->cols());
    RVec col(n), y(n), yg(n), sol;
    for (std::size_t c = 0; c < sensitivity->cols(); ++c) {
      for (std::size_t i = 0; i < n; ++i) col[i] = (*sensitivity)(i, c);
      pat.multiplyWith(c0Vals, col, y);
      if (method == IntegrationMethod::trapezoidal) {
        pat.multiplyWith(g0Vals, col, yg);
        for (std::size_t i = 0; i < n; ++i) y[i] -= gw * yg[i];
      }
      ws.solve(y, sol);
      for (std::size_t i = 0; i < n; ++i) out(i, c) = sol[i];
    }
    *sensitivity = std::move(out);
  }
  return true;
}

namespace {

// The bodies of runTransient / runNoisyTransient, run under their counter
// scopes (perf::measured fills TransientResult::perf).
TransientResult transientSweep(const MnaSystem& sys, const RVec& x0,
                               const TransientOptions& opts) {
  TransientResult res;
  const Real dtMin = opts.dtMin > 0 ? opts.dtMin : opts.dt * 1e-6;

  // One workspace for the whole sweep: the sparsity pattern is discovered
  // on the first step and every later Newton iteration refactors in place.
  // A caller-owned workspace (engine context cache) extends the reuse
  // across runs — repeat jobs refactor instead of re-discovering.
  RFIC_REQUIRE(opts.workspace == nullptr || &opts.workspace->system() == &sys,
               "runTransient: workspace bound to a different system");
  std::optional<circuit::MnaWorkspace> local;
  circuit::MnaWorkspace& ws =
      opts.workspace != nullptr ? *opts.workspace : local.emplace(sys);

  const std::size_t n = x0.size();
  Real t = opts.tstart;
  Real h = opts.dt;
  RVec x = x0;
  RVec xPrev;        // state one accepted step back (for Gear-2 / LTE)
  Real hPrev = 0.0;
  bool havePrev = false;

  // Local truncation error applies to *dynamic* unknowns only: algebraic
  // components (source branch currents, purely resistive nodes) may jump
  // with the excitation and must not drive step rejection.
  std::vector<char> dynamicMask(n, 0);

  if (opts.resume) {
    RFIC_REQUIRE(!opts.checkpointPath.empty(),
                 "runTransient: resume requested without a checkpoint path");
    diag::TransientCheckpoint ck;
    if (!diag::loadCheckpoint(opts.checkpointPath, ck))
      failInvalid("runTransient: cannot load checkpoint '" +
                  opts.checkpointPath + "'");
    RFIC_REQUIRE(ck.x.size() == n && ck.dynamicMask.size() == n &&
                     (!ck.havePrev || ck.xPrev.size() == n),
                 "runTransient: checkpoint dimension mismatch");
    t = ck.t;
    h = ck.h;
    hPrev = ck.hPrev;
    havePrev = ck.havePrev;
    for (std::size_t i = 0; i < n; ++i) x[i] = ck.x[i];
    if (havePrev) {
      xPrev = RVec(n);
      for (std::size_t i = 0; i < n; ++i) xPrev[i] = ck.xPrev[i];
    }
    // The mask is restored, not re-derived: deriving it at the resume
    // state could classify rows differently and change step control,
    // breaking bit-identity with the uninterrupted run.
    for (std::size_t i = 0; i < n; ++i)
      dynamicMask[i] = static_cast<char>(ck.dynamicMask[i]);
    res.steps = ck.steps;
    res.newtonIterations = ck.newtonIterations;
    res.retries = ck.retries;
  } else if (opts.adaptive) {
    ws.eval(x0, opts.tstart, true);
    const auto& rp = ws.pattern().rowPtr();
    const auto& cv = ws.cValues();
    for (std::size_t row = 0; row < ws.dim(); ++row)
      for (std::size_t p = rp[row]; p < rp[row + 1]; ++p)
        if (!diag::exactlyZero(cv[p])) dynamicMask[row] = 1;
  }

  const auto retryStep = [&] {
    ++res.retries;
    perf::global().addRetry();
  };
  const auto saveCk = [&] {
    if (opts.checkpointPath.empty()) return;
    diag::TransientCheckpoint ck;
    ck.steps = res.steps;
    ck.newtonIterations = res.newtonIterations;
    ck.retries = res.retries;
    ck.t = t;
    ck.h = h;
    ck.hPrev = hPrev;
    ck.havePrev = havePrev;
    ck.x.resize(n);
    for (std::size_t i = 0; i < n; ++i) ck.x[i] = x[i];
    if (havePrev) {
      ck.xPrev.resize(n);
      for (std::size_t i = 0; i < n; ++i) ck.xPrev[i] = xPrev[i];
    }
    ck.dynamicMask.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      ck.dynamicMask[i] = static_cast<unsigned char>(dynamicMask[i]);
    // A failed save must never kill the run it protects; keep stepping.
    diag::saveCheckpoint(opts.checkpointPath, ck);
  };

  res.time.push_back(t);
  res.x.push_back(x);

  // Step buffers, sized once for the whole sweep.
  StepScratch scratch(n);
  RVec x1(n);
  perf::Timer sinceSave;
  while (t < opts.tstop - 1e-12 * opts.tstop) {
    if (diag::budgetExceeded(opts.budget)) {
      saveCk();
      res.status = diag::SolverStatus::BudgetExceeded;
      return res;  // res.ok stays false; trajectory so far is valid
    }
    if (!opts.checkpointPath.empty() && opts.checkpointInterval > 0 &&
        sinceSave.ns() >= static_cast<std::uint64_t>(
                              opts.checkpointInterval * 1e9)) {
      saveCk();
      sinceSave = perf::Timer();
    }
    // Clamp the step to tstop, but keep h when the remainder is h within
    // the loop's own 1e-12·tstop slack: rounding in t would otherwise cut
    // a fixed-step run's last step a few ulps short, and a new step is a
    // new Jacobian to factor.
    if (opts.tstop - t < h - 1e-12 * opts.tstop) h = opts.tstop - t;
    bool ok = integrateStep(ws, opts.method, t, h, x,
                            havePrev ? &xPrev : nullptr, x1, scratch,
                            opts.maxNewton, opts.newtonTol,
                            &res.newtonIterations, opts.budget);
    // A converged Newton solve can still hand back a non-finite state
    // (overflow inside a device model on the last update); treat it as a
    // failed step so the dt cut below retries from clean history. This
    // applies in non-adaptive mode too — a fixed-dt run recovers by
    // temporarily shortening the step rather than marching NaNs to tstop.
    if (ok) {
      for (std::size_t i = 0; i < n; ++i)
        if (!std::isfinite(x1[i])) {
          ok = false;
          break;
        }
    }
    if (!ok) {
      h *= 0.5;
      if (h < dtMin) {
        res.status = diag::SolverStatus::StepLimit;
        return res;  // res.ok stays false
      }
      retryStep();
      continue;
    }

    bool accept = true;
    if (opts.adaptive && havePrev) {
      // Divided-difference LTE proxy: compare against linear extrapolation
      // of the last two accepted points.
      Real err = 0;
      for (std::size_t i = 0; i < x1.size(); ++i) {
        if (!dynamicMask[i]) continue;
        const Real pred = x[i] + (x[i] - xPrev[i]) * (h / hPrev);
        const Real tolI = opts.reltol * std::abs(x1[i]) + opts.abstol;
        err = std::max(err, std::abs(x1[i] - pred) / tolI);
      }
      if (err > 10.0 && h > dtMin) {
        h = std::max(dtMin, 0.5 * h);
        accept = false;
      } else if (err < 0.5) {
        h = std::min(opts.dt, 1.6 * h);
      }
    }
    if (!accept) {
      retryStep();
      continue;
    }

    xPrev = x;
    hPrev = h;
    havePrev = true;
    x = x1;
    t += h;
    ++res.steps;
    if (opts.storeWaveforms) {
      res.time.push_back(t);
      res.x.push_back(x);
    }
  }
  if (!opts.storeWaveforms) {
    res.time.assign(1, t);
    res.x.assign(1, x);
  }
  res.ok = true;
  res.status = diag::SolverStatus::Converged;
  return res;
}

TransientResult noisyTransientSweep(const MnaSystem& sys, const RVec& x0,
                                    const TransientOptions& opts,
                                    std::uint64_t seed) {
  TransientResult res;
  std::mt19937_64 rng(seed);
  std::normal_distribution<Real> gauss(0.0, 1.0);

  const std::size_t n = sys.dim();
  circuit::MnaWorkspace ws(sys);
  Real t = opts.tstart;
  RVec x = x0;
  res.time.push_back(t);
  res.x.push_back(x);
  const Real h = opts.dt;

  // Per-step buffers, grown on the first step and reused after it.
  RVec q0, r(n), inoise(n), dx, x1, xIter;
  std::vector<circuit::NoiseSource> sources;
  while (t < opts.tstop - 1e-12 * opts.tstop) {
    if (diag::budgetExceeded(opts.budget)) {
      res.status = diag::SolverStatus::BudgetExceeded;
      return res;
    }
    // Sample device noise at the current operating point (cyclostationary
    // modulation happens automatically through the x-dependence).
    sys.noiseSources(x, sources);
    inoise.setZero();
    for (const auto& src : sources) {
      // One-sided white PSD S → discrete variance S/(2h).
      const Real sigma =
          std::sqrt(opts.noiseScale * std::max(0.0, src.white) / (2.0 * h));
      const Real val = sigma * gauss(rng);
      if (src.nodePlus >= 0) inoise[static_cast<std::size_t>(src.nodePlus)] -= val;
      if (src.nodeMinus >= 0) inoise[static_cast<std::size_t>(src.nodeMinus)] += val;
    }

    // One BE Newton solve with the noise current on the RHS.
    ws.eval(x, t, false);
    q0 = ws.q();
    x1 = x;
    xIter = x;
    const diag::NewtonResult nr = diag::runNewton(
        {.maxIterations = opts.maxNewton, .budget = opts.budget,
         .pollBudget = false},
        [&](std::size_t it, const diag::NewtonSeams&) {
          ws.eval(x1, t + h, true, it > 0 ? &xIter : nullptr);
          const auto& q1 = ws.q();
          const auto& f1 = ws.f();
          const auto& b1 = ws.b();
          for (std::size_t i = 0; i < n; ++i)
            r[i] = q1[i] - q0[i] + h * (f1[i] - b1[i] - inoise[i]);
          const Real rnorm = numeric::normInf(r);
          return diag::NewtonCheck{rnorm, rnorm < opts.newtonTol * h};
        },
        [&](const diag::NewtonSeams&) {
          ws.factorJacobian(1.0, h);
          ws.solve(r, dx);
        },
        [&](Real) -> diag::NewtonStop {
          xIter = x1;
          x1 -= dx;
          if (numeric::norm2(dx) < opts.newtonTol * (1.0 + numeric::norm2(x1)))
            return diag::SolverStatus::Converged;
          return std::nullopt;
        });
    res.newtonIterations += nr.iterations;
    if (nr.status != diag::SolverStatus::Converged) {
      res.status = nr.status;
      return res;
    }
    x = x1;
    t += h;
    ++res.steps;
    if (opts.storeWaveforms) {
      res.time.push_back(t);
      res.x.push_back(x);
    }
  }
  if (!opts.storeWaveforms) {
    res.time.assign(1, t);
    res.x.assign(1, x);
  }
  res.ok = true;
  res.status = diag::SolverStatus::Converged;
  return res;
}

}  // namespace

TransientResult runTransient(const MnaSystem& sys, const RVec& x0,
                             const TransientOptions& opts) {
  RFIC_REQUIRE(opts.tstop > opts.tstart, "runTransient: tstop must exceed tstart");
  RFIC_REQUIRE(opts.dt > 0, "runTransient: dt must be positive");
  // A NaN or Inf start can only collapse the step control into StepLimit.
  for (const Real v : x0)
    RFIC_REQUIRE(std::isfinite(v), "runTransient: x0 must be finite");
  return perf::measured([&] { return transientSweep(sys, x0, opts); });
}

TransientResult runNoisyTransient(const MnaSystem& sys, const RVec& x0,
                                  const TransientOptions& opts,
                                  std::uint64_t seed) {
  RFIC_REQUIRE(opts.dt > 0, "runNoisyTransient: dt must be positive");
  return perf::measured(
      [&] { return noisyTransientSweep(sys, x0, opts, seed); });
}

}  // namespace rfic::analysis
