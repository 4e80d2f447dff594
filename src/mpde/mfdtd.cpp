#include "mpde/mfdtd.hpp"

#include <cmath>
#include <cstdint>

#include "circuit/mna_workspace.hpp"
#include "diag/contracts.hpp"
#include "diag/newton.hpp"
#include "sparse/krylov.hpp"
#include "sparse/symbolic_lu.hpp"

namespace rfic::mpde {

namespace {

// Position of column `col` in CSR row `row`, found by binary search.
std::size_t csrPos(const sparse::RCSR& a, std::size_t row, std::size_t col) {
  const auto& rp = a.rowPtr();
  const auto& ci = a.colIdx();
  std::size_t lo = rp[row], hi = rp[row + 1];
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (ci[mid] < col)
      lo = mid + 1;
    else
      hi = mid;
  }
  RFIC_REQUIRE(lo < rp[row + 1] && ci[lo] == col,
               "runMFDTD: grid Jacobian position missing from pattern");
  return lo;
}

// The body of runMFDTD, run under its counter scope (perf::measured fills
// MFDTDResult::perf).
MFDTDResult mfdtdSolve(const MnaSystem& sys, Real slowFreq, Real fastFreq,
                       const numeric::RVec& dcOp, const MFDTDOptions& opts) {
  const std::size_t n = sys.dim();
  const std::size_t m1 = opts.m1, m2 = opts.m2;
  const Real T1 = 1.0 / slowFreq, T2 = 1.0 / fastFreq;
  const Real h1 = T1 / static_cast<Real>(m1);
  const Real h2 = T2 / static_cast<Real>(m2);
  const std::size_t np = m1 * m2;     // grid points
  const std::size_t nu = np * n;      // total unknowns

  MFDTDResult res;
  res.grid = BivariateGrid(n, m1, m2, T1, T2);

  // Flat unknown layout: point p = i·m2 + j holds block [p·n, p·n+n).
  numeric::RVec x(nu);

  // Every grid point stamps the same circuit, so all share the workspace
  // pattern: one per-point (f, q, b) snapshot plus G/C value arrays.
  circuit::MnaWorkspace ws(sys);
  std::vector<numeric::RVec> fV(np), qV(np), bV(np);
  std::vector<std::vector<Real>> gV(np), cV(np);
  numeric::RVec xp(n);

  // The global grid Jacobian inherits its structure from the workspace
  // pattern replicated over the (diagonal, t1-neighbor, t2-neighbor)
  // blocks. It is assembled once; each Newton iteration only refills the
  // value array and numerically refactors on the recorded pivot order.
  sparse::RCSR gpat;
  std::vector<std::uint32_t> posDiag, posP1, posP2;
  std::vector<Real> gvals;
  sparse::RSymbolicLU glu;
  std::size_t patVer = 0;
  bool havePattern = false;
  // Only the C pattern couples neighboring grid points; using the full
  // G∪C union there would multiply the inter-block fill-in. A slot joins
  // cActive the first time any grid point stamps charge into it, and the
  // global structure is rebuilt when the set grows.
  std::vector<char> cActive;
  std::vector<std::uint32_t> cSlots;

  // Evaluate every grid point (restarting the sweep if a conditional stamp
  // grows the shared pattern mid-flight) and the residual into r, with BE
  // differences and periodic wrap; returns the convergence test's scale.
  numeric::RVec r(nu), dx(nu);
  const auto evalResidual = [&] {
    for (bool done = false; !done;) {
      done = true;
      for (std::size_t i = 0; i < m1 && done; ++i) {
        for (std::size_t j = 0; j < m2; ++j) {
          const std::size_t p = i * m2 + j;
          for (std::size_t u = 0; u < n; ++u) xp[u] = x[p * n + u];
          ws.evalBivariate(xp, res.grid.t1(i), res.grid.t2(j), true);
          if (p > 0 && ws.patternVersion() != patVer) {
            done = false;
            break;
          }
          if (p == 0 && ws.patternVersion() != patVer) {
            patVer = ws.patternVersion();
            havePattern = false;
            cActive.clear();  // slot numbering changed with the pattern
          }
          fV[p] = ws.f();
          qV[p] = ws.q();
          bV[p] = ws.b();
          gV[p] = ws.gValues();
          cV[p] = ws.cValues();
        }
      }
    }

    Real bScale = 0;
    for (std::size_t i = 0; i < m1; ++i) {
      const std::size_t im = (i + m1 - 1) % m1;
      for (std::size_t j = 0; j < m2; ++j) {
        const std::size_t jm = (j + m2 - 1) % m2;
        const std::size_t p = i * m2 + j;
        const auto& q1 = qV[im * m2 + j];
        const auto& q2 = qV[i * m2 + jm];
        for (std::size_t u = 0; u < n; ++u) {
          r[p * n + u] = (qV[p][u] - q1[u]) / h1 + (qV[p][u] - q2[u]) / h2 +
                         fV[p][u] - bV[p][u];
          bScale = std::max(bScale, std::abs(bV[p][u]) + std::abs(fV[p][u]));
        }
      }
    }
    return bScale;
  };

  // Refill the grid Jacobian's values, first rebuilding its structure when
  // the workspace pattern or the active C slots changed.
  const auto assembleJacobian = [&] {
    const auto& prp = ws.pattern().rowPtr();
    const auto& pci = ws.pattern().colIdx();
    const std::size_t pnnz = ws.pattern().nnz();

    cActive.resize(pnnz, 0);
    for (std::size_t q = 0; q < pnnz; ++q) {
      if (cActive[q]) continue;
      for (std::size_t p = 0; p < np; ++p) {
        if (cV[p][q] != Real{}) {
          cActive[q] = 1;
          havePattern = false;
          break;
        }
      }
    }

    if (!havePattern) {
      cSlots.clear();
      for (std::size_t q = 0; q < pnnz; ++q)
        if (cActive[q]) cSlots.push_back(static_cast<std::uint32_t>(q));
      // Assemble the union structure once, then cache the CSR position of
      // every (point, pattern-slot, block) contribution so value fills are
      // flat array writes.
      // Slot → pattern row, for addressing neighbor-block entries by slot.
      std::vector<std::size_t> slotRow(pnnz);
      for (std::size_t row = 0; row < n; ++row)
        for (std::size_t q = prp[row]; q < prp[row + 1]; ++q) slotRow[q] = row;

      const std::size_t ncs = cSlots.size();
      sparse::RTriplets pat(nu, nu);
      for (std::size_t i = 0; i < m1; ++i) {
        const std::size_t im = (i + m1 - 1) % m1;
        for (std::size_t j = 0; j < m2; ++j) {
          const std::size_t jm = (j + m2 - 1) % m2;
          const std::size_t p = i * m2 + j;
          const std::size_t p1 = im * m2 + j;
          const std::size_t p2 = i * m2 + jm;
          for (std::size_t row = 0; row < n; ++row)
            for (std::size_t q = prp[row]; q < prp[row + 1]; ++q)
              pat.add(p * n + row, p * n + pci[q], 0.0);
          for (const std::uint32_t q : cSlots) {
            pat.add(p * n + slotRow[q], p1 * n + pci[q], 0.0);
            pat.add(p * n + slotRow[q], p2 * n + pci[q], 0.0);
          }
        }
      }
      gpat = sparse::RCSR(pat);
      posDiag.resize(np * pnnz);
      posP1.resize(np * ncs);
      posP2.resize(np * ncs);
      for (std::size_t i = 0; i < m1; ++i) {
        const std::size_t im = (i + m1 - 1) % m1;
        for (std::size_t j = 0; j < m2; ++j) {
          const std::size_t jm = (j + m2 - 1) % m2;
          const std::size_t p = i * m2 + j;
          const std::size_t p1 = im * m2 + j;
          const std::size_t p2 = i * m2 + jm;
          for (std::size_t row = 0; row < n; ++row) {
            for (std::size_t q = prp[row]; q < prp[row + 1]; ++q) {
              posDiag[p * pnnz + q] = static_cast<std::uint32_t>(
                  csrPos(gpat, p * n + row, p * n + pci[q]));
            }
          }
          for (std::size_t s = 0; s < ncs; ++s) {
            const std::uint32_t q = cSlots[s];
            const std::size_t grow = p * n + slotRow[q];
            posP1[p * ncs + s] = static_cast<std::uint32_t>(
                csrPos(gpat, grow, p1 * n + pci[q]));
            posP2[p * ncs + s] = static_cast<std::uint32_t>(
                csrPos(gpat, grow, p2 * n + pci[q]));
          }
        }
      }
      glu = sparse::RSymbolicLU();
      havePattern = true;
    }

    gvals.assign(gpat.nnz(), 0.0);
    const std::size_t ncs = cSlots.size();
    const Real dd = 1.0 / h1 + 1.0 / h2;
    for (std::size_t i = 0; i < m1; ++i) {
      const std::size_t im = (i + m1 - 1) % m1;
      for (std::size_t j = 0; j < m2; ++j) {
        const std::size_t jm = (j + m2 - 1) % m2;
        const std::size_t p = i * m2 + j;
        const auto& c1 = cV[im * m2 + j];
        const auto& c2 = cV[i * m2 + jm];
        for (std::size_t q = 0; q < pnnz; ++q)
          gvals[posDiag[p * pnnz + q]] += cV[p][q] * dd + gV[p][q];
        for (std::size_t s = 0; s < ncs; ++s) {
          const std::uint32_t q = cSlots[s];
          gvals[posP1[p * ncs + s]] -= c1[q] / h1;
          gvals[posP2[p * ncs + s]] -= c2[q] / h2;
        }
      }
    }
    res.jacobianNnz = gpat.nnz();
  };

  // Retry ladder (iterative path): failed attempts restart from the DC
  // point with the GMRES tolerance tightened 100× and the iteration cap
  // doubled per rung. The LU path retries as a plain restart.
  Real gmresTol = 1e-8;
  std::size_t gmresMaxIter = 2000;
  const auto attempt = [&] {
    for (std::size_t p = 0; p < np; ++p)
      for (std::size_t u = 0; u < n; ++u) x[p * n + u] = dcOp[u];
    const diag::NewtonResult nr = diag::runNewton(
        {.maxIterations = opts.maxNewton, .budget = opts.budget},
        [&](std::size_t, const diag::NewtonSeams& seams) {
          const Real bScale = evalResidual();
          const Real rnorm = seams.residual(numeric::norm2(r));
          return diag::NewtonCheck{
              rnorm, rnorm < opts.tolerance * (1.0 + bScale) *
                                 std::sqrt(static_cast<Real>(nu))};
        },
        [&](const diag::NewtonSeams& seams) -> diag::NewtonStop {
          assembleJacobian();
          if (opts.useIterativeSolver) {
            sparse::RCSR a = gpat;
            a.values() = gvals;
            sparse::CSROperator<Real> op(a);
            sparse::JacobiPreconditioner<Real> prec(a);
            sparse::IterativeOptions io;
            io.tolerance = gmresTol;
            io.maxIterations = gmresMaxIter;
            io.restart = 100;
            io.budget = opts.budget;
            dx.setZero();
            const auto st = sparse::gmres(op, r, dx, &prec, io);
            if (st.status == diag::SolverStatus::BudgetExceeded)
              return diag::SolverStatus::BudgetExceeded;
            // A stalled inner solve is a structured, retryable failure —
            // not a process abort.
            if (!st.converged) return diag::SolverStatus::Stagnated;
            return std::nullopt;
          }
          seams.jacobian();
          if (!glu.analyzed()) {
            sparse::RCSR a = gpat;
            a.values() = gvals;
            glu.factor(a);
          } else {
            (void)glu.refactor(gvals);  // a repivot is as good as a factor
          }
          res.jacobianNnz = glu.factorNnz();
          const perf::Timer solveTimer;
          dx = glu.solve(r);
          perf::global().addSolve(solveTimer.ns());
          return std::nullopt;
        },
        [&](Real) { x -= dx; });
    res.newtonIterations += nr.iterations;
    return nr.status;
  };
  res.status = diag::restartLadder(opts.maxRetries, res.retries, attempt, [&] {
    gmresTol *= 0.01;
    gmresMaxIter *= 2;
  });
  res.converged = res.status == diag::SolverStatus::Converged;

  for (std::size_t i = 0; i < m1; ++i)
    for (std::size_t j = 0; j < m2; ++j)
      for (std::size_t u = 0; u < n; ++u)
        res.grid.at(u, i, j) = x[(i * m2 + j) * n + u];
  return res;
}

}  // namespace

MFDTDResult runMFDTD(const MnaSystem& sys, Real slowFreq, Real fastFreq,
                     const numeric::RVec& dcOp, const MFDTDOptions& opts) {
  RFIC_REQUIRE(slowFreq > 0 && fastFreq > 0, "runMFDTD: bad frequencies");
  RFIC_REQUIRE(dcOp.size() == sys.dim(), "runMFDTD: DC point size mismatch");
  return perf::measured(
      [&] { return mfdtdSolve(sys, slowFreq, fastFreq, dcOp, opts); });
}

}  // namespace rfic::mpde
