#include "analysis/ac.hpp"

#include <cmath>

namespace rfic::analysis {

namespace {

void acValues(const circuit::MnaWorkspace& ws, Real freqHz,
              std::vector<Complex>& vals) {
  const auto& g = ws.gValues();
  const auto& c = ws.cValues();
  const Real w = kTwoPi * freqHz;
  vals.resize(g.size());
  for (std::size_t p = 0; p < vals.size(); ++p)
    vals[p] = Complex(g[p], w * c[p]);
}

}  // namespace

sparse::CCSR acMatrix(const circuit::MnaWorkspace& ws, Real freqHz) {
  std::vector<Complex> vals;
  acValues(ws, freqHz, vals);
  return {ws.pattern(), std::move(vals)};
}

void factorAt(sparse::CSymbolicLU& lu, const circuit::MnaWorkspace& ws,
              Real freqHz, std::vector<Complex>& vals) {
  if (!lu.analyzed()) {
    lu.factor(acMatrix(ws, freqHz));
    return;
  }
  acValues(ws, freqHz, vals);
  // Either outcome is usable; the LU counts the replay or the repivot.
  (void)lu.refactor(vals);
}

void linearizeAt(circuit::MnaWorkspace& ws, const RVec& xop) {
  RFIC_REQUIRE(xop.size() == ws.dim(),
               "small-signal analysis: operating point size mismatch");
  ws.eval(xop, 0.0, true);
}

ACResult acSweep(const MnaSystem& sys, const RVec& xop,
                 const std::vector<Real>& freqs, const CVec& stimulus,
                 diag::RunBudget* budget) {
  RFIC_REQUIRE(stimulus.size() == sys.dim(), "acSweep: stimulus size mismatch");
  circuit::MnaWorkspace ws(sys);
  linearizeAt(ws, xop);
  ACResult out;
  out.x.reserve(freqs.size());
  sparse::CSymbolicLU lu;
  std::vector<Complex> vals;
  for (const Real f : freqs) {
    if (diag::budgetExceeded(budget)) {
      out.status = diag::SolverStatus::BudgetExceeded;
      break;
    }
    factorAt(lu, ws, f, vals);
    out.x.push_back(lu.solve(stimulus));
  }
  out.freq.assign(freqs.begin(), freqs.begin() + out.x.size());
  return out;
}

CVec acStimulusVSource(const MnaSystem& sys, const circuit::VSource& src,
                       Complex amplitude) {
  CVec u(sys.dim());
  u[static_cast<std::size_t>(src.branch())] = amplitude;
  return u;
}

CVec acStimulusCurrent(const MnaSystem& sys, int nodePlus, int nodeMinus,
                       Complex amplitude) {
  RFIC_REQUIRE(nodeInRange(sys, nodePlus) && nodeInRange(sys, nodeMinus),
               "acStimulusCurrent: node out of range");
  CVec u(sys.dim());
  if (nodePlus >= 0) u[static_cast<std::size_t>(nodePlus)] -= amplitude;
  if (nodeMinus >= 0) u[static_cast<std::size_t>(nodeMinus)] += amplitude;
  return u;
}

std::vector<Real> logspace(Real fStart, Real fStop, std::size_t n) {
  RFIC_REQUIRE(fStart > 0 && fStop > fStart && n >= 2,
               "logspace: need 0 < fStart < fStop and n >= 2");
  std::vector<Real> f(n);
  const Real l0 = std::log10(fStart), l1 = std::log10(fStop);
  for (std::size_t i = 0; i < n; ++i)
    f[i] = std::pow(10.0, l0 + (l1 - l0) * static_cast<Real>(i) /
                              static_cast<Real>(n - 1));
  return f;
}

}  // namespace rfic::analysis
