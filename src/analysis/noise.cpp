#include "analysis/noise.hpp"

#include <cmath>

#include "analysis/ac.hpp"

namespace rfic::analysis {

NoiseResult noiseAnalysis(const MnaSystem& sys, const RVec& xop, int outNode,
                          const std::vector<Real>& freqs,
                          diag::RunBudget* budget) {
  RFIC_REQUIRE(outNode >= 0, "noiseAnalysis: output node must not be ground");
  RFIC_REQUIRE(nodeInRange(sys, outNode),
               "noiseAnalysis: output node out of range");
  const std::size_t n = sys.dim();

  circuit::MnaWorkspace ws(sys);
  linearizeAt(ws, xop);
  const auto sources = sys.noiseSources(xop);

  NoiseResult out;
  out.totalPsd.reserve(freqs.size());
  out.contributions.reserve(freqs.size());

  numeric::CVec rhs(n);
  rhs[static_cast<std::size_t>(outNode)] = 1.0;
  sparse::CSymbolicLU lu;
  std::vector<Complex> vals;
  for (const Real f : freqs) {
    if (diag::budgetExceeded(budget)) {
      out.status = diag::SolverStatus::BudgetExceeded;
      break;
    }
    factorAt(lu, ws, f, vals);
    const numeric::CVec adj = lu.solveTransposed(rhs);

    Real total = 0;
    std::vector<NoiseContribution> contribs;
    contribs.reserve(sources.size());
    for (const auto& src : sources) {
      const Complex hp =
          src.nodePlus >= 0 ? adj[static_cast<std::size_t>(src.nodePlus)] : 0.0;
      const Complex hm = src.nodeMinus >= 0
                             ? adj[static_cast<std::size_t>(src.nodeMinus)]
                             : 0.0;
      const Real gain2 = std::norm(hp - hm);
      const Real s = src.white + (f > 0 ? src.flicker / f : 0.0);
      const Real psd = gain2 * s;
      total += psd;
      contribs.push_back({src.label, psd});
    }
    out.totalPsd.push_back(total);
    out.contributions.push_back(std::move(contribs));
  }
  out.freq.assign(freqs.begin(), freqs.begin() + out.totalPsd.size());
  return out;
}

}  // namespace rfic::analysis
