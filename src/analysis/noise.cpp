#include "analysis/noise.hpp"

#include <cmath>

#include "analysis/ac.hpp"
#include "sparse/sparse_lu.hpp"

namespace rfic::analysis {

NoiseResult noiseAnalysis(const MnaSystem& sys, const RVec& xop, int outNode,
                          const std::vector<Real>& freqs) {
  RFIC_REQUIRE(outNode >= 0, "noiseAnalysis: output node must not be ground");
  RFIC_REQUIRE(nodeInRange(sys, outNode),
               "noiseAnalysis: output node out of range");
  const std::size_t n = sys.dim();

  circuit::MnaWorkspace ws(sys);
  linearizeAt(ws, xop);
  const auto& rp = ws.pattern().rowPtr();
  const auto& ci = ws.pattern().colIdx();
  const auto sources = sys.noiseSources(xop);

  NoiseResult out;
  out.freq = freqs;
  out.totalPsd.reserve(freqs.size());
  out.contributions.reserve(freqs.size());

  for (const Real f : freqs) {
    // Assemble Aᴴ = (G + jωC)ᴴ directly: entry (i,j) ← conj(A(j,i)).
    const Real w = kTwoPi * f;
    sparse::CTriplets ah(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t p = rp[r]; p < rp[r + 1]; ++p)
        ah.add(ci[p], r, Complex(ws.gValues()[p], -w * ws.cValues()[p]));
    sparse::CSparseLU lu(ah);

    numeric::CVec rhs(n);
    rhs[static_cast<std::size_t>(outNode)] = 1.0;
    const numeric::CVec adj = lu.solve(rhs);

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
  return out;
}

}  // namespace rfic::analysis
