#include "phasenoise/phase_noise.hpp"

#include <cmath>
#include <map>
#include <vector>

#include "diag/contracts.hpp"

namespace rfic::phasenoise {

Real PhaseNoiseResult::lorentzian(int k, Real offsetHz) const {
  const Real w0 = kTwoPi * f0;
  const Real a = static_cast<Real>(k) * static_cast<Real>(k) * w0 * w0 * c;
  const Real dw = kTwoPi * offsetHz;
  return a / (0.25 * a * a + dw * dw);
}

Real PhaseNoiseResult::ssbPhaseNoiseDbc(Real offsetHz) const {
  return 10.0 * std::log10(lorentzian(1, offsetHz));
}

Real PhaseNoiseResult::ltvPhaseNoiseDbc(Real offsetHz) const {
  const Real w0 = kTwoPi * f0;
  const Real dw = kTwoPi * offsetHz;
  RFIC_REQUIRE(!diag::exactlyZero(offsetHz),
               "ltvPhaseNoiseDbc: diverges at zero offset");
  return 10.0 * std::log10(w0 * w0 * c / (dw * dw));
}

Real PhaseNoiseResult::linewidthHz() const {
  const Real w0 = kTwoPi * f0;
  return w0 * w0 * c / (2.0 * kTwoPi);
}

PhaseNoiseResult analyzeOscillatorPhaseNoise(const MnaSystem& sys,
                                             const PSSResult& pss) {
  // An unconverged or empty PSS would silently produce garbage (and
  // trajectory.size() - 1 below would wrap on an empty trajectory).
  RFIC_REQUIRE(pss.converged, "analyzeOscillatorPhaseNoise: PSS not converged");
  RFIC_REQUIRE(pss.trajectory.size() >= 2 && pss.period > 0,
               "analyzeOscillatorPhaseNoise: empty PSS trajectory");

  PhaseNoiseResult res;
  res.period = pss.period;
  res.f0 = 1.0 / pss.period;
  res.floquet = floquetDecompose(sys, pss);

  const std::size_t m = pss.trajectory.size() - 1;
  const Real h = pss.period / static_cast<Real>(m);

  // c = (1/T) Σ_k h Σ_sources (S_white(x_k)/2) · (v1_k[p] − v1_k[m])².
  // One-sided device PSD S → unit-white-noise intensity √(S/2).
  std::map<std::string, Real> bySource;
  Real c = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const auto sources = sys.noiseSources(pss.trajectory[k]);
    const RVec& v = res.floquet.ppv[k];
    for (const auto& src : sources) {
      const Real vp = src.nodePlus >= 0
                          ? v[static_cast<std::size_t>(src.nodePlus)]
                          : 0.0;
      const Real vm = src.nodeMinus >= 0
                          ? v[static_cast<std::size_t>(src.nodeMinus)]
                          : 0.0;
      const Real contrib =
          0.5 * std::max(0.0, src.white) * (vp - vm) * (vp - vm) * h;
      c += contrib;
      bySource[src.label] += contrib;
    }
  }
  c /= pss.period;
  diag::checkFinite(c, "analyzeOscillatorPhaseNoise: diffusion constant c");
  res.c = c;
  res.perSource.reserve(bySource.size());
  for (auto& [label, val] : bySource)
    res.perSource.emplace_back(label, val / pss.period);

  // Node sensitivity: RMS of v1 per unknown along the orbit.
  const std::size_t n = pss.x0.size();
  res.nodeSensitivity = RVec(n);
  for (std::size_t k = 0; k < m; ++k) {
    const RVec& v = res.floquet.ppv[k];
    for (std::size_t i = 0; i < n; ++i)
      res.nodeSensitivity[i] += v[i] * v[i];
  }
  for (std::size_t i = 0; i < n; ++i)
    res.nodeSensitivity[i] =
        std::sqrt(res.nodeSensitivity[i] / static_cast<Real>(m));
  return res;
}


}  // namespace rfic::phasenoise
