// Oscillator phase noise characterization (Section 3).
//
// Implements the Demir–Mehrotra–Roychowdhury theory the paper describes:
// the effect of white device noise on a free-running oscillator is a phase
// deviation α(t) that diffuses with variance c·t, producing
//  * mean-square jitter growing linearly (and unboundedly) with time,
//  * a Lorentzian output spectrum with *finite* power density at the
//    carrier and preserved total carrier power,
//  * a stationary output process (no external time reference survives),
// in contrast to LTI/LTV analyses, which predict a non-physical 1/Δf²
// divergence at the carrier and infinite integrated power. The scalar
//    c = (1/T) ∫₀ᵀ v1ᵀ(t) B(t) Bᵀ(t) v1(t) dt
// needs only the unperturbed steady state and the device noise generators —
// exactly the inputs the paper lists.
#pragma once

#include <string>
#include <vector>

#include "phasenoise/floquet.hpp"

namespace rfic::phasenoise {

struct PhaseNoiseResult {
  Real c = 0;        ///< phase diffusion constant [s²/s]
  Real period = 0;   ///< oscillation period T [s]
  Real f0 = 0;       ///< carrier frequency [Hz]
  FloquetDecomposition floquet;
  /// Per-noise-source contribution to c (sums to c) — the "separate
  /// contributions of noise sources" capability highlighted in Section 3.
  std::vector<std::pair<std::string, Real>> perSource;
  /// RMS of the PPV component at each unknown over the period — "the
  /// sensitivity of phase noise to individual circuit … nodes" (Section 3):
  /// a white current of PSD S injected at unknown i contributes
  /// (S/2)·nodeSensitivity[i]² to c.
  RVec nodeSensitivity;

  /// Mean-square phase-deviation (jitter) after elapsed time t:
  /// σ²(t) = c·t [s²]. Grows without bound — the Section 3 claim.
  Real jitterVariance(Real t) const { return c * t; }

  /// Two-sided output PSD density near harmonic k at offset Δf from k·f0,
  /// normalized to the harmonic power (units 1/Hz):
  ///   Λ_k(Δf) = (k²ω0²c) / ((k²ω0²c/2)² + (2πΔf)²).
  /// Finite at Δf = 0 and integrates to 1 — carrier power is preserved.
  Real lorentzian(int k, Real offsetHz) const;

  /// Single-sideband phase noise L(Δf) in dBc/Hz for the fundamental.
  Real ssbPhaseNoiseDbc(Real offsetHz) const;

  /// The LTV prediction k²ω0²c/(2πΔf)² in dBc/Hz — matches the Lorentzian
  /// far from the carrier but diverges at Δf → 0 (the non-physical result
  /// the paper warns about).
  Real ltvPhaseNoiseDbc(Real offsetHz) const;

  /// Corner offset where the Lorentzian flattens: Δf_c = ω0²c/(4π) [Hz].
  Real linewidthHz() const;
};

/// Full phase-noise characterization from a converged autonomous PSS.
/// Only white noise sources enter c (flicker noise requires the colored-
/// noise extension of the theory and is reported separately by the
/// stationary noise analysis).
PhaseNoiseResult analyzeOscillatorPhaseNoise(const MnaSystem& sys,
                                             const PSSResult& pss);


}  // namespace rfic::phasenoise
