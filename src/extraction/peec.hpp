// Magnetoquasistatic PEEC extraction: partial self- and mutual inductances
// of rectangular conductor segments, plus frequency-dependent series
// resistance with a skin-effect correction.
//
// Substitution note (DESIGN.md §1.4): the paper's full-wave layered-media
// solver is replaced by quasi-static partial-element extraction — at chip
// scale and 1–2 GHz (features ≪ λ/10) this is the governing regime, and
// the compression/solution machinery is shared with the electrostatic path.
#pragma once

#include <vector>

#include "extraction/geometry.hpp"
#include "numeric/dense.hpp"

namespace rfic::extraction {

inline constexpr Real kMu0 = 4.0e-7 * kPi;

/// Straight rectangular conductor segment along a coordinate axis.
struct Segment {
  Vec3 start, end;
  Real width = 0, thickness = 0;
  /// +1/−1: current direction along the segment axis relative to the
  /// netlist orientation (used to sign mutual terms in a series loop).
  int sign = 1;
};

/// Grover/Ruehli closed-form partial self-inductance of a rectangular bar.
Real partialSelfInductance(const Segment& s);

/// Partial mutual inductance of two segments by Gauss–Legendre quadrature
/// of the Neumann double integral along the segment center lines
/// (filament approximation). Perpendicular segments return 0 exactly.
Real partialMutualInductance(const Segment& a, const Segment& b,
                             std::size_t quadraturePoints = 12);

/// Total series inductance of segments carrying the same loop current:
/// L = Σᵢⱼ signᵢ·signⱼ·M(i,j).
Real loopInductance(const std::vector<Segment>& segs);

/// Skin-effect multiplier at frequency f for conductor thickness t:
/// R(f)/Rdc = t/(δ·(1 − e^{−t/δ})), δ = √(ρ/(π f μ₀)); → 1 at low f.
Real skinEffectFactor(Real freqHz, Real thickness, Real resistivity);

}  // namespace rfic::extraction
