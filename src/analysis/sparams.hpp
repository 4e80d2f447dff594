// S-parameter extraction of linearized N-port circuits.
//
// Section 4 notes that a field solver's output "is typically an S parameter
// matrix, which can be used directly in a frequency-domain simulation."
// This module provides the same interface for any circuit in the library:
// ports are node pairs, the Z-matrix is assembled column-by-column from AC
// solves, and S = (Z − Z₀)(Z + Z₀)⁻¹ for a common reference impedance.
#pragma once

#include <vector>

#include "analysis/ac.hpp"
#include "numeric/dense.hpp"

namespace rfic::analysis {

/// One port: a node pair (minus may be ground = −1).
struct Port {
  int nodePlus = -1;
  int nodeMinus = -1;
  std::string name;
};

/// S-parameters of one frequency point (nPorts × nPorts).
struct SParameters {
  Real freq = 0;
  numeric::CMat s;

  /// |S(i,j)| in dB.
  Real magDb(std::size_t i, std::size_t j) const;
};

/// Compute S at one frequency from the circuit linearized at xop (a
/// one-frequency sweep).
SParameters sParameters(const MnaSystem& sys, const numeric::RVec& xop,
                        const std::vector<Port>& ports, Real freqHz,
                        Real z0 = 50.0);

/// Frequency sweep: one linearization, one factorization per frequency.
std::vector<SParameters> sParameterSweep(const MnaSystem& sys,
                                         const numeric::RVec& xop,
                                         const std::vector<Port>& ports,
                                         const std::vector<Real>& freqs,
                                         Real z0 = 50.0);

/// Passivity sample check: every singular value of S must be ≤ 1 for a
/// passive network (checked via the Hermitian form I − SᴴS ⪰ 0 at the
/// given tolerance).
bool isPassiveSample(const SParameters& sp, Real tol = 1e-9);

}  // namespace rfic::analysis
