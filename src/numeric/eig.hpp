// Dense nonsymmetric eigenvalue computation.
//
// Used for: Floquet multipliers of the monodromy matrix in the oscillator
// phase-noise analysis of Section 3 (the oscillatory eigenvalue 1 and its
// eigenvector anchor the perturbation projection vector), and pole
// extraction from reduced-order models in Section 5.
#pragma once

#include "numeric/dense.hpp"

namespace rfic::numeric {

/// All eigenvalues of a real square matrix, unordered.
/// Algorithm: unitary Hessenberg reduction followed by shifted complex QR
/// iteration with deflation.
CVec eigenvalues(const RMat& a);

/// Eigenvalues of a complex square matrix.
CVec eigenvalues(const CMat& a);

/// Right eigenvector for the eigenvalue of `a` closest to `shift`, computed
/// by inverse iteration. The returned vector is 2-norm normalized.
CVec eigenvectorNear(const RMat& a, Complex shift);

}  // namespace rfic::numeric
