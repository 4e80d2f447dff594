// MnaSystem: a Circuit viewed as the DAE  d/dt q(x) + f(x) = b(t)  (paper
// eq. 3) and, for the multi-time analyses of Section 2.2, as its bivariate
// generalization with sources split across the two time axes (eq. 4).
// Evaluations of (f, q, b) and the Jacobians G, C go through MnaWorkspace
// (circuit/mna_workspace.hpp), the one evaluation interface.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "numeric/dense.hpp"

namespace rfic::circuit {

using numeric::RMat;
using numeric::RVec;

class MnaSystem {
 public:
  explicit MnaSystem(const Circuit& ckt) : ckt_(ckt), n_(ckt.numUnknowns()) {}

  std::size_t dim() const { return n_; }
  const Circuit& circuit() const { return ckt_; }

  /// Collect all device noise generators at operating point x.
  std::vector<NoiseSource> noiseSources(const RVec& x) const;
  /// The same into `out` (cleared first), so a per-step caller reuses its
  /// capacity.
  void noiseSources(const RVec& x, std::vector<NoiseSource>& out) const;

 private:
  const Circuit& ckt_;
  std::size_t n_;
};

}  // namespace rfic::circuit
