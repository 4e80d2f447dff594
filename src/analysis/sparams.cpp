#include "analysis/sparams.hpp"

#include <cmath>

#include "numeric/eig.hpp"
#include "numeric/lu.hpp"

namespace rfic::analysis {

using numeric::CMat;
using numeric::CVec;

Real SParameters::magDb(std::size_t i, std::size_t j) const {
  const Real m = std::abs(s(i, j));
  return m > 0 ? 20.0 * std::log10(m) : -400.0;
}

namespace {

/// S at one frequency from a linearized workspace: the Z-matrix from one
/// factorization, then S = (Z − Z0 I)(Z + Z0 I)⁻¹.
SParameters solveAt(const MnaSystem& sys, const circuit::MnaWorkspace& ws,
                    const std::vector<Port>& ports,
                    const std::vector<std::size_t>& gminSlots, Real freqHz,
                    Real z0) {
  const std::size_t np = ports.size();
  // Z-matrix: inject 1 A into port j (others open), read port voltages.
  // One factorization serves all ports. Tiny shunt conductances at the
  // port nodes regularize networks that float when every port is open
  // (e.g. a bare series element) — the |S| error is ~Z0·gminPort ≈ 5e-11.
  sparse::CCSR a = acMatrix(ws, freqHz);
  const Real gminPort = 1e-12;
  for (const std::size_t p : gminSlots) a.values()[p] += gminPort;
  sparse::CSymbolicLU lu0;
  lu0.factor(a);

  CMat z(np, np);
  for (std::size_t j = 0; j < np; ++j) {
    const CVec u = acStimulusCurrent(sys, ports[j].nodeMinus,
                                     ports[j].nodePlus, {1.0, 0.0});
    const CVec x = lu0.solve(u);
    for (std::size_t i = 0; i < np; ++i) {
      const Complex vp = ports[i].nodePlus >= 0
                             ? x[static_cast<std::size_t>(ports[i].nodePlus)]
                             : 0.0;
      const Complex vm = ports[i].nodeMinus >= 0
                             ? x[static_cast<std::size_t>(ports[i].nodeMinus)]
                             : 0.0;
      z(i, j) = vp - vm;
    }
  }

  // S = (Z − Z0 I)(Z + Z0 I)⁻¹.
  CMat num = z, den = z;
  for (std::size_t i = 0; i < np; ++i) {
    num(i, i) -= z0;
    den(i, i) += z0;
  }
  SParameters out;
  out.freq = freqHz;
  // Solve (Z + Z0)ᵀ Xᵀ = (Z − Z0)ᵀ  ⇔  X = num · den⁻¹.
  const numeric::CLU lu(den.transposed());  // NOLINT (small dense)
  out.s = CMat(np, np);
  CVec col(np);
  const CMat numT = num.transposed();
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t k = 0; k < np; ++k) col[k] = numT(k, i);
    const CVec row = lu.solve(col);
    for (std::size_t k = 0; k < np; ++k) out.s(i, k) = row[k];
  }
  return out;
}

}  // namespace

SParameters sParameters(const MnaSystem& sys, const numeric::RVec& xop,
                        const std::vector<Port>& ports, Real freqHz,
                        Real z0) {
  return sParameterSweep(sys, xop, ports, {freqHz}, z0).front();
}

std::vector<SParameters> sParameterSweep(const MnaSystem& sys,
                                         const numeric::RVec& xop,
                                         const std::vector<Port>& ports,
                                         const std::vector<Real>& freqs,
                                         Real z0) {
  RFIC_REQUIRE(!ports.empty(), "sParameters: at least one port");
  RFIC_REQUIRE(z0 > 0, "sParameters: positive reference impedance");
  for (const auto& p : ports)
    RFIC_REQUIRE(nodeInRange(sys, p.nodePlus) && nodeInRange(sys, p.nodeMinus),
                 "sParameters: port node out of range");

  circuit::MnaWorkspace ws(sys);
  linearizeAt(ws, xop);
  std::vector<std::size_t> gminSlots;  // the port nodes' diagonals
  for (const auto& p : ports)
    for (const int node : {p.nodePlus, p.nodeMinus})
      if (node >= 0)
        gminSlots.push_back(ws.diagSlots()[static_cast<std::size_t>(node)]);

  std::vector<SParameters> out;
  out.reserve(freqs.size());
  for (const Real f : freqs)
    out.push_back(solveAt(sys, ws, ports, gminSlots, f, z0));
  return out;
}

bool isPassiveSample(const SParameters& sp, Real tol) {
  // Eigenvalues of the Hermitian matrix I − SᴴS must be ≥ −tol.
  const std::size_t n = sp.s.rows();
  CMat m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      Complex acc = (i == j) ? Complex(1.0, 0.0) : Complex(0.0, 0.0);
      for (std::size_t k = 0; k < n; ++k)
        acc -= std::conj(sp.s(k, i)) * sp.s(k, j);
      m(i, j) = acc;
    }
  }
  const numeric::CVec eig = numeric::eigenvalues(m);
  for (std::size_t i = 0; i < n; ++i)
    if (eig[i].real() < -tol) return false;
  return true;
}

}  // namespace rfic::analysis
