#include "phasenoise/floquet.hpp"

#include <cmath>

#include "circuit/mna_workspace.hpp"
#include "numeric/eig.hpp"
#include "numeric/lu.hpp"

namespace rfic::phasenoise {

FloquetDecomposition floquetDecompose(const MnaSystem& sys,
                                      const PSSResult& pss) {
  RFIC_REQUIRE(pss.converged, "floquetDecompose: PSS did not converge");
  const std::size_t n = sys.dim();
  const std::size_t m = pss.trajectory.size() - 1;
  RFIC_REQUIRE(m >= 8, "floquetDecompose: trajectory too coarse");
  const Real h = pss.period / static_cast<Real>(m);

  FloquetDecomposition out;
  const CVec mult = numeric::eigenvalues(pss.monodromy);
  out.multipliers.assign(mult.begin(), mult.end());
  Real best = 1e300;
  for (std::size_t i = 0; i < out.multipliers.size(); ++i) {
    const Real d = std::abs(out.multipliers[i] - Complex(1.0, 0.0));
    if (d < best) {
      best = d;
      out.oscillatoryIndex = i;
    }
  }

  // Per-sample Jacobians along the orbit.
  std::vector<RMat> gk(m + 1, RMat(n, n)), ck(m + 1, RMat(n, n));
  circuit::MnaWorkspace ws(sys);
  for (std::size_t k = 0; k <= m; ++k) {
    ws.eval(pss.trajectory[k], pss.times[k], true);
    circuit::scatterDense(ws.pattern(), ws.gValues(), gk[k]);
    circuit::scatterDense(ws.pattern(), ws.cValues(), ck[k]);
  }

  // Orbit tangent u1 = ẋs by periodic central differences (avoids
  // inverting C and matches the trajectory's own discretization error).
  out.tangent.resize(m + 1);
  for (std::size_t k = 0; k <= m; ++k) {
    const std::size_t kp = (k + 1) % m;
    const std::size_t km = (k + m - 1) % m;
    RVec d = pss.trajectory[kp];
    d -= pss.trajectory[km];
    d *= 1.0 / (2.0 * h);
    out.tangent[k] = std::move(d);
  }

  // Left eigenvector of M at the oscillatory multiplier: Mᵀ w = w.
  const CVec w0c =
      numeric::eigenvectorNear(pss.monodromy.transposed(), Complex(1.0, 0.0));
  // Rotate the (theoretically real) eigenvector to the real axis.
  std::size_t imax = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (std::abs(w0c[i]) > std::abs(w0c[imax])) imax = i;
  const Complex rot =
      std::abs(w0c[imax]) > 0 ? std::conj(w0c[imax]) / std::abs(w0c[imax])
                              : Complex(1.0, 0.0);
  RVec w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = (w0c[i] * rot).real();

  // Backward adjoint sweep, matched to the integrator that produced the
  // trajectory so that the discrete duality v_kᵀ C_k Φ_k = v_{k+1}ᵀ C_{k+1}
  // holds exactly:
  //   BE:   Φ_k = (C₁ + h·G₁)⁻¹ C₀            →  v_k = (C₁+hG₁)⁻ᵀ w_{k+1},
  //                                              w_k = C_kᵀ v_k.
  //   trap: Φ_k = (C₁ + h/2·G₁)⁻¹(C₀ − h/2·G₀) →  w_k = Φ_kᵀ w_{k+1},
  //                                              v_k = C_k⁻ᵀ w_k
  //         (needs C invertible — true for oscillator cores).
  const bool trap =
      pss.method == analysis::IntegrationMethod::trapezoidal;
  const Real gw = trap ? 0.5 * h : h;
  out.ppv.assign(m + 1, RVec(n));
  for (std::size_t k = m; k-- > 0;) {
    RMat a = ck[k + 1];
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) += gw * gk[k + 1](i, j);
    const numeric::LU<Real> lu(std::move(a));
    const RVec u = lu.solveTransposed(w);
    if (!trap) {
      out.ppv[k] = u;
      w = numeric::transposeMatvec(ck[k], u);
    } else {
      RMat rhs = ck[k];
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) rhs(i, j) -= gw * gk[k](i, j);
      w = numeric::transposeMatvec(rhs, u);
      out.ppv[k] = numeric::LU<Real>(ck[k]).solveTransposed(w);
    }
  }
  out.ppv[m] = out.ppv[0];

  // Normalize v1ᵀ C u1 = 1 (average over the orbit) and record the defect.
  Real mean = 0;
  std::vector<Real> s(m);
  for (std::size_t k = 0; k < m; ++k) {
    const RVec cu = ck[k] * out.tangent[k];
    s[k] = numeric::dot(out.ppv[k], cu);
    mean += s[k];
  }
  mean /= static_cast<Real>(m);
  RFIC_REQUIRE(std::abs(mean) > 0,
               "floquetDecompose: degenerate PPV normalization");
  Real defect = 0;
  for (std::size_t k = 0; k < m; ++k)
    defect = std::max(defect, std::abs(s[k] / mean - 1.0));
  out.normalizationDefect = defect;
  const Real inv = 1.0 / mean;
  for (auto& v : out.ppv) v *= inv;
  return out;
}

}  // namespace rfic::phasenoise
