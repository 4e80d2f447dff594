#include "numeric/eig.hpp"

#include <cmath>

#include "numeric/lu.hpp"

namespace rfic::numeric {

namespace {

// Reduce a complex matrix to upper Hessenberg form by Householder
// reflections (similarity transform; the transform itself is discarded
// because only eigenvalues are needed).
void hessenberg(CMat& a) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Build reflector for column k below the subdiagonal.
    Real normx = 0;
    for (std::size_t i = k + 1; i < n; ++i) normx += std::norm(a(i, k));
    normx = std::sqrt(normx);
    if (normx == 0) continue;
    Complex x0 = a(k + 1, k);
    const Real ax0 = std::abs(x0);
    const Complex phase = (ax0 == 0) ? Complex(1, 0) : x0 / ax0;
    const Complex alpha = -phase * normx;
    CVec v(n);
    v[k + 1] = x0 - alpha;
    for (std::size_t i = k + 2; i < n; ++i) v[i] = a(i, k);
    Real vn2 = 0;
    for (std::size_t i = k + 1; i < n; ++i) vn2 += std::norm(v[i]);
    if (vn2 == 0) continue;
    const Real beta = 2.0 / vn2;
    // A <- (I - beta v vᴴ) A
    for (std::size_t j = 0; j < n; ++j) {
      Complex s = 0;
      for (std::size_t i = k + 1; i < n; ++i) s += std::conj(v[i]) * a(i, j);
      s *= beta;
      for (std::size_t i = k + 1; i < n; ++i) a(i, j) -= s * v[i];
    }
    // A <- A (I - beta v vᴴ)
    for (std::size_t i = 0; i < n; ++i) {
      Complex s = 0;
      for (std::size_t j = k + 1; j < n; ++j) s += a(i, j) * v[j];
      s *= beta;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= s * std::conj(v[j]);
    }
  }
}

// Wilkinson shift for the trailing 2x2 block [a b; c d].
Complex wilkinsonShift(Complex a, Complex b, Complex c, Complex d) {
  const Complex tr = a + d;
  const Complex det = a * d - b * c;
  const Complex disc = std::sqrt(tr * tr - 4.0 * det);
  const Complex l1 = 0.5 * (tr + disc);
  const Complex l2 = 0.5 * (tr - disc);
  return (std::abs(l1 - d) < std::abs(l2 - d)) ? l1 : l2;
}

// Shifted QR iteration with Givens rotations on a Hessenberg matrix.
CVec hessenbergQR(CMat h) {
  const std::size_t n = h.rows();
  CVec eig(n);
  std::size_t hi = n;  // active block is rows/cols [0, hi)
  int stall = 0;
  while (hi > 0) {
    if (hi == 1) {
      eig[0] = h(0, 0);
      break;
    }
    // Deflate negligible subdiagonals.
    bool deflated = false;
    for (std::size_t i = hi - 1; i > 0; --i) {
      const Real sub = std::abs(h(i, i - 1));
      const Real diag = std::abs(h(i, i)) + std::abs(h(i - 1, i - 1));
      if (sub <= 1e-15 * (diag + 1e-300)) {
        h(i, i - 1) = 0;
        if (i == hi - 1) {
          eig[hi - 1] = h(hi - 1, hi - 1);
          --hi;
          stall = 0;
          deflated = true;
          break;
        }
      }
    }
    if (deflated) continue;
    if (hi >= 2 && std::abs(h(hi - 1, hi - 2)) == 0) {
      eig[hi - 1] = h(hi - 1, hi - 1);
      --hi;
      stall = 0;
      continue;
    }

    Complex mu = wilkinsonShift(h(hi - 2, hi - 2), h(hi - 2, hi - 1),
                                h(hi - 1, hi - 2), h(hi - 1, hi - 1));
    if (++stall % 30 == 0) {
      // Exceptional shift to break symmetric stalls.
      mu = Complex(1.5 * std::abs(h(hi - 1, hi - 2)),
                   std::abs(h(hi - 1, hi - 1)));
    }
    if (stall > 300) failNumerical("eigenvalues: QR iteration failed to converge");

    // QR step: H - mu I = Q R, H <- R Q + mu I via Givens sweeps.
    // Each Givens G_k = [c s; -s̄ c] (c real) acts on rows (k, k+1); the
    // right-multiplication by Q = G_0ᴴ G_1ᴴ … is applied afterwards.
    for (std::size_t i = 0; i < hi; ++i) h(i, i) -= mu;
    std::vector<Real> cs(hi, 1.0);
    std::vector<Complex> sn(hi, 0.0);
    for (std::size_t k = 0; k + 1 < hi; ++k) {
      const Complex f = h(k, k), g = h(k + 1, k);
      const Real af = std::abs(f), ag = std::abs(g);
      const Real r = std::hypot(af, ag);
      if (r == 0) {
        cs[k] = 1.0;
        sn[k] = 0.0;
        continue;
      }
      const Real c = af / r;
      const Complex s = (af == 0) ? Complex(1, 0)
                                  : (f / af) * std::conj(g) / r;
      cs[k] = c;
      sn[k] = s;
      for (std::size_t j = k; j < hi; ++j) {
        const Complex t1 = h(k, j), t2 = h(k + 1, j);
        h(k, j) = c * t1 + s * t2;
        h(k + 1, j) = -std::conj(s) * t1 + c * t2;
      }
    }
    for (std::size_t k = 0; k + 1 < hi; ++k) {
      const Real c = cs[k];
      const Complex s = sn[k];
      const std::size_t top = std::min(k + 2, hi - 1);
      for (std::size_t i = 0; i <= top; ++i) {
        const Complex t1 = h(i, k), t2 = h(i, k + 1);
        h(i, k) = c * t1 + std::conj(s) * t2;
        h(i, k + 1) = -s * t1 + c * t2;
      }
    }
    for (std::size_t i = 0; i < hi; ++i) h(i, i) += mu;
  }
  return eig;
}

}  // namespace

CVec eigenvalues(const CMat& aIn) {
  RFIC_REQUIRE(aIn.rows() == aIn.cols(), "eigenvalues: square required");
  CMat a = aIn;
  hessenberg(a);
  return hessenbergQR(std::move(a));
}

CVec eigenvalues(const RMat& a) { return eigenvalues(toComplex(a)); }

CVec eigenvectorNear(const RMat& a, Complex shift) {
  RFIC_REQUIRE(a.rows() == a.cols(), "eigenvectorNear: square required");
  const std::size_t n = a.rows();
  CMat shifted = toComplex(a);
  // Small perturbation keeps the factorization well-defined when the shift
  // equals an eigenvalue to machine precision.
  const Real scale = normFro(a) + 1.0;
  const Complex mu = shift + Complex(1e-10 * scale, 1e-10 * scale);
  for (std::size_t i = 0; i < n; ++i) shifted(i, i) -= mu;
  CLU lu(std::move(shifted));
  CVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1.0 / std::sqrt(Real(n));
  for (int it = 0; it < 8; ++it) {
    v = lu.solve(v);
    const Real nv = norm2(v);
    if (nv == 0) failNumerical("eigenvectorNear: inverse iteration collapsed");
    v *= Complex(1.0 / nv, 0.0);
  }
  return v;
}

}  // namespace rfic::numeric
