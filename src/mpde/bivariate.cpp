#include "mpde/bivariate.hpp"

#include <cmath>

namespace rfic::mpde {

void BivariateGrid::setState(std::size_t i, std::size_t j, const RVec& x) {
  RFIC_REQUIRE(x.size() == n_, "BivariateGrid::setState size mismatch");
  for (std::size_t u = 0; u < n_; ++u) at(u, i, j) = x[u];
}

Real BivariateGrid::evaluateUnivariate(std::size_t u, Real t) const {
  const Real p1 = t / T1_ * static_cast<Real>(m1_);
  const Real p2 = t / T2_ * static_cast<Real>(m2_);
  const Real f1 = std::floor(p1), f2 = std::floor(p2);
  const Real w1 = p1 - f1, w2 = p2 - f2;
  const auto i0 = static_cast<std::size_t>(
      static_cast<long long>(f1) % static_cast<long long>(m1_) +
      (f1 < 0 ? static_cast<long long>(m1_) : 0));
  const auto j0 = static_cast<std::size_t>(
      static_cast<long long>(f2) % static_cast<long long>(m2_) +
      (f2 < 0 ? static_cast<long long>(m2_) : 0));
  const std::size_t i1 = (i0 + 1) % m1_;
  const std::size_t j1 = (j0 + 1) % m2_;
  return (1 - w1) * (1 - w2) * at(u, i0 % m1_, j0 % m2_) +
         (1 - w1) * w2 * at(u, i0 % m1_, j1) +
         w1 * (1 - w2) * at(u, i1, j0 % m2_) + w1 * w2 * at(u, i1, j1);
}

std::vector<Complex> BivariateGrid::slowHarmonicVsFast(std::size_t u,
                                                       int k) const {
  std::vector<Complex> out(m2_);
  for (std::size_t j = 0; j < m2_; ++j) {
    Complex s = 0;
    for (std::size_t i = 0; i < m1_; ++i) {
      const Real ang = -kTwoPi * static_cast<Real>(k) * static_cast<Real>(i) /
                       static_cast<Real>(m1_);
      s += at(u, i, j) * Complex(std::cos(ang), std::sin(ang));
    }
    out[j] = s / static_cast<Real>(m1_);
  }
  return out;
}

Complex BivariateGrid::mixCoefficient(std::size_t u, int k1, int k2) const {
  Complex s = 0;
  for (std::size_t i = 0; i < m1_; ++i) {
    for (std::size_t j = 0; j < m2_; ++j) {
      const Real ang =
          -kTwoPi * (static_cast<Real>(k1) * static_cast<Real>(i) /
                         static_cast<Real>(m1_) +
                     static_cast<Real>(k2) * static_cast<Real>(j) /
                         static_cast<Real>(m2_));
      s += at(u, i, j) * Complex(std::cos(ang), std::sin(ang));
    }
  }
  return s / static_cast<Real>(m1_ * m2_);
}

Real demoPulse(Real phase, Real edge) {
  Real p = phase - std::floor(phase);
  // Raised-cosine edges of width `edge`, high on [0, 0.5).
  auto smooth = [edge](Real d) {  // 0 → 1 over [0, edge]
    if (d <= 0) return 0.0;
    if (d >= edge) return 1.0;
    return 0.5 * (1.0 - std::cos(kPi * d / edge));
  };
  return smooth(p) * (1.0 - smooth(p - 0.5));
}

Real demoSignal(Real t, Real t1Period, Real t2Period) {
  return std::sin(kTwoPi * t / t1Period) * demoPulse(t / t2Period);
}

namespace {

// Max linear-interpolation error of f on a uniform n-sample periodic grid
// over [0, span), probed at refine× resolution.
Real interpError(const std::function<Real(Real)>& f, Real span, std::size_t n,
                 std::size_t refine = 8) {
  Real maxErr = 0;
  const Real h = span / static_cast<Real>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Real t0 = static_cast<Real>(i) * h;
    const Real v0 = f(t0), v1 = f(t0 + h);
    for (std::size_t r = 1; r < refine; ++r) {
      const Real w = static_cast<Real>(r) / static_cast<Real>(refine);
      const Real err = std::abs(f(t0 + w * h) - ((1 - w) * v0 + w * v1));
      maxErr = std::max(maxErr, err);
    }
  }
  return maxErr;
}

}  // namespace

std::size_t univariateSamplesNeeded(Real scaleSeparation, Real tol) {
  RFIC_REQUIRE(scaleSeparation >= 1 && tol > 0,
               "univariateSamplesNeeded: bad arguments");
  // One slow period T1 = scaleSeparation fast periods; sample y(t) directly.
  const Real T1 = scaleSeparation;  // with T2 = 1
  auto f = [T1](Real t) { return demoSignal(t, T1, 1.0); };
  std::size_t n = 16;
  while (interpError(f, T1, n) > tol) {
    n *= 2;
    RFIC_REQUIRE(n < (std::size_t{1} << 40),
                 "univariateSamplesNeeded: runaway refinement");
  }
  // Binary refine between n/2 and n for a tighter count.
  std::size_t lo = n / 2, hi = n;
  while (hi - lo > std::max<std::size_t>(1, hi / 64)) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (interpError(f, T1, mid) > tol)
      lo = mid;
    else
      hi = mid;
  }
  return hi;
}

std::size_t bivariateSamplesNeeded(Real tol) {
  RFIC_REQUIRE(tol > 0, "bivariateSamplesNeeded: bad tolerance");
  // Separable signal: error bounded by sum of per-axis interpolation
  // errors; find per-axis counts then report the product.
  auto slow = [](Real t) { return std::sin(kTwoPi * t); };
  auto fast = [](Real t) { return demoPulse(t); };
  std::size_t n1 = 4, n2 = 4;
  while (interpError(slow, 1.0, n1) > 0.5 * tol) n1 *= 2;
  while (interpError(fast, 1.0, n2) > 0.5 * tol) n2 *= 2;
  return n1 * n2;
}

Real bivariateReconstructionError(Real scaleSeparation, std::size_t m1,
                                  std::size_t m2) {
  const Real T1 = scaleSeparation, T2 = 1.0;
  BivariateGrid g(1, m1, m2, T1, T2);
  for (std::size_t i = 0; i < m1; ++i)
    for (std::size_t j = 0; j < m2; ++j)
      g.at(0, i, j) = std::sin(kTwoPi * g.t1(i) / T1) * demoPulse(g.t2(j) / T2);
  Real maxErr = 0;
  // Probe along the diagonal at irrational-ish offsets across several fast
  // periods spread over the slow period.
  const std::size_t probes = 4096;
  for (std::size_t k = 0; k < probes; ++k) {
    const Real t = T1 * (static_cast<Real>(k) + 0.382) /
                   static_cast<Real>(probes);
    maxErr = std::max(maxErr,
                      std::abs(demoSignal(t, T1, T2) -
                               g.evaluateUnivariate(0, t)));
  }
  return maxErr;
}

}  // namespace rfic::mpde
