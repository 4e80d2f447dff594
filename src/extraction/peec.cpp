#include "extraction/peec.hpp"

#include <array>
#include <cmath>

namespace rfic::extraction {

namespace {

// 12-point Gauss–Legendre nodes/weights on [0, 1].
struct GaussRule {
  std::vector<Real> x, w;
};
GaussRule gaussRule(std::size_t n) {
  // Newton iteration on Legendre polynomials, standard construction.
  GaussRule r;
  r.x.resize(n);
  r.w.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Real t = std::cos(kPi * (static_cast<Real>(i) + 0.75) /
                      (static_cast<Real>(n) + 0.5));
    for (int it = 0; it < 100; ++it) {
      Real p0 = 1.0, p1 = t;
      for (std::size_t k = 2; k <= n; ++k) {
        const Real pk = ((2.0 * static_cast<Real>(k) - 1.0) * t * p1 -
                         (static_cast<Real>(k) - 1.0) * p0) /
                        static_cast<Real>(k);
        p0 = p1;
        p1 = pk;
      }
      const Real dp = static_cast<Real>(n) * (t * p1 - p0) / (t * t - 1.0);
      const Real dt = p1 / dp;
      t -= dt;
      if (std::abs(dt) < 1e-15) break;
    }
    Real p0 = 1.0, p1 = t;
    for (std::size_t k = 2; k <= n; ++k) {
      const Real pk = ((2.0 * static_cast<Real>(k) - 1.0) * t * p1 -
                       (static_cast<Real>(k) - 1.0) * p0) /
                      static_cast<Real>(k);
      p0 = p1;
      p1 = pk;
    }
    const Real dp = static_cast<Real>(n) * (t * p1 - p0) / (t * t - 1.0);
    r.x[i] = 0.5 * (1.0 - t);  // map [-1,1] -> [0,1], order irrelevant
    r.w[i] = 1.0 / ((1.0 - t * t) * dp * dp);
  }
  return r;
}

}  // namespace

Real partialSelfInductance(const Segment& s) {
  const Real l = (s.end - s.start).norm();
  RFIC_REQUIRE(l > 0 && s.width > 0 && s.thickness > 0,
               "partialSelfInductance: bad segment");
  const Real wt = s.width + s.thickness;
  // Ruehli's approximation for a rectangular bar.
  return kMu0 * l / (2.0 * kPi) *
         (std::log(2.0 * l / wt) + 0.5 + 0.2235 * wt / l);
}

Real partialMutualInductance(const Segment& a, const Segment& b,
                             std::size_t quadraturePoints) {
  const Vec3 da = a.end - a.start;
  const Vec3 db = b.end - b.start;
  const Real la = da.norm(), lb = db.norm();
  RFIC_REQUIRE(la > 0 && lb > 0, "partialMutualInductance: bad segments");
  const Real cosang = da.dot(db) / (la * lb);
  if (std::abs(cosang) < 1e-12) return 0.0;  // perpendicular

  const GaussRule rule = gaussRule(quadraturePoints);
  // Neumann: M = (μ0/4π)·(dl_a·dl_b) ∬ ds dt / |r_a(s) − r_b(t)|.
  Real sum = 0;
  for (std::size_t i = 0; i < quadraturePoints; ++i) {
    const Vec3 pa = a.start + da * rule.x[i];
    for (std::size_t j = 0; j < quadraturePoints; ++j) {
      const Vec3 pb = b.start + db * rule.x[j];
      Real r = (pa - pb).norm();
      // Regularize near-touching filaments with the geometric-mean distance
      // of the cross sections.
      const Real gmd = 0.2235 * (a.width + a.thickness);
      r = std::max(r, gmd);
      sum += rule.w[i] * rule.w[j] / r;
    }
  }
  return kMu0 / (4.0 * kPi) * cosang * la * lb * sum;
}

Real loopInductance(const std::vector<Segment>& segs) {
  Real total = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    total += partialSelfInductance(segs[i]);
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      total += 2.0 * static_cast<Real>(segs[i].sign * segs[j].sign) *
               partialMutualInductance(segs[i], segs[j]);
    }
  }
  return total;
}

Real skinEffectFactor(Real freqHz, Real thickness, Real resistivity) {
  if (freqHz <= 0) return 1.0;
  const Real delta = std::sqrt(resistivity / (kPi * freqHz * kMu0));
  const Real ratio = thickness / delta;
  if (ratio < 1e-6) return 1.0;
  return ratio / (1.0 - std::exp(-ratio));
}

}  // namespace rfic::extraction
